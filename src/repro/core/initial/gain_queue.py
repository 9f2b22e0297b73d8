"""Array-backed max-gain queue of 2-way FM and greedy graph growing.

Each vertex holds one int64 key ``gain << shift | (low - stamp)``, where
``stamp`` counts pops and ``low = n`` bounds it (each pop retires a vertex).
One ``argmax`` selects a move: highest gain, then least recently
(re)inserted, then lowest id (``argmax`` returns the first maximum).  A
moved vertex's neighbours are updated in one vectorized step over its CSR
slice, not with one heap push each.

Keys below :data:`LIVE_FLOOR` are outside the queue.  The constructor's
guard keeps live keys inside ``(-2**59, 2**59)`` and a retired key within
``2**60`` of :data:`DEAD` however often :meth:`GainQueue.add` shifts it (by
at most twice the vertex's weighted degree in all), so dead keys never wrap
or rise into the live range.
"""

from __future__ import annotations

import numpy as np

from repro.memory.scratch import tracked_full

#: key a vertex gets when it leaves the queue
DEAD = -(1 << 62)

#: every key below this is outside the queue
LIVE_FLOOR = -(1 << 61)

_LIVE_LIMIT = 1 << 59


class GainQueue:
    """Max-gain queue over vertices ``0..n-1``; starts empty."""

    __slots__ = ("key", "shift", "mask", "low", "stamp")

    def __init__(self, n: int, max_gain: int, *, name: str) -> None:
        """``max_gain`` bounds ``|gain|`` of every live key and half the
        total change :meth:`add` makes to any one key.

        Raises :class:`OverflowError` when the packed keys could leave
        their ranges.
        """
        self.low = n
        self.shift = max(1, n.bit_length())  # low - stamp in [0, n] fits
        self.mask = (1 << self.shift) - 1
        if (max_gain + 1) << self.shift > _LIVE_LIMIT:
            raise OverflowError(
                f"gain bound {max_gain} with {n} vertices overflows the "
                "packed int64 queue key"
            )
        self.key = tracked_full(n, DEAD, np.int64, name=name)
        self.stamp = 0

    def fill(self, gains: np.ndarray) -> None:
        """Queue every vertex at ``gains``, all with the oldest stamp."""
        self.stamp = 0
        self.push(slice(None), gains)

    def push(self, vertices, gains) -> None:
        """(Re)insert ``vertices`` with ``gains``, stamped as the newest."""
        self.key[vertices] = (gains << self.shift) | (self.low - self.stamp)

    def add(self, vertices: np.ndarray, steps: np.ndarray) -> None:
        """Add ``steps >> shift`` to the gains of ``vertices`` and stamp them
        as the newest; ``steps`` are multiples of ``1 << shift``.  Dead keys
        stay dead."""
        keys = self.key[vertices]
        keys |= self.mask
        keys += steps
        keys -= self.mask - (self.low - self.stamp)
        self.key[vertices] = keys

    def pop(self) -> tuple[int, int]:
        """Remove the top vertex; return ``(vertex, gain)``, or ``(-1, 0)``
        when the queue is empty."""
        u = int(self.key.argmax())
        top = int(self.key[u])
        if top < LIVE_FLOOR:
            return -1, 0
        self.key[u] = DEAD
        self.stamp += 1
        return u, top >> self.shift
