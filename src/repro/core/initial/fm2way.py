"""2-way FM local search (Fiduccia-Mattheyses [1]) with rollback.

Polishes the bipartitions of the initial-partitioning portfolio.  Each pass
queues every vertex by gain in a :class:`~repro.core.initial.gain_queue
.GainQueue`, moves the top vertex one at a time (locking it), tracks the
best prefix seen, and rolls back the tail.  A move that would break its
side's weight ceiling locks the vertex for the pass instead.  After a move,
the gains of the vertex's unlocked neighbours change by twice the edge
weight in one vectorized update over its CSR slice.
"""

from __future__ import annotations

import numpy as np

from repro.core.initial.gain_queue import GainQueue
from repro.core.kernels import two_way_gains
from repro.graph.access import csr_arrays
from repro.memory.scratch import tracked_empty


def fm2way_refine(
    graph,
    part: np.ndarray,
    max_weights: tuple[int, int],
    rounds: int = 2,
    max_fruitless: int = 200,
) -> np.ndarray:
    """Improve a bipartition in place; returns the refined assignment."""
    n = graph.n
    if n == 0:
        return part
    vwgt = np.asarray(graph.vwgt)
    indptr, adjncy, adjwgt = csr_arrays(graph)
    w0 = int(vwgt[part == 0].sum())
    side_weight = [w0, graph.total_vertex_weight - w0]

    queue = GainQueue(n, graph.total_edge_weight, name="fm2way-queue")
    step = tracked_empty(n, np.int64, name="fm2way-step")
    for _ in range(rounds):
        queue.fill(two_way_gains(graph, part))
        # packed gain change per unit edge weight when a neighbour leaves
        # side 0: +2 for side-0 vertices, -2 for side-1 ones (negated when
        # it leaves side 1).  Only locked vertices change side in a pass.
        np.multiply(part, -4 << queue.shift, out=step, dtype=np.int64)
        step += 2 << queue.shift
        moves: list[int] = []
        best_prefix = 0
        balance_total = 0
        best_total = 0
        fruitless = 0

        while fruitless < max_fruitless:
            u, gain = queue.pop()  # popped vertices stay locked for the pass
            if u < 0:
                break
            src = int(part[u])
            dst = 1 - src
            w = int(vwgt[u])
            if side_weight[dst] + w > max_weights[dst]:
                continue
            part[u] = dst
            side_weight[src] -= w
            side_weight[dst] += w
            balance_total += gain
            moves.append(u)
            if balance_total > best_total:
                best_total = balance_total
                best_prefix = len(moves)
                fruitless = 0
            else:
                fruitless += 1
            lo, hi = indptr[u : u + 2].tolist()
            nbrs = adjncy[lo:hi]
            steps = adjwgt[lo:hi] * step[nbrs]
            queue.add(nbrs, steps if src == 0 else -steps)

        # rollback the tail beyond the best prefix
        for u in moves[best_prefix:]:
            src = int(part[u])
            w = int(vwgt[u])
            part[u] = 1 - src
            side_weight[src] -= w
            side_weight[1 - src] += w
        if best_total <= 0:
            break
    return part
