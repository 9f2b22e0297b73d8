"""Greedy graph growing bipartitioning.

Grows block 0 from a random seed vertex by repeatedly absorbing the frontier
vertex with the highest gain, twice the weight of its edges into the grown
block, until the block reaches its target weight.  Classic GGG as used by
KaMinPar's initial-partitioning portfolio; the frontier is a
:class:`~repro.core.initial.gain_queue.GainQueue`.
"""

from __future__ import annotations

import numpy as np

from repro.core.initial.gain_queue import GainQueue
from repro.graph.access import csr_arrays
from repro.memory.scratch import tracked_ones, tracked_zeros


def greedy_graph_growing_bipartition(
    graph,
    target_weight0: int,
    max_weight0: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Return a 0/1 block assignment with ``w(V_0)`` close to the target.

    ``target_weight0`` steers growth; ``max_weight0`` is the hard cap (the
    bisection-adjusted balance constraint).
    """
    n = graph.n
    vwgt = np.asarray(graph.vwgt)
    part = tracked_ones(n, np.int32, name="bipartition-part")
    if n == 0:
        return part
    indptr, adjncy, adjwgt = csr_arrays(graph)
    # absorbed, or blocked: a vertex that once exceeded the cap can never
    # fit later (the block only grows), so it stays out to guarantee
    # termination
    closed = tracked_zeros(n, bool, name="bipartition-closed")
    gain = tracked_zeros(n, np.int64, name="bipartition-gain")
    frontier = GainQueue(n, 2 * graph.total_edge_weight, name="bipartition-queue")
    weight0 = 0

    unassigned = rng.permutation(n)
    up = 0

    while weight0 < target_weight0:
        u, _ = frontier.pop()
        if u < 0:
            # (re)start from a fresh random seed (handles disconnected graphs)
            while up < n and closed[unassigned[up]]:
                up += 1
            if up >= n:
                break
            u = int(unassigned[up])
        closed[u] = True
        w = int(vwgt[u])
        if weight0 + w > max_weight0:
            continue
        part[u] = 0
        weight0 += w
        lo, hi = indptr[u : u + 2].tolist()
        nbrs = adjncy[lo:hi]
        fresh = ~closed[nbrs]
        nbrs = nbrs[fresh]
        gain[nbrs] += adjwgt[lo:hi][fresh] << 1  # edges flip from cut to internal
        frontier.push(nbrs, gain[nbrs])
    return part


def random_bipartition(
    graph, target_weight0: int, rng: np.random.Generator
) -> np.ndarray:
    """Random balanced assignment (portfolio diversity / fallback)."""
    n = graph.n
    vwgt = np.asarray(graph.vwgt)
    part = tracked_ones(n, np.int32, name="bipartition-part")
    weight0 = 0
    for u in rng.permutation(n).tolist():
        if weight0 >= target_weight0:
            break
        part[u] = 0
        weight0 += int(vwgt[u])
    return part


def bfs_bipartition(
    graph, target_weight0: int, rng: np.random.Generator
) -> np.ndarray:
    """Plain BFS growth (portfolio diversity)."""
    from collections import deque

    n = graph.n
    vwgt = np.asarray(graph.vwgt)
    part = tracked_ones(n, np.int32, name="bipartition-part")
    visited = tracked_zeros(n, bool, name="bipartition-visited")
    weight0 = 0
    order = rng.permutation(n)
    oi = 0
    q: deque[int] = deque()
    while weight0 < target_weight0:
        if not q:
            while oi < n and visited[order[oi]]:
                oi += 1
            if oi >= n:
                break
            q.append(int(order[oi]))
            visited[order[oi]] = True
        u = q.popleft()
        part[u] = 0
        weight0 += int(vwgt[u])
        for v in np.asarray(graph.neighbors(u)).tolist():
            if not visited[v]:
                visited[v] = True
                q.append(v)
    return part
