"""Reference implementations of the initial-partitioning kernels.

The lazy-``heapq`` 2-way FM and greedy graph growing that the array-backed
queue (``repro.core.initial.gain_queue``) replaced, plus per-vertex scalar
scans of the 2-way gains and cut.  Tests compare the production kernels
against them; nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.kernels import two_way_gains


def gains_scalar(graph, part: np.ndarray) -> np.ndarray:
    """``gain[u] = w(edges to other side) - w(edges to own side)``, per vertex."""
    gain = np.zeros(graph.n, dtype=np.int64)
    for u in range(graph.n):
        nbrs, wgts = graph.neighbors_and_weights(u)
        if len(nbrs) == 0:
            continue
        same = part[np.asarray(nbrs)] == part[u]
        w = np.asarray(wgts)
        gain[u] = int(w[~same].sum() - w[same].sum())
    return gain


def cut2way_scalar(graph, part: np.ndarray) -> int:
    """Total weight of edges crossing a bipartition, per vertex."""
    total = 0
    for u in range(graph.n):
        nbrs, wgts = graph.neighbors_and_weights(u)
        if len(nbrs) == 0:
            continue
        cross = part[np.asarray(nbrs)] != part[u]
        total += int(np.asarray(wgts)[cross].sum())
    return total // 2


def fm2way_refine_heap(
    graph,
    part: np.ndarray,
    max_weights: tuple[int, int],
    rounds: int = 2,
    max_fruitless: int = 200,
) -> np.ndarray:
    """2-way FM over a lazy heap: one entry pushed per neighbour update."""
    n = graph.n
    vwgt = np.asarray(graph.vwgt)
    side_weight = np.zeros(2, dtype=np.int64)
    np.add.at(side_weight, part, vwgt)

    for _ in range(rounds):
        gain = two_way_gains(graph, part)
        locked = np.zeros(n, dtype=bool)
        heap: list[tuple[int, int, int]] = []
        counter = 0
        for u in range(n):
            heapq.heappush(heap, (-int(gain[u]), counter, u))
            counter += 1

        moves: list[int] = []
        best_prefix = 0
        balance_total = 0
        best_total = 0
        fruitless = 0

        while heap and fruitless < max_fruitless:
            neg_g, _, u = heapq.heappop(heap)
            if locked[u]:
                continue
            if gain[u] != -neg_g:
                heapq.heappush(heap, (-int(gain[u]), counter, u))
                counter += 1
                continue
            src = int(part[u])
            dst = 1 - src
            w = int(vwgt[u])
            if side_weight[dst] + w > max_weights[dst]:
                locked[u] = True  # cannot move this pass
                continue
            locked[u] = True
            part[u] = dst
            side_weight[src] -= w
            side_weight[dst] += w
            balance_total += int(gain[u])
            moves.append(u)
            if balance_total > best_total:
                best_total = balance_total
                best_prefix = len(moves)
                fruitless = 0
            else:
                fruitless += 1
            nbrs, wgts = graph.neighbors_and_weights(u)
            for v, ew in zip(
                np.asarray(nbrs).tolist(), np.asarray(wgts).tolist()
            ):
                if locked[v]:
                    continue
                if part[v] == dst:
                    gain[v] -= 2 * ew
                else:
                    gain[v] += 2 * ew
                heapq.heappush(heap, (-int(gain[v]), counter, v))
                counter += 1

        for u in moves[best_prefix:]:
            src = int(part[u])
            dst = 1 - src
            w = int(vwgt[u])
            part[u] = dst
            side_weight[src] -= w
            side_weight[dst] += w
        if best_total <= 0:
            break
    return part


def greedy_graph_growing_heap(
    graph,
    target_weight0: int,
    max_weight0: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy graph growing over a lazy heap: one entry per neighbour update."""
    n = graph.n
    vwgt = np.asarray(graph.vwgt)
    part = np.ones(n, dtype=np.int32)
    if n == 0:
        return part
    in_block = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    gain = np.zeros(n, dtype=np.int64)
    heap: list[tuple[int, int, int]] = []
    counter = 0
    weight0 = 0

    unassigned = rng.permutation(n)
    up = 0

    while weight0 < target_weight0:
        if not heap:
            while up < n and (in_block[unassigned[up]] or blocked[unassigned[up]]):
                up += 1
            if up >= n:
                break
            seed = int(unassigned[up])
            heapq.heappush(heap, (0, counter, seed))
            counter += 1
        neg_gain, _, u = heapq.heappop(heap)
        if in_block[u] or blocked[u]:
            continue
        if gain[u] != -neg_gain:
            heapq.heappush(heap, (-int(gain[u]), counter, u))
            counter += 1
            continue
        w = int(vwgt[u])
        if weight0 + w > max_weight0:
            blocked[u] = True
            continue
        in_block[u] = True
        part[u] = 0
        weight0 += w
        nbrs, wgts = graph.neighbors_and_weights(u)
        for v, ew in zip(np.asarray(nbrs).tolist(), np.asarray(wgts).tolist()):
            if in_block[v]:
                continue
            gain[v] += 2 * ew
            heapq.heappush(heap, (-int(gain[v]), counter, v))
            counter += 1
    return part
