"""The array-backed 2-way FM and greedy graph growing against their rules.

``RuleQueue`` is a brute-force statement of the selection rule the packed
queue (``repro.core.initial.gain_queue``) implements: highest gain, then
least recently (re)inserted, then lowest id.  ``fm_rule`` and ``ggg_rule``
run the two kernels' loops on it in plain Python, so the production
kernels must match them bit for bit on every graph.  The lazy-heap
versions in ``initial_oracle`` follow the same rule with two exceptions:
a vertex whose gain returns to the value of an older heap entry keeps
that entry's place, and one move's neighbours tie in adjacency order,
which differs from id order where a neighbourhood is unsorted.  So their
cuts are close but not identical, and the quality pin bounds the
difference.
"""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest

import repro.core.initial.recursive as recursive
from repro.core.initial.bipartition import greedy_graph_growing_bipartition
from repro.core.initial.fm2way import fm2way_refine
from repro.core.initial.gain_queue import GainQueue
from repro.core.initial.recursive import bipartition_portfolio, initial_partition
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph
from repro.memory.scratch import install_ledger, uninstall_ledger
from repro.memory.tracker import MemoryTracker

from initial_oracle import fm2way_refine_heap, greedy_graph_growing_heap


class RuleQueue:
    """Max gain, then least recently (re)inserted, then lowest id."""

    def __init__(self):
        self.gain, self.time, self.clock = {}, {}, 0

    def push(self, v, gain):
        self.gain[v], self.time[v] = gain, self.clock

    def pop(self):
        if not self.gain:
            return -1, 0
        u = max(self.gain, key=lambda v: (self.gain[v], -self.time[v], -v))
        self.time.pop(u)
        self.clock += 1
        return u, self.gain.pop(u)


def adjacency(graph):
    return [
        list(zip(*(np.asarray(a).tolist() for a in graph.neighbors_and_weights(u))))
        for u in range(graph.n)
    ]


def fm_rule(graph, part, max_weights, rounds=2, max_fruitless=200):
    part = [int(p) for p in part]
    adj, vw = adjacency(graph), np.asarray(graph.vwgt).tolist()
    side = [sum(w for w, p in zip(vw, part) if p == s) for s in (0, 1)]
    for _ in range(rounds):
        q = RuleQueue()
        for u in range(graph.n):
            q.push(u, sum(w if part[v] != part[u] else -w for v, w in adj[u]))
        moves, best, total, best_total, fruitless = [], 0, 0, 0, 0
        while fruitless < max_fruitless:
            u, g = q.pop()
            if u < 0:
                break
            src = part[u]
            if side[1 - src] + vw[u] > max_weights[1 - src]:
                continue
            part[u] = 1 - src
            side[src] -= vw[u]
            side[1 - src] += vw[u]
            total += g
            moves.append(u)
            if total > best_total:
                best_total, best, fruitless = total, len(moves), 0
            else:
                fruitless += 1
            for v, w in adj[u]:
                if v in q.gain:
                    q.push(v, q.gain[v] + (2 * w if part[v] == src else -2 * w))
        for u in moves[best:]:
            side[part[u]] -= vw[u]
            part[u] = 1 - part[u]
            side[part[u]] += vw[u]
        if best_total <= 0:
            break
    return part


def ggg_rule(graph, target0, max0, rng):
    adj, vw = adjacency(graph), np.asarray(graph.vwgt).tolist()
    part, closed, q, weight0 = [1] * graph.n, set(), RuleQueue(), 0
    order = rng.permutation(graph.n).tolist()
    while weight0 < target0:
        u, _ = q.pop()
        if u < 0:
            seeds = [v for v in order if v not in closed]
            if not seeds:
                break
            u = seeds[0]
        closed.add(u)
        if weight0 + vw[u] > max0:
            continue
        part[u], weight0 = 0, weight0 + vw[u]
        for v, w in adj[u]:
            if v not in closed:
                q.push(v, q.gain.get(v, 0) + 2 * w)
    return part


def weighted(graph, seed, vmax=1, emax=1):
    """``graph`` with random vertex weights in [1, vmax] and edge weights
    in [1, emax] (symmetric)."""
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(graph.n), graph.degrees)
    upper = src < graph.adjncy
    edges = np.stack([src[upper], graph.adjncy[upper]], axis=1)
    return from_edges(
        graph.n,
        edges,
        rng.integers(1, emax + 1, len(edges)),
        rng.integers(1, vmax + 1, graph.n),
    )


def disconnected(seed):
    """Two components plus four isolated vertices."""
    a = gen.rgg2d(40, avg_degree=5, seed=seed)
    b = gen.weblike(30, avg_degree=4, seed=seed)
    sa = np.repeat(np.arange(a.n), a.degrees)
    sb = np.repeat(np.arange(b.n), b.degrees)
    edges = np.concatenate([
        np.stack([sa, a.adjncy], axis=1),
        np.stack([sb, b.adjncy], axis=1) + a.n,
    ])
    return from_edges(a.n + b.n + 4, edges)


GRAPHS = {
    "unit-web": lambda s: gen.weblike(80, avg_degree=8, seed=s),
    "unit-rgg": lambda s: gen.rgg2d(90, avg_degree=6, seed=s),
    "weighted-edges": lambda s: weighted(gen.weblike(70, avg_degree=7, seed=s), s, emax=9),
    "weighted-both": lambda s: weighted(gen.rgg2d(70, avg_degree=6, seed=s), s, 6, 5),
    "disconnected": disconnected,
    "heavy-vertices": lambda s: weighted(gen.weblike(60, avg_degree=6, seed=s), s, vmax=40),
}


def random_part(graph, seed):
    return np.random.default_rng(seed).integers(0, 2, graph.n).astype(np.int32)


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestMatchesRule:
    def test_fm2way(self, name, seed):
        g = GRAPHS[name](seed)
        total = g.total_vertex_weight
        for slack in (0.0, 0.05, 0.3):
            cap = math.ceil(total / 2 * (1 + slack))
            part = random_part(g, seed)
            want = fm_rule(g, part, (cap, cap))
            got = fm2way_refine(g, part.copy(), (cap, cap))
            assert got.tolist() == want
            # the compressed graph is decoded once and follows the same rule
            got_c = fm2way_refine(compress_graph(g), part.copy(), (cap, cap))
            assert got_c.tolist() == want

    def test_greedy_graph_growing(self, name, seed):
        g = GRAPHS[name](seed)
        total = g.total_vertex_weight
        for target, cap in ((total // 2, total // 2 + 3), (total // 3, total // 3)):
            want = ggg_rule(g, target, cap, np.random.default_rng(seed))
            got = greedy_graph_growing_bipartition(
                g, target, cap, np.random.default_rng(seed)
            )
            assert got.tolist() == want
            got_c = greedy_graph_growing_bipartition(
                compress_graph(g), target, cap, np.random.default_rng(seed)
            )
            assert got_c.tolist() == want


class TestEdgeCases:
    def test_more_blocks_than_vertices(self):
        # recursion reaches empty subgraphs, which both kernels pass through
        g = from_edges(3, np.array([[0, 1]]))
        part = initial_partition(g, 16, 0.03, np.random.default_rng(0))
        assert len(set(part.tolist())) == 3 and part.max() < 16

    def test_every_move_infeasible_keeps_part(self, web_graph):
        # each side is at its ceiling, so every popped vertex is locked
        part = random_part(web_graph, 3)
        w0 = int((part == 0).sum())
        caps = (w0, web_graph.n - w0)
        want = fm_rule(web_graph, part, caps)
        got = fm2way_refine(web_graph, part.copy(), caps)
        assert got.tolist() == want == part.tolist()

    def test_no_vertex_fits_grows_nothing(self):
        g = weighted(gen.rgg2d(50, avg_degree=5, seed=4), 4, vmax=9)
        got = greedy_graph_growing_bipartition(g, 5, 0, np.random.default_rng(0))
        assert got.tolist() == [1] * g.n


class TestGainQueue:
    def test_ties_go_to_older_then_lower_id(self):
        q = GainQueue(6, 10, name="t")
        q.fill(np.array([3, 5, 5, 1, 5, 0]))
        assert q.pop() == (1, 5)
        q.push(np.array([0, 3]), np.array([5, 5]))  # newer than 2 and 4
        assert [q.pop()[0] for _ in range(4)] == [2, 4, 0, 3]

    def test_add_keeps_dead_keys_dead(self):
        q = GainQueue(4, 10, name="t")
        q.fill(np.array([1, 2, 3, 4]))
        assert q.pop() == (3, 4)
        v = np.array([0, 3])
        q.add(v, np.array([5, 10]) << q.shift)
        assert q.pop() == (0, 6)
        assert [q.pop()[0] for _ in range(3)] == [2, 1, -1]

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            GainQueue(1 << 20, 1 << 40, name="t")


def test_cut_within_two_percent_of_heap(monkeypatch):
    """The summed cut of recursive bisection stays within 2% of the lazy
    heap's.  The two differ only in ties (see the module docstring), so
    their cuts scatter around each other rather than drift apart."""
    graphs = [gen.weblike(600, avg_degree=30, seed=s) for s in range(3)]
    graphs += [gen.rgg2d(900, avg_degree=8, seed=s) for s in range(3)]

    def summed_cut():
        return sum(
            _kway_cut(g, initial_partition(g, 8, 0.03, np.random.default_rng(i)))
            for i, g in enumerate(graphs)
        )

    array_cut = summed_cut()
    monkeypatch.setattr(recursive, "fm2way_refine", fm2way_refine_heap)
    monkeypatch.setattr(
        recursive, "greedy_graph_growing_bipartition", greedy_graph_growing_heap
    )
    heap_cut = summed_cut()
    assert array_cut <= 1.02 * heap_cut


def _kway_cut(graph, part):
    src = np.repeat(np.arange(graph.n), graph.degrees)
    return int(np.asarray(graph.adjwgt)[part[src] != part[graph.adjncy]].sum()) // 2


def test_portfolio_scratch_is_per_vertex():
    """Scratch stays O(n) on a dense graph: at most 32 bytes per vertex.

    Live at the peak, per vertex: the best and the current bipartition
    (int32, 4 + 4), FM's queue keys and per-vertex steps (int64, 8 + 8),
    and the initial gains while they fill the queue (int64, 8).  Greedy
    growing holds less: its gains and keys (8 + 8) and closed flags (1).
    One int64 array over the directed edges would add >= 400 bytes per
    vertex here.
    """
    g = gen.weblike(1500, avg_degree=400, seed=2, locality=0.5)
    assert 2 * g.m / g.n >= 50  # g.m counts undirected edges
    total = g.total_vertex_weight
    tracker = MemoryTracker()
    gc.collect()
    install_ledger(tracker)
    try:
        bipartition_portfolio(
            g, total // 2, total // 2 + total // 40, total // 2 + total // 40,
            np.random.default_rng(0),
        )
    finally:
        uninstall_ledger()
    assert tracker.peak_bytes <= 32 * g.n
