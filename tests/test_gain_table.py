"""Tests for the three gain-table strategies (Section V)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import PartitionedGraph
from repro.core.refinement.gain_table import (
    FullGainTable,
    NoGainTable,
    SparseGainTable,
    entry_width_bits,
    make_gain_table,
)
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.memory import MemoryTracker


def make_pgraph(graph, k, seed=0):
    rng = np.random.default_rng(seed)
    part = rng.integers(0, k, size=graph.n).astype(np.int32)
    return PartitionedGraph(graph, k, part)


def brute_affinity(pgraph, u, block):
    g = pgraph.graph
    nbrs, wgts = g.neighbors_and_weights(u)
    mask = pgraph.partition[np.asarray(nbrs)] == block
    return int(np.asarray(wgts)[mask].sum())


KINDS = ["none", "full", "sparse"]


class TestEntryWidth:
    @pytest.mark.parametrize(
        "weight,bits",
        [(0, 8), (255, 8), (256, 16), (65535, 16), (65536, 32), (2**32, 64)],
    )
    def test_width_selection(self, weight, bits):
        assert entry_width_bits(weight) == bits


class TestCorrectness:
    @pytest.mark.parametrize("kind", KINDS)
    def test_affinity_matches_bruteforce(self, family_graph, kind):
        pg = make_pgraph(family_graph, 5)
        table = make_gain_table(kind, pg)
        for u in range(0, family_graph.n, max(1, family_graph.n // 40)):
            for b in range(5):
                assert table.affinity(u, b) == brute_affinity(pg, u, b), (
                    kind,
                    u,
                    b,
                )

    @pytest.mark.parametrize("kind", KINDS)
    def test_adjacent_blocks(self, grid_graph, kind):
        pg = make_pgraph(grid_graph, 4)
        table = make_gain_table(kind, pg)
        for u in range(0, grid_graph.n, 13):
            nbrs = grid_graph.neighbors(u)
            expected = set(np.unique(pg.partition[nbrs]).tolist())
            got = set(np.asarray(table.adjacent_blocks(u)).tolist())
            assert got == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_gains_definition(self, grid_graph, kind):
        """gain(u -> b) = w(u, b) - w(u, current block)."""
        pg = make_pgraph(grid_graph, 4)
        table = make_gain_table(kind, pg)
        for u in range(0, grid_graph.n, 17):
            cur = int(pg.partition[u])
            blocks, gains = table.gains(u)
            for b, g in zip(np.asarray(blocks).tolist(), np.asarray(gains).tolist()):
                assert g == brute_affinity(pg, u, b) - brute_affinity(pg, u, cur)

    @pytest.mark.parametrize("kind", ["full", "sparse"])
    def test_stays_correct_after_moves(self, family_graph, kind):
        pg = make_pgraph(family_graph, 6, seed=1)
        table = make_gain_table(kind, pg)
        rng = np.random.default_rng(2)
        for _ in range(60):
            u = int(rng.integers(0, family_graph.n))
            dst = int(rng.integers(0, 6))
            src = int(pg.partition[u])
            if src == dst:
                continue
            pg.move(u, dst)
            table.apply_move(u, src, dst)
        for u in range(0, family_graph.n, max(1, family_graph.n // 30)):
            for b in range(6):
                assert table.affinity(u, b) == brute_affinity(pg, u, b)

    def test_weighted_graph(self, text_graph):
        pg = make_pgraph(text_graph, 3, seed=3)
        sparse = SparseGainTable(pg)
        full = FullGainTable(pg)
        for u in range(0, text_graph.n, 11):
            for b in range(3):
                assert sparse.affinity(u, b) == full.affinity(u, b)


class TestSparseInternals:
    def test_high_degree_vertices_get_dense_rows(self):
        g = gen.star(200)
        pg = make_pgraph(g, 8, seed=4)
        table = SparseGainTable(pg)
        assert table._dense[0]  # hub: degree 199 >= k=8
        assert not table._dense[1]  # leaf: degree 1 < k

    def test_deletion_closes_probe_gaps(self):
        """After an affinity drops to zero, other keys stay findable."""
        g = gen.complete(6)
        pg = PartitionedGraph(
            g, 6, np.arange(6, dtype=np.int32)
        )  # every vertex its own block
        table = SparseGainTable(pg)
        # move vertex 1 into block 0: vertex 2's affinity to block 1 -> 0
        pg.move(1, 0)
        table.apply_move(1, 1, 0)
        for u in range(2, 6):
            assert table.affinity(u, 1) == 0
            assert table.affinity(u, 0) == 2  # vertices 0 and 1 both there
            got = set(np.asarray(table.adjacent_blocks(u)).tolist())
            expected = set(np.unique(pg.partition[g.neighbors(u)]).tolist())
            assert got == expected

    def test_memory_o_m_vs_o_nk(self):
        """The headline: sparse ~ O(m), full = O(nk) (5.8x on big graphs)."""
        g = gen.rgg2d(2000, avg_degree=8, seed=5)
        k = 128
        pg = make_pgraph(g, k, seed=5)
        sparse = SparseGainTable(pg)
        full = FullGainTable(pg)
        assert sparse.nbytes < full.nbytes / 5

    def test_variable_width_reduces_footprint(self):
        g = gen.grid2d(30, 30)  # unit weights: U < 256 -> 8-bit entries
        pg = make_pgraph(g, 4, seed=6)
        table = SparseGainTable(pg)
        # all widths should be 8 bits
        assert int(table._width_bits.max()) == 8

    def test_tracker_charging(self, grid_graph):
        tracker = MemoryTracker()
        pg = make_pgraph(grid_graph, 4)
        table = SparseGainTable(pg, tracker)
        assert tracker.current_bytes == table.nbytes
        table.free(tracker)
        assert tracker.current_bytes == 0

    def test_negative_affinity_rejected(self):
        g = gen.path(4)
        pg = PartitionedGraph(g, 2, np.array([0, 0, 1, 1], dtype=np.int32))
        table = SparseGainTable(pg)
        with pytest.raises(AssertionError):
            table._insert_add(0, 0, -100)


class TestNoGainTable:
    def test_counts_recompute_work(self, grid_graph):
        pg = make_pgraph(grid_graph, 4)
        table = NoGainTable(pg)
        table.gains(10)
        table.affinity(10, 0)
        assert table.recompute_edges > 0

    def test_zero_memory(self, grid_graph):
        pg = make_pgraph(grid_graph, 4)
        assert NoGainTable(pg).nbytes == 0


class TestFactory:
    def test_factory_dispatch(self, grid_graph):
        pg = make_pgraph(grid_graph, 2)
        from repro.core.config import GainTableKind

        assert isinstance(make_gain_table(GainTableKind.NONE, pg), NoGainTable)
        assert isinstance(make_gain_table(GainTableKind.FULL, pg), FullGainTable)
        assert isinstance(make_gain_table(GainTableKind.SPARSE, pg), SparseGainTable)

    def test_unknown_kind(self, grid_graph):
        pg = make_pgraph(grid_graph, 2)
        with pytest.raises(KeyError):
            make_gain_table("magic", pg)


class TestPropertyEquivalence:
    @given(
        seed=st.integers(0, 10**6),
        k=st.integers(2, 12),
        moves=st.integers(0, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_sparse_equals_full_under_random_moves(self, seed, k, moves):
        rng = np.random.default_rng(seed)
        g = gen.er(60, 6.0, seed=seed % 100)
        pg_s = make_pgraph(g, k, seed=seed)
        pg_f = PartitionedGraph(g, k, pg_s.partition.copy())
        sparse = SparseGainTable(pg_s)
        full = FullGainTable(pg_f)
        for _ in range(moves):
            u = int(rng.integers(0, g.n))
            dst = int(rng.integers(0, k))
            src = int(pg_s.partition[u])
            if src == dst:
                continue
            pg_s.move(u, dst)
            sparse.apply_move(u, src, dst)
            pg_f.move(u, dst)
            full.apply_move(u, src, dst)
        for u in range(g.n):
            for b in range(k):
                assert sparse.affinity(u, b) == full.affinity(u, b)


def _graph_variants():
    """Skewed unit-weight and weighted graphs, each as CSR and compressed."""
    from repro.graph.compressed import compress_graph

    out = {}
    for name, g in (
        ("web", gen.weblike(500, avg_degree=10, seed=7)),
        ("text", gen.textlike(300, seed=19)),
    ):
        out[f"{name}-csr"] = g
        out[f"{name}-compressed"] = compress_graph(g)
    return out


GRAPHS = _graph_variants()


def _random_moves(pgraph, count, seed):
    """``count`` random ``(u, src, dst)`` moves with ``src != dst``."""
    rng = np.random.default_rng(seed)
    part = pgraph.partition.copy()
    moves = []
    while len(moves) < count:
        u = int(rng.integers(0, pgraph.graph.n))
        dst = int(rng.integers(0, pgraph.k))
        if dst != part[u]:
            moves.append((u, int(part[u]), dst))
            part[u] = dst
    return moves


def check_exact(table, pgraph):
    for u in range(pgraph.graph.n):
        for b in range(pgraph.k):
            assert table.affinity(u, b) == brute_affinity(pgraph, u, b)


class TestBatchedApplyMove:
    """The bulk ``apply_move`` must replay the scalar ``_insert_add`` loop
    slot for slot: same keys, values and lock acquisitions."""

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("k", [6, 8])
    def test_slot_layout_matches_scalar(self, name, k):
        g = GRAPHS[name]
        pg_bulk = make_pgraph(g, k, seed=k)
        pg_scalar = PartitionedGraph(g, k, pg_bulk.partition.copy())
        bulk = SparseGainTable(pg_bulk, bulk=True)
        scalar = SparseGainTable(pg_scalar, bulk=False)
        assert bulk._dense.any() and not bulk._dense.all()
        deletes = shifts = 0
        delete_slot = bulk._delete_slot

        def counting_delete(u, slot):
            nonlocal deletes, shifts
            lo, hi = bulk._range(u)
            before = bulk._keys[lo:hi].copy()
            delete_slot(u, slot)
            before[slot - lo] = SparseGainTable.EMPTY
            deletes += 1
            shifts += int(not np.array_equal(before, bulk._keys[lo:hi]))

        bulk._delete_slot = counting_delete
        for i, (u, src, dst) in enumerate(_random_moves(pg_bulk, 300, seed=k)):
            for pg, table in ((pg_bulk, bulk), (pg_scalar, scalar)):
                pg.move(u, dst)
                table.apply_move(u, src, dst)
            if i % 50 == 0:
                assert np.array_equal(bulk._keys, scalar._keys)
                assert np.array_equal(bulk._vals, scalar._vals)
        assert np.array_equal(bulk._keys, scalar._keys)
        assert np.array_equal(bulk._vals, scalar._vals)
        assert bulk.lock_acquisitions == scalar.lock_acquisitions
        assert deletes > 0 and shifts > 0
        check_exact(bulk, pg_bulk)

    def test_missing_key_rejected(self):
        g = gen.path(4)
        pg = PartitionedGraph(g, 3, np.array([0, 0, 1, 1], dtype=np.int32))
        table = SparseGainTable(pg, bulk=True)
        # vertex 1's neighbours hold no affinity to block 2
        with pytest.raises(AssertionError, match="negative affinity"):
            table.apply_move(1, 2, 0)

    def test_negative_affinity_rejected(self):
        g = from_edges(3, np.array([[0, 1], [1, 2]]), np.array([1, 5]))
        pg = PartitionedGraph(g, 3, np.array([0, 1, 2], dtype=np.int32))
        table = SparseGainTable(pg, bulk=True)
        # taking 5 from vertex 0's affinity of 1 to block 1
        with pytest.raises(AssertionError, match="negative affinity"):
            table._apply_move_bulk(np.array([0]), np.array([5]), 1, 2)


class TestBoundaryVertices:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_partition_after_moves(self, name, kind):
        g = GRAPHS[name]
        pg = make_pgraph(g, 6, seed=8)
        table = make_gain_table(kind, pg)
        assert np.array_equal(table.boundary_vertices(), pg.boundary_vertices())
        for u, src, dst in _random_moves(pg, 200, seed=9):
            pg.move(u, dst)
            table.apply_move(u, src, dst)
        got = table.boundary_vertices()
        assert got.dtype == np.int64
        assert np.array_equal(got, pg.boundary_vertices())

    @pytest.mark.parametrize("kind", KINDS)
    def test_interior_vertices_excluded(self, kind):
        g = gen.path(6)
        pg = PartitionedGraph(g, 2, np.array([0, 0, 0, 1, 1, 1], dtype=np.int32))
        table = make_gain_table(kind, pg)
        assert table.boundary_vertices().tolist() == [2, 3]


class TestNoPerVertexDecode:
    """Building a table decodes the compressed graph in bulk, never one
    neighbourhood at a time, and FM builds one table per call."""

    @pytest.fixture
    def decode_count(self, monkeypatch):
        from repro.graph.compressed import CompressedGraph

        calls = [0]
        decode = CompressedGraph._decode

        def counting(self, u):
            calls[0] += 1
            return decode(self, u)

        monkeypatch.setattr(CompressedGraph, "_decode", counting)
        return calls

    @pytest.mark.parametrize("kind", ["full", "sparse"])
    @pytest.mark.parametrize("bulk", [True, False])
    def test_build_makes_no_per_vertex_decode(self, decode_count, kind, bulk):
        g = GRAPHS["web-compressed"]
        pg = make_pgraph(g, 8, seed=1)
        make_gain_table(kind, pg, bulk=bulk)
        assert decode_count[0] == 0

    @pytest.mark.parametrize("localized", [False, True])
    def test_fm_builds_one_table_per_call(self, monkeypatch, localized):
        import importlib

        from repro.core.config import FMConfig, terapart
        from repro.core.context import PartitionContext
        from repro.core.partition import max_block_weight

        # the package re-exports the fm_refine function under its module name
        fm_refine = importlib.import_module("repro.core.refinement.fm_refine")
        fm_localized = importlib.import_module(
            "repro.core.refinement.fm_localized"
        )

        built = [0]
        passes = [0]

        def counting_make(*args, **kwargs):
            built[0] += 1
            return make_gain_table(*args, **kwargs)

        module = fm_localized if localized else fm_refine
        inner_name = "_localized_pass" if localized else "_fm_pass"
        inner = getattr(module, inner_name)

        def counting_pass(*args, **kwargs):
            passes[0] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(fm_refine, "make_gain_table", counting_make)
        monkeypatch.setattr(module, inner_name, counting_pass)
        g = GRAPHS["web-compressed"]
        pg = make_pgraph(g, 4, seed=2)
        ctx = PartitionContext(
            config=terapart(seed=0),
            k=4,
            total_vertex_weight=g.total_vertex_weight,
            tracker=MemoryTracker(),
        )
        lmax = max_block_weight(g.total_vertex_weight, 4, 0.5)
        run = (
            fm_localized.fm_refine_localized
            if localized
            else fm_refine.fm_refine
        )
        run(pg, ctx, lmax, FMConfig(max_rounds=3))
        assert passes[0] > 1
        assert built[0] == 1
        assert ctx.tracker.current_bytes == 0
