"""Edge-case and property tests for the bulk numpy kernels.

Each kernel in :mod:`repro.core.kernels` (plus the bulk varint encoder
and the bulk graph compressor it enables) is checked against the scalar
reference it replaces, with emphasis on the cases the issue calls out:
empty chunks, isolated vertices, single-cluster graphs, max-degree
vertices whose neighborhoods cross chunk boundaries, and integer-width
overflow guards.
"""

import numpy as np
import pytest

import repro
from repro.core.config import preset
from repro.core.kernels import (
    aggregate_coarse_edges,
    batch_hash_insert,
    bulk_size_constrained_commit,
    entry_width_bits_bulk,
    gather_cluster_members,
    segment_best_last,
    two_way_cut,
    two_way_gains,
)
from repro.core.partition import PartitionedGraph
from repro.core.refinement.gain_table import (
    SparseGainTable,
    entry_width_bits,
    make_gain_table,
)
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph
from repro.graph.varint import (
    encode_signed_varint,
    encode_stream,
    encode_stream_bulk,
    varint_len,
    varint_lengths,
    zigzag_encode,
)

from initial_oracle import cut2way_scalar, gains_scalar


def make_pgraph(graph, k, seed=0):
    rng = np.random.default_rng(seed)
    part = rng.integers(0, k, size=graph.n).astype(np.int32)
    return PartitionedGraph(graph, k, part)


# --------------------------------------------------------------------- #
# segment_best_last
# --------------------------------------------------------------------- #
def brute_best(owner, rank, tiebreak=None):
    """Reference: per owner, maximize (rank, tiebreak, position)."""
    out = []
    for o in np.unique(owner):
        idx = np.flatnonzero(owner == o).tolist()
        out.append(
            max(
                idx,
                key=lambda i: (
                    int(rank[i]),
                    int(tiebreak[i]) if tiebreak is not None else 0,
                    i,
                ),
            )
        )
    return np.array(out, dtype=np.int64)


class TestSegmentBestLast:
    def test_empty(self):
        assert len(segment_best_last(np.empty(0, np.int64), np.empty(0))) == 0

    def test_single_segment_tie_keeps_latest(self):
        owner = np.zeros(5, dtype=np.int64)
        rank = np.array([3, 7, 7, 2, 7])
        assert segment_best_last(owner, rank).tolist() == [4]

    def test_tiebreak_beats_position(self):
        owner = np.zeros(3, dtype=np.int64)
        rank = np.array([5, 5, 5])
        tb = np.array([1, 9, 0])
        assert segment_best_last(owner, rank, tiebreak=tb).tolist() == [1]

    @pytest.mark.parametrize("with_tb", [False, True])
    def test_random_vs_bruteforce(self, with_tb):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, 60))
            owner = np.sort(rng.integers(0, 8, size=m))
            rank = rng.integers(-5, 5, size=m)
            tb = rng.integers(-3, 3, size=m) if with_tb else None
            got = segment_best_last(owner, rank, tiebreak=tb)
            assert np.array_equal(got, brute_best(owner, rank, tb)), seed

    def test_unsorted_owner_rejected(self):
        with pytest.raises(AssertionError):
            segment_best_last(np.array([5, 0]), np.array([1, 2]))


# --------------------------------------------------------------------- #
# bulk_size_constrained_commit
# --------------------------------------------------------------------- #
def scalar_commit(targets, prevs, weights, capacities, limits):
    per_bucket = isinstance(limits, np.ndarray)
    acc = np.ones(len(targets), dtype=bool)
    for i in range(len(targets)):
        t, w = int(targets[i]), int(weights[i])
        lim = int(limits[t]) if per_bucket else limits
        if capacities[t] + w > lim:
            acc[i] = False
            continue
        capacities[int(prevs[i])] -= w
        capacities[t] += w
    return acc


class TestBulkCommit:
    def test_empty(self):
        caps = np.array([3, 4], dtype=np.int64)
        e = np.empty(0, dtype=np.int64)
        acc = bulk_size_constrained_commit(e, e, e, caps, 10)
        assert len(acc) == 0 and caps.tolist() == [3, 4]

    def test_oversubscribed_bucket_replays_in_order(self):
        # bucket 0 can take exactly one more unit: only the first candidate
        # lands, exactly like the sequential scan
        targets = np.array([0, 0, 0], dtype=np.int64)
        prevs = np.array([1, 1, 1], dtype=np.int64)
        weights = np.array([1, 1, 1], dtype=np.int64)
        caps = np.array([9, 3], dtype=np.int64)
        acc = bulk_size_constrained_commit(targets, prevs, weights, caps, 10)
        assert acc.tolist() == [True, False, False]
        assert caps.tolist() == [10, 2]

    @pytest.mark.parametrize("per_bucket", [False, True])
    def test_random_vs_scalar(self, per_bucket):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            nb = int(rng.integers(2, 10))
            m = int(rng.integers(0, 40))
            # movers unique: each vertex moves at most once per commit
            targets = rng.integers(0, nb, size=m)
            prevs = rng.integers(0, nb, size=m)
            weights = rng.integers(1, 6, size=m)
            caps = rng.integers(0, 20, size=nb)
            if per_bucket:
                limits = rng.integers(5, 30, size=nb)
            else:
                limits = int(rng.integers(5, 30))
            caps_a, caps_b = caps.copy(), caps.copy()
            got = bulk_size_constrained_commit(
                targets, prevs, weights, caps_a, limits
            )
            want = scalar_commit(targets, prevs, weights, caps_b, limits)
            assert np.array_equal(got, want), seed
            assert np.array_equal(caps_a, caps_b), seed


# --------------------------------------------------------------------- #
# contraction kernels
# --------------------------------------------------------------------- #
class TestContractionKernels:
    def test_gather_empty_chunk(self):
        e = np.empty(0, dtype=np.int64)
        members, owner = gather_cluster_members(e, e, e, e)
        assert len(members) == 0 and len(owner) == 0

    def test_gather_flattens_member_lists(self):
        # member_order grouped by cluster: cluster A = {4, 2}, B = {7}
        member_order = np.array([4, 2, 7], dtype=np.int64)
        starts = np.array([0, 2], dtype=np.int64)
        ends = np.array([2, 3], dtype=np.int64)
        members, owner = gather_cluster_members(
            member_order, starts, ends, np.array([1, 0], dtype=np.int64)
        )
        assert members.tolist() == [7, 4, 2]
        assert owner.tolist() == [0, 1, 1]

    def test_aggregate_empty_chunk(self):
        e = np.empty(0, dtype=np.int64)
        po, pc, pw, off = aggregate_coarse_edges(e, e, e, e, 10, 3)
        assert len(po) == 0 and off.tolist() == [0, 0, 0]

    def test_aggregate_single_cluster_drops_everything(self):
        # every neighbor resolves to the owner's own leader -> no coarse edges
        owner = np.zeros(4, dtype=np.int64)
        targets = np.full(4, 5, dtype=np.int64)
        weights = np.ones(4, dtype=np.int64)
        leaders = np.array([5], dtype=np.int64)
        po, pc, pw, off = aggregate_coarse_edges(
            owner, targets, weights, leaders, 6, 1
        )
        assert len(po) == 0 and off.tolist() == [0]

    def test_aggregate_merges_parallel_edges(self):
        owner = np.array([0, 0, 0, 1], dtype=np.int64)
        targets = np.array([3, 3, 2, 2], dtype=np.int64)
        weights = np.array([1, 4, 2, 7], dtype=np.int64)
        leaders = np.array([2, 3], dtype=np.int64)
        po, pc, pw, off = aggregate_coarse_edges(
            owner, targets, weights, leaders, 4, 2
        )
        # owner 0 keeps 3 (5 merged) and drops own leader 2's... no: owner 0's
        # leader is 2, so the (0 -> 2) edge drops; owner 1's leader is 3.
        assert po.tolist() == [0, 1]
        assert pc.tolist() == [3, 2]
        assert pw.tolist() == [5, 7]
        assert off.tolist() == [0, 1]


# --------------------------------------------------------------------- #
# two-way FM kernels
# --------------------------------------------------------------------- #
class TestTwoWayKernels:
    @pytest.fixture(scope="class")
    def graph(self):
        return gen.weblike(200, avg_degree=6, seed=3)

    def test_gains_and_cut_match_scalar_csr(self, graph):
        rng = np.random.default_rng(0)
        part = rng.integers(0, 2, size=graph.n).astype(np.int32)
        assert np.array_equal(two_way_gains(graph, part), gains_scalar(graph, part))
        assert two_way_cut(graph, part) == cut2way_scalar(graph, part)

    def test_gains_and_cut_match_scalar_compressed(self, graph):
        cg = compress_graph(graph)
        rng = np.random.default_rng(1)
        part = rng.integers(0, 2, size=graph.n).astype(np.int32)
        assert np.array_equal(two_way_gains(cg, part), gains_scalar(graph, part))
        assert two_way_cut(cg, part) == cut2way_scalar(graph, part)

    def test_isolated_vertices_gain_zero(self):
        g = from_edges(5, np.array([[0, 1]]))  # vertices 2..4 isolated
        part = np.array([0, 1, 0, 1, 0], dtype=np.int32)
        gains = two_way_gains(g, part)
        assert gains.tolist() == [1, 1, 0, 0, 0]
        assert two_way_cut(g, part) == 1

    def test_edgeless_graph(self):
        g = from_edges(3, np.empty((0, 2), dtype=np.int64))
        part = np.zeros(3, dtype=np.int32)
        assert two_way_gains(g, part).tolist() == [0, 0, 0]
        assert two_way_cut(g, part) == 0


# --------------------------------------------------------------------- #
# gain-table kernels
# --------------------------------------------------------------------- #
class TestGainTableKernels:
    @pytest.fixture(scope="class")
    def pg(self):
        return make_pgraph(gen.weblike(250, avg_degree=7, seed=5), 6)

    def test_entry_width_bulk_matches_scalar(self):
        vals = np.array([0, 1, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**40])
        got = entry_width_bits_bulk(vals)
        want = [entry_width_bits(int(v)) for v in vals]
        assert got.tolist() == want

    def test_sparse_build_bit_identical(self, pg):
        bulk = SparseGainTable(pg, bulk=True)
        ref = SparseGainTable(pg, bulk=False)
        assert np.array_equal(bulk._keys, ref._keys)
        assert np.array_equal(bulk._vals, ref._vals)
        assert np.array_equal(bulk._offsets, ref._offsets)

    @pytest.mark.parametrize("kind", ["none", "full", "sparse"])
    def test_gains_many_matches_per_vertex(self, pg, kind):
        table = make_gain_table(kind, pg)
        us = np.arange(0, pg.graph.n, 3, dtype=np.int64)
        o, b, g = table.gains_many(us)
        for i, u in enumerate(us.tolist()):
            sel = o == i
            blocks, gains = table.gains(int(u))
            assert np.array_equal(b[sel], blocks), (kind, u)
            assert np.array_equal(g[sel], gains), (kind, u)

    def test_sparse_affinities_matches_affinity(self, pg):
        table = SparseGainTable(pg)
        rng = np.random.default_rng(2)
        us = rng.integers(0, pg.graph.n, size=200)
        blocks = rng.integers(0, pg.k, size=200)
        got = table.affinities(us, blocks)
        want = [table.affinity(int(u), int(b)) for u, b in zip(us, blocks)]
        assert got.tolist() == want

    def test_gains_many_empty_chunk(self, pg):
        table = SparseGainTable(pg)
        o, b, g = table.gains_many(np.empty(0, dtype=np.int64))
        assert len(o) == 0 and len(b) == 0 and len(g) == 0

    def test_hash_insert_block_overflow_guard(self):
        # block IDs are stored int32; wider IDs must trip the guard
        keys = np.full(8, -1, dtype=np.int32)
        vals = np.zeros(8, dtype=np.int64)
        with pytest.raises(AssertionError):
            batch_hash_insert(
                keys,
                vals,
                np.array([0], dtype=np.int64),
                np.array([8], dtype=np.int64),
                np.array([2**40], dtype=np.int64),
                np.array([1], dtype=np.int64),
            )


# --------------------------------------------------------------------- #
# bulk varint encoding
# --------------------------------------------------------------------- #
class TestVarintBulk:
    def test_lengths_match_scalar_at_boundaries(self):
        vals = []
        for k in range(1, 9):
            vals += [(1 << (7 * k)) - 1, 1 << (7 * k)]
        vals.append(2**63 - 1)
        arr = np.array(vals, dtype=np.int64)
        assert varint_lengths(arr).tolist() == [varint_len(int(v)) for v in vals]

    def test_lengths_reject_negative(self):
        with pytest.raises(ValueError):
            varint_lengths(np.array([3, -1]))

    def test_zigzag_matches_signed_encoder(self):
        vals = np.array([0, 1, -1, 63, -64, 2**40, -(2**40)])
        for v, zz in zip(vals.tolist(), zigzag_encode(vals).tolist()):
            ref = bytearray()
            encode_signed_varint(int(v), ref)
            out = bytearray()
            out_len = encode_stream(np.array([zz]), out)
            assert bytes(out) == bytes(ref), v
            assert out_len == len(ref)

    def test_stream_bulk_matches_scalar(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            vals = rng.integers(0, 2**60, size=int(rng.integers(0, 50)))
            ref = bytearray()
            encode_stream(vals, ref)
            assert encode_stream_bulk(vals).tobytes() == bytes(ref), seed

    def test_stream_bulk_empty(self):
        assert encode_stream_bulk(np.empty(0, dtype=np.int64)).tobytes() == b""


# --------------------------------------------------------------------- #
# bulk graph compression
# --------------------------------------------------------------------- #
def _graph_cases():
    rng = np.random.default_rng(9)
    e = 400
    edges = rng.integers(0, 120, size=(e, 2))
    weighted = from_edges(120, edges, rng.integers(1, 1000, size=e))
    return [
        ("grid", gen.grid2d(15, 15), {}),
        ("web", gen.weblike(300, avg_degree=8, seed=1), {}),
        ("weighted", weighted, {}),
        ("no-intervals", gen.grid2d(12, 12), {"enable_intervals": False}),
        (
            "star-chunked",
            gen.star(500),
            {"high_degree_threshold": 100, "chunk_length": 64},
        ),
        ("edgeless", from_edges(6, np.empty((0, 2), dtype=np.int64)), {}),
        ("isolated", from_edges(8, np.array([[0, 1], [1, 2]])), {}),
    ]


class TestBulkCompression:
    @pytest.mark.parametrize(
        "name,graph,kw", _graph_cases(), ids=[c[0] for c in _graph_cases()]
    )
    def test_byte_identical_to_scalar(self, name, graph, kw):
        a = compress_graph(graph, bulk=True, **kw)
        b = compress_graph(graph, bulk=False, **kw)
        assert bytes(a.data) == bytes(b.data), name
        assert np.array_equal(a.offsets, b.offsets), name
        assert a.stats == b.stats, name


# --------------------------------------------------------------------- #
# chunked metric fallbacks + pipeline edge graphs
# --------------------------------------------------------------------- #
class TestMetricFallbacks:
    def test_compressed_metrics_match_csr(self):
        # star forces the chunked high-degree representation, so the
        # max-degree neighborhood spans many decode chunks
        for graph in (gen.star(5000), gen.weblike(300, avg_degree=8, seed=2)):
            cg = compress_graph(
                graph, high_degree_threshold=100, chunk_length=64
            )
            rng = np.random.default_rng(4)
            part = rng.integers(0, 3, size=graph.n).astype(np.int32)
            a = PartitionedGraph(graph, 3, part.copy())
            b = PartitionedGraph(cg, 3, part.copy())
            assert a.cut_weight() == b.cut_weight()
            assert np.array_equal(
                np.sort(a.boundary_vertices()), np.sort(b.boundary_vertices())
            )


class TestPipelineEdgeGraphs:
    @pytest.mark.parametrize(
        "graph",
        [
            gen.complete(24),  # LP collapses toward a single cluster
            from_edges(40, np.array([[0, 1], [1, 2], [2, 3]])),  # mostly isolated
            gen.star(120),  # one max-degree hub
        ],
        ids=["complete", "isolated", "star"],
    )
    def test_bulk_matches_scalar_end_to_end(self, graph):
        for seed in range(2):
            runs = []
            for bulk in (True, False):
                cfg = preset(
                    "terapart", seed=seed, p=4, use_bulk_kernels=bulk
                )
                runs.append(repro.partition(graph, 2, cfg))
            a, b = runs
            assert np.array_equal(a.partition, b.partition)
            assert a.cut == b.cut
            a.pgraph.validate()
