"""Localized k-way FM refinement with pluggable gain tables (Section V).

Structure follows shared-memory parallel localized FM [4], [15]: searches
are seeded from boundary vertices, a priority queue orders candidate moves
by gain, moves respect the balance constraint, and each pass keeps the best
prefix of its move sequence (rollback of the unprofitable tail).  Gains are
served by one of the three gain-table strategies of
:mod:`repro.core.refinement.gain_table`, which is the memory/time trade-off
Figure 7 measures.

One table serves a whole refinement call and also supplies each pass's
boundary seeds.  On the bulk path a vertex set is scored in one batch
(:func:`_best_moves`): every seed of a pass, and the unlocked neighbours
of every moved vertex.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.config import FMConfig
from repro.core.context import PartitionContext
from repro.core.kernels import segment_best_last
from repro.core.partition import PartitionedGraph
from repro.core.refinement.gain_table import make_gain_table
from repro.memory.scratch import tracked_zeros


def _best_move(table, pgraph: PartitionedGraph, u: int, max_block_weight: int):
    """Highest-gain feasible move for ``u``; returns (gain, target) or None."""
    blocks, gains = table.gains(u)
    if len(blocks) == 0:
        return None
    cur = int(pgraph.partition[u])
    w = int(pgraph.graph.vwgt[u])
    best = None
    for b, g in zip(blocks.tolist(), gains.tolist()):
        if b == cur:
            continue
        if pgraph.block_weights[b] + w > max_block_weight:
            continue
        if best is None or g > best[0]:
            best = (int(g), int(b))
    return best


def _best_moves(
    table, pgraph: PartitionedGraph, us: np.ndarray, max_block_weight: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched :func:`_best_move` over ``us``.

    Returns ``(vertex, gain, target)`` for every vertex of ``us`` with a
    feasible move, in ``us`` order.
    """
    po, pb, pg = table.gains_many(us)
    cur = pgraph.partition[us].astype(np.int64)
    w = np.asarray(pgraph.graph.vwgt)[us]
    feasible = (pb != cur[po]) & (
        pgraph.block_weights[pb] + w[po] <= max_block_weight
    )
    po, pb, pg = po[feasible], pb[feasible], pg[feasible]
    # max gain, then smallest block -- _best_move's strict-> scan order
    best = segment_best_last(po, pg, tiebreak=-pb)
    return us[po[best]], pg[best], pb[best]


def _push_best_moves(
    heap: list,
    counter: int,
    table,
    pgraph: PartitionedGraph,
    us: np.ndarray,
    max_block_weight: int,
) -> int:
    """Push the best move of every vertex of ``us``, in ``us`` order.

    Same entries and counters as one :func:`_best_move` push per vertex;
    returns the next counter.
    """
    if len(us) == 0:
        return counter
    vs, gains, targets = _best_moves(table, pgraph, us, max_block_weight)
    for v, gn, b in zip(vs.tolist(), gains.tolist(), targets.tolist()):
        heapq.heappush(heap, (-gn, counter, v, b))
        counter += 1
    return counter


def _open_gain_table(cfg: FMConfig, pgraph: PartitionedGraph, ctx: PartitionContext):
    """Build the refinement call's gain table (one per call; the caller
    frees it)."""
    tracer = ctx.tracer
    with tracer.span("gain-table-build"):
        table = make_gain_table(
            cfg.gain_table,
            pgraph,
            ctx.tracker,
            bulk=ctx.config.use_bulk_kernels,
        )
    if tracer.enabled:
        tracer.add("gain_table.bytes", table.nbytes)
        mix = getattr(table, "width_mix", None)
        if mix is not None:
            for bits, count in mix().items():
                tracer.add(f"gain_table.width{bits}_rows", count)
    return table


def fm_refine(
    pgraph: PartitionedGraph,
    ctx: PartitionContext,
    max_block_weight: int,
    fm_config: FMConfig | None = None,
) -> int:
    """Run FM rounds; returns the total cut improvement achieved.

    One gain table serves every round: moves and rollbacks keep it exact.
    """
    cfg = fm_config or ctx.config.fm
    runtime = ctx.runtime
    total_improvement = 0
    table = _open_gain_table(cfg, pgraph, ctx)
    try:
        for _ in range(cfg.max_rounds):
            recompute_before = getattr(table, "recompute_edges", 0)
            improvement = _fm_pass(pgraph, ctx, table, max_block_weight, cfg)
            if ctx.config.debug.validation_level >= 2:
                # after a pass (moves + rollback) the incrementally
                # maintained table must still match a recompute
                from repro.verify.invariants import check_gain_table_vs_recompute

                check_gain_table_vs_recompute(
                    table, pgraph, sample=64, phase="fm-gain-table"
                )
            recompute = getattr(table, "recompute_edges", 0) - recompute_before
            runtime.record(
                "fm-refinement",
                work=float(pgraph.graph.num_directed_edges + 4 * recompute),
                bytes_moved=float(
                    16 * (pgraph.graph.num_directed_edges + 4 * recompute)
                ),
            )
            total_improvement += improvement
            if improvement == 0:
                break
    finally:
        table.free(ctx.tracker)
    return total_improvement


def _fm_pass(
    pgraph: PartitionedGraph,
    ctx: PartitionContext,
    table,
    max_block_weight: int,
    cfg: FMConfig,
) -> int:
    seeds = (
        table.boundary_vertices()
        if cfg.boundary_only
        else np.arange(pgraph.graph.n, dtype=np.int64)
    )
    if len(seeds) == 0:
        return 0
    bulk = ctx.config.use_bulk_kernels
    in_moves: list[tuple[int, int, int]] = []  # (u, src, dst)
    locked = tracked_zeros(pgraph.graph.n, bool, name="fm-locked")

    if bulk:
        # score every seed in one batched pass; the (-gain, counter) keys
        # are unique, so one heapify pops in the scalar loop's order
        vs, gains, targets = _best_moves(table, pgraph, seeds, max_block_weight)
        heap = [
            (-gn, c, v, b)
            for c, (v, gn, b) in enumerate(
                zip(vs.tolist(), gains.tolist(), targets.tolist())
            )
        ]
        heapq.heapify(heap)
        counter = len(heap)
    else:
        heap = []  # (-gain, tiebreak, u, target)
        counter = 0
        for u in seeds.tolist():
            mv = _best_move(table, pgraph, int(u), max_block_weight)
            if mv is not None:
                heapq.heappush(heap, (-mv[0], counter, int(u), mv[1]))
                counter += 1

    cumulative = 0
    best_cumulative = 0
    best_prefix = 0
    fruitless = 0

    while heap and fruitless < cfg.max_fruitless_moves:
        neg_g, _, u, target = heapq.heappop(heap)
        if locked[u]:
            continue
        mv = _best_move(table, pgraph, u, max_block_weight)
        if mv is None:
            continue
        gain, target = mv
        if gain != -neg_g:
            heapq.heappush(heap, (-gain, counter, u, target))
            counter += 1
            continue
        src = int(pgraph.partition[u])
        # stop descending into deeply negative territory
        if gain < 0 and cumulative + gain < best_cumulative - _abort_slack(pgraph):
            break
        locked[u] = True
        pgraph.move(u, target)
        table.apply_move(u, src, target)
        cumulative += gain
        in_moves.append((u, src, target))
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(in_moves)
            fruitless = 0
        else:
            fruitless += 1
        # requeue affected neighbors
        nbrs = np.asarray(pgraph.graph.neighbors(u))
        if bulk:
            counter = _push_best_moves(
                heap, counter, table, pgraph, nbrs[~locked[nbrs]], max_block_weight
            )
        else:
            for v in nbrs.tolist():
                if locked[v]:
                    continue
                mv = _best_move(table, pgraph, int(v), max_block_weight)
                if mv is not None:
                    heapq.heappush(heap, (-mv[0], counter, int(v), mv[1]))
                    counter += 1

    # rollback tail
    for u, src, dst in reversed(in_moves[best_prefix:]):
        pgraph.move(u, src)
        table.apply_move(u, dst, src)
    tracer = ctx.tracer
    tracer.add("fm.moves", best_prefix)
    tracer.add("fm.rollback_moves", len(in_moves) - best_prefix)
    tracer.add("fm.improvement", best_cumulative)
    return best_cumulative


def _abort_slack(pgraph: PartitionedGraph) -> int:
    """Allowance for temporarily-negative move chains (hill climbing).

    Ten average-weight edges' worth of slack: enough for FM to cross small
    ridges without chasing hopeless descents.
    """
    g = pgraph.graph
    avg_edge_weight = g.total_edge_weight // max(1, g.num_directed_edges)
    return 10 * max(1, int(avg_edge_weight))
