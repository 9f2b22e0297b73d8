"""Outside-in per-layer trace of one partition call.

Each layer's public function is replaced, at the module attribute its caller
looks it up from, by a wrapper that records a span; the originals are put back
when the trace ends.  A span's self time is its duration minus the durations
of the wrapped spans it caused.  The partition call itself is the root span,
so the root's self time is the part of the call no wrapped layer covers.

``LAYERS`` also records, per layer, which end-to-end metric a change to the
layer should move and on which workload, including where no change is the
prediction.  Performance changes cite these rows by layer name.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from bench import Setup, reset_rss_peak, rss_peak


# unit and better direction of each metric suffix
SUFFIXES = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "rss_peak_bytes": ("bytes", "lower"),
    "ratio": ("ratio", "higher"),
    "edges": ("count", "lower"),
    "ns_per_edge": ("ns", "lower"),
    "moves": ("count", "lower"),
    "shrink": ("ratio", "higher"),
    "edge_shrink": ("ratio", "higher"),
    "levels": ("count", "lower"),
    "two_hop.calls": ("count", "lower"),
    "coarsest_n": ("count", "lower"),
    "bisections": ("count", "lower"),
    "attempts_per_bisection": ("count", "lower"),
    "gain": ("weight", "higher"),
    "ledger_peak.compression": ("bytes", "lower"),
    "ledger_peak.coarsening": ("bytes", "lower"),
    "ledger_peak.initial-partitioning": ("bytes", "lower"),
    "ledger_peak.refinement": ("bytes", "lower"),
    "overhead": ("ratio", "lower"),
    "unattributed_s": ("s", "lower"),
}


@dataclass(frozen=True)
class Layer:
    name: str
    # metric suffixes, reported as "<name>.<suffix>"
    metrics: str
    # the end-to-end metrics a change to this layer should move, and where
    moves: str
    on: str


LAYERS = (
    Layer("graph.compress", "calls self_s ratio rss_peak_bytes",
          "rss_peak_bytes (partition_s only slightly)", "mesh-k16 most"),
    Layer("graph.decode", "calls self_s edges ns_per_edge",
          "partition_s", "mesh-k16; little on web-k64"),
    Layer("coarsening.clustering", "calls self_s moves shrink rss_peak_bytes",
          "partition_s, ledger_peak_bytes", "mesh-k16"),
    Layer("coarsening.contraction", "calls self_s edge_shrink rss_peak_bytes",
          "ledger_peak_bytes, rss_peak_bytes", "all"),
    Layer("coarsening", "levels two_hop.calls", "cut, partition_s", "all"),
    Layer("initial",
          "self_s coarsest_n bisections attempts_per_bisection rss_peak_bytes",
          "partition_s, cut", "web-k64; no change on mesh-k16"),
    Layer("initial.bipartition", "calls self_s", "partition_s", "web-k64"),
    Layer("initial.fm2way", "calls self_s", "partition_s", "web-k64"),
    Layer("refinement.lp", "calls self_s moves", "partition_s, cut", "mesh-k16"),
    Layer("refinement.fm", "calls self_s gain rss_peak_bytes",
          "partition_s, cut, ledger_peak_bytes",
          "web-fm-k16 only; absent (0) elsewhere, so no change there"),
    Layer("refinement.balance", "calls self_s moves", "cut", "all"),
    Layer("memory",
          "ledger_peak.compression ledger_peak.coarsening "
          "ledger_peak.initial-partitioning ledger_peak.refinement",
          "ledger_peak_bytes", "all; gain tables on web-fm-k16"),
    Layer("trace", "overhead unattributed_s", "none", "all"),
)

# (name, unit, better) of every per-layer metric a `--trace 1` run reports
PER_LAYER = tuple(
    (f"{layer.name}.{suffix}", *SUFFIXES[suffix])
    for layer in LAYERS
    for suffix in layer.metrics.split()
)


def _is_compressed(graph, *_args, **_kwargs) -> bool:
    return not hasattr(graph, "indptr")


def _compress(st, args, out):
    st["csr_bytes"] += args[0].nbytes
    st["compressed_bytes"] += out.nbytes


def _decode(st, args, out):
    st["edges"] += len(out[0])


def _clustering(st, args, out):
    st["n_in"] += args[0].n
    st["clusters"] += out.num_clusters
    st["moves"] += sum(out.moves_per_round)


def _contraction(st, args, out):
    st["m_in"] += args[0].m
    st["m_out"] += out.coarse.m


def _levels(st, args, out):
    st["levels"] += len(out)


def _coarsest(st, args, out):
    st["coarsest_n"] += args[0].n


def _returned(st, args, out):
    st["returned"] += out


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap, and what to record about its calls."""

    module: str
    attr: str
    layer: str
    # adds to the layer's counters from the call's arguments and result
    observe: Callable | None = None
    # False: count calls only, leaving the time to the enclosing span
    span: bool = True
    # measure RSS growth; only for layers no other RSS-measured layer nests in
    rss: bool = False
    # wrap only the calls whose arguments pass this test
    only_if: Callable | None = None


_P = "repro.core.partitioner"
_CO = "repro.core.coarsening.coarsener"
_REC = "repro.core.initial.recursive"

TARGETS = (
    Target(_P, "compress_graph", "graph.compress", _compress, rss=True),
    # chunk_adjacency is bound at import in three kernels; the others look it
    # up in repro.graph.access when called.  Only compressed input is a
    # decode: a CSR gather stays in its caller's self time.
    *(
        Target(mod, "chunk_adjacency", "graph.decode", _decode, only_if=_is_compressed)
        for mod in (
            "repro.graph.access",
            "repro.core.coarsening.lp_clustering",
            "repro.core.coarsening.one_pass_contraction",
            "repro.core.refinement.lp_refine",
        )
    ),
    Target(_P, "coarsen_hierarchy", "coarsening", _levels),
    Target(_CO, "label_propagation_clustering", "coarsening.clustering",
           _clustering, rss=True),
    Target(_CO, "two_hop_match", "coarsening.two_hop", span=False),
    Target(_CO, "contract_one_pass", "coarsening.contraction", _contraction, rss=True),
    Target(_P, "initial_partition", "initial", _coarsest, rss=True),
    Target(_REC, "bipartition_portfolio", "initial.bisections", span=False),
    Target(_REC, "greedy_graph_growing_bipartition", "initial.bipartition"),
    Target(_REC, "fm2way_refine", "initial.fm2way"),
    Target(_P, "lp_refine", "refinement.lp", _returned),
    Target(_P, "fm_refine", "refinement.fm", _returned, rss=True),
    Target(_P, "rebalance", "refinement.balance", _returned),
)

ROOT = "partition"


class Trace:
    """Spans and counters of the wrapped layers, accumulated per layer."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._children: list[float] = []

    def _span(self, layer: str, fn, args, kwargs, rss: bool = False):
        self._children.append(0.0)
        rss0 = reset_rss_peak() if rss else 0
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - t0
            children = self._children.pop()
            if self._children:
                self._children[-1] += seconds
        st = self.stats[layer]
        st["calls"] += 1
        st["self_s"] += seconds - children
        if rss:
            st["rss_peak_bytes"] = max(st["rss_peak_bytes"], rss_peak() - rss0)
        return out, st

    def root(self, fn):
        """Return ``fn()``, called as the root span."""
        return self._span(ROOT, fn, (), {})[0]

    def wrap(self, target: Target, fn):
        def wrapper(*args, **kwargs):
            if target.only_if is not None and not target.only_if(*args, **kwargs):
                return fn(*args, **kwargs)
            if target.span:
                out, st = self._span(target.layer, fn, args, kwargs, target.rss)
            else:
                out = fn(*args, **kwargs)
                st = self.stats[target.layer]
                st["calls"] += 1
            if target.observe is not None:
                target.observe(st, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper


def current_targets() -> list[tuple[object, str, object]]:
    """``(module, attr, object)`` of every target as currently installed."""
    found = []
    for t in TARGETS:
        module = importlib.import_module(t.module)
        found.append((module, t.attr, getattr(module, t.attr)))
    return found


@contextmanager
def installed(trace: Trace):
    """Wrap every target for the duration of the block, then restore it."""
    saved = current_targets()
    try:
        for target, (module, attr, fn) in zip(TARGETS, saved):
            setattr(module, attr, trace.wrap(target, fn))
        yield trace
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def call_metrics(trace: Trace, result) -> dict[str, float]:
    """Per-layer metrics of one traced call (all but ``trace.overhead``)."""
    s = trace.stats

    def get(layer, key):
        return float(s[layer][key]) if layer in s else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {
        f"{layer.name}.{suffix}": get(layer.name, suffix)
        for layer in LAYERS
        for suffix in layer.metrics.split()
        if suffix in ("calls", "self_s", "rss_peak_bytes")
    }
    m["graph.compress.ratio"] = ratio(
        get("graph.compress", "csr_bytes"), get("graph.compress", "compressed_bytes")
    )
    m["graph.decode.edges"] = get("graph.decode", "edges")
    m["graph.decode.ns_per_edge"] = 1e9 * ratio(
        get("graph.decode", "self_s"), get("graph.decode", "edges")
    )
    m["coarsening.clustering.moves"] = get("coarsening.clustering", "moves")
    m["coarsening.clustering.shrink"] = ratio(
        get("coarsening.clustering", "n_in"), get("coarsening.clustering", "clusters")
    )
    m["coarsening.contraction.edge_shrink"] = ratio(
        get("coarsening.contraction", "m_in"), get("coarsening.contraction", "m_out")
    )
    m["coarsening.levels"] = get("coarsening", "levels")
    m["coarsening.two_hop.calls"] = get("coarsening.two_hop", "calls")
    bisections = get("initial.bisections", "calls")
    m["initial.self_s"] = get("initial", "self_s")
    m["initial.coarsest_n"] = get("initial", "coarsest_n")
    m["initial.bisections"] = bisections
    m["initial.attempts_per_bisection"] = ratio(
        get("initial.fm2way", "calls"), bisections
    )
    m["refinement.lp.moves"] = get("refinement.lp", "returned")
    m["refinement.fm.gain"] = get("refinement.fm", "returned")
    m["refinement.balance.moves"] = get("refinement.balance", "returned")

    peaks = result.memory.phase_peaks
    m["memory.ledger_peak.compression"] = float(peaks.get("partition/compression", 0))
    m["memory.ledger_peak.coarsening"] = float(peaks.get("partition/coarsening", 0))
    m["memory.ledger_peak.initial-partitioning"] = float(
        peaks.get("partition/initial-partitioning", 0)
    )
    m["memory.ledger_peak.refinement"] = float(
        max((v for p, v in peaks.items() if p.startswith("partition/refinement")),
            default=0)
    )
    m["trace.unattributed_s"] = get(ROOT, "self_s")
    return m


@dataclass
class TracedRun:
    metrics: dict[str, float]
    untraced: list
    traced: list


def traced_run(setup: Setup, seconds: float) -> TracedRun:
    """Untraced rounds for half of ``seconds``, then traced rounds.

    Each input's first passing output is its checker's reference, so a
    traced call whose cut or partition hash differs from the untraced one
    fails its check; so does one after which a wrapped attribute is not the
    original object again.
    """
    loop = setup.loop
    plain = loop.partition
    start = time.perf_counter()
    untraced = loop.until(start + seconds / 2)

    per_call: list[dict[str, float]] = []

    def traced_partition(graph, k, config):
        before = current_targets()
        trace = Trace()
        with installed(trace):
            result = trace.root(lambda: plain(graph, k, config))
        if any(a[2] is not b[2] for a, b in zip(before, current_targets())):
            raise RuntimeError("a wrapped layer was not restored")
        per_call.append(call_metrics(trace, result))
        return result

    loop.partition = traced_partition
    try:
        traced = loop.until(start + seconds)
    finally:
        loop.partition = plain
    metrics = {
        name: statistics.median(m[name] for m in per_call) if per_call else 0.0
        for name, *_ in PER_LAYER
        if name != "trace.overhead"
    }
    metrics["trace.overhead"] = statistics.fmean(
        c.seconds for c in traced
    ) / statistics.fmean(c.seconds for c in untraced)
    metrics = {name: metrics[name] for name, *_ in PER_LAYER}
    return TracedRun(metrics, untraced, traced)
