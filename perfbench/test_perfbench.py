"""Self-tests of the partitioner benchmark.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

import run

run.use_checkout_source()

import bench  # noqa: E402
import layers  # noqa: E402
import repro  # noqa: E402

# The metric names the benchmark was specified with.  fail_rate is printed
# but is no metric entry, since it is 0 on correct code and an end-to-end
# metric must never be 0; the result's "failed" and "attempted" carry it.
END_TO_END_NAMES = ["partition_s", "cut", "ledger_peak_bytes", "rss_peak_bytes",
                    "setup_s"]
PER_LAYER_NAMES = """
graph.compress.calls graph.compress.self_s graph.compress.ratio
graph.compress.rss_peak_bytes
graph.decode.calls graph.decode.self_s graph.decode.edges graph.decode.ns_per_edge
coarsening.clustering.calls coarsening.clustering.self_s coarsening.clustering.moves
coarsening.clustering.shrink coarsening.clustering.rss_peak_bytes
coarsening.contraction.calls coarsening.contraction.self_s
coarsening.contraction.edge_shrink coarsening.contraction.rss_peak_bytes
coarsening.levels coarsening.two_hop.calls
initial.self_s initial.coarsest_n initial.bisections initial.attempts_per_bisection
initial.rss_peak_bytes
initial.bipartition.calls initial.bipartition.self_s
initial.fm2way.calls initial.fm2way.self_s
refinement.lp.calls refinement.lp.self_s refinement.lp.moves
refinement.fm.calls refinement.fm.self_s refinement.fm.gain refinement.fm.rss_peak_bytes
refinement.balance.calls refinement.balance.self_s refinement.balance.moves
memory.ledger_peak.compression memory.ledger_peak.coarsening
memory.ledger_peak.initial-partitioning memory.ledger_peak.refinement
trace.overhead trace.unattributed_s
""".split()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SMALL = {
    "lp": bench.Workload("small-lp", "", "", 4, "terapart", bench._rgg2d, 3000),
    "fm": bench.Workload("small-fm", "", "", 4, "terapart-fm", bench._weblike, 2000),
}


@pytest.fixture(scope="module")
def setup():
    return bench.set_up(SMALL["lp"], seed=3, import_s=0.0)


@pytest.fixture(scope="module")
def result(setup):
    inst = setup.loop.instances[0]
    return repro.partition(inst.graph, setup.workload.k, inst.config)


def _returning(part, graph):
    """A stand-in for ``repro.partition`` that returns ``part``."""
    out = SimpleNamespace(partition=part, cut=bench.csr_cut(graph, part),
                          peak_bytes=0)
    return lambda *_: out


def _loop(setup, partition):
    return bench.Loop(setup.loop.instances[:1], setup.workload.k, partition)


def test_real_outputs_pass(setup, result):
    assert len(setup.loop.instances) == bench.INSTANCES
    assert setup.loop.failed == 0 and setup.warmup.instance == bench.WARMUP
    graph = setup.loop.instances[0].graph
    assert bench.csr_cut(graph, result.partition) == result.cut > 0
    assert not setup.loop.instances[0].checker.problems(result)


def test_block_id_out_of_range_is_a_failure(setup, result):
    part = result.partition.copy()
    part[0] = setup.workload.k
    loop = _loop(setup, _returning(part, setup.loop.instances[0].graph))
    calls = loop.round() + loop.round()
    assert loop.failed == 2
    assert "outside [0, 4)" in calls[0].problems[0]


def test_until_runs_whole_rounds(setup, result):
    loop = bench.Loop(setup.loop.instances, setup.workload.k,
                      _returning(result.partition, setup.loop.instances[0].graph))
    assert [c.instance for c in loop.until(deadline=0.0)] == [0, 1, 2]


def test_over_weight_block_is_a_failure(setup, result):
    part = result.partition.copy()
    part[: len(part) // 2] = 0
    loop = _loop(setup, _returning(part, setup.loop.instances[0].graph))
    [call] = loop.round()
    [problem] = call.problems
    assert "L_max" in problem and loop.failed == 1


def test_wrong_cut_and_changed_partition_are_failures(setup, result):
    checker = setup.loop.instances[0].checker
    wrong = SimpleNamespace(partition=result.partition, cut=result.cut + 1)
    assert "CSR input gives" in checker.problems(wrong)[0]
    part = result.partition.copy()
    lightest = int(np.bincount(part).argmin())
    part[int(np.flatnonzero(part != lightest)[0])] = lightest
    problems = checker.problems(_returning(part, setup.loop.instances[0].graph)())
    assert problems and "differ from the first call" in problems[0]


def test_raising_call_is_counted_and_the_loop_goes_on(setup, result):
    outputs = iter([RuntimeError("boom"), result])

    def partition(*_):
        out = next(outputs)
        if isinstance(out, Exception):
            raise out
        return out

    loop = _loop(setup, partition)
    loop.round()
    loop.round()
    assert [c.problems for c in loop.calls] == [["call raised"], []]


def test_end_to_end_metrics_aggregate_calls_and_inputs(setup):
    loop = bench.Loop(setup.loop.instances, setup.workload.k)
    loop.calls = [
        bench.Call(bench.WARMUP, 0.5, 5, 1, 1000),
        bench.Call(0, 1.0, 10, 100, 5),
        bench.Call(1, 3.0, 30, 300, 7),
        bench.Call(2, 2.0, 20, 999, 99, ["bad"]),
        bench.Call(0, 2.0, 20, 100, 5),
    ]
    assert loop.unpassed_inputs() == [2]
    s = bench.Setup(setup.workload, loop, loop.calls[0], 4.5)
    m = bench.end_to_end_metrics(s, loop.calls[1:], scale=2.0)
    # input 0 had two calls, each of the others one: every input weighs a third
    assert m == {"partition_s": pytest.approx(2 * 6.5 / 3), "cut": 200.0,
                 "ledger_peak_bytes": 7.0,
                 "rss_peak_bytes": pytest.approx(65 / 3), "setup_s": 4.5}


@pytest.mark.parametrize("kind", ["lp", "fm"])
def test_traced_run_equals_untraced_and_restores_layers(kind):
    s = bench.set_up(SMALL[kind], seed=5, import_s=0.0)
    before = layers.current_targets()
    traced = layers.traced_run(s, seconds=0.0)
    assert [o for *_, o in layers.current_targets()] == [o for *_, o in before]
    assert not any(hasattr(o, "__wrapped__") for *_, o in before)
    assert s.loop.failed == 0 and len(traced.traced) == bench.INSTANCES
    assert traced.traced[0].instance == traced.untraced[0].instance
    m = traced.metrics
    assert list(m) == PER_LAYER_NAMES
    assert m["graph.compress.calls"] == 1 and m["graph.decode.edges"] > 0
    assert m["coarsening.levels"] >= 1 and m["initial.bisections"] == 3
    assert (m["refinement.fm.calls"] > 0) == (kind == "fm")


def test_layer_metrics_are_zero_for_untouched_layers():
    m = layers.call_metrics(layers.Trace(), SimpleNamespace(
        memory=SimpleNamespace(phase_peaks={})))
    assert set(m) == set(PER_LAYER_NAMES) - {"trace.overhead"}
    assert not any(m.values())


def test_metric_names_match_the_spec_and_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [n for n, *_ in bench.END_TO_END] == END_TO_END_NAMES
    assert [n for n, *_ in layers.PER_LAYER] == PER_LAYER_NAMES
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    for name in END_TO_END_NAMES + PER_LAYER_NAMES:
        assert NAME.fullmatch(name), name
    assert len(set(PER_LAYER_NAMES)) == len(PER_LAYER_NAMES)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    assert list(whys) == list(bench.WORKLOADS)
    for name, w in bench.WORKLOADS.items():
        assert whys[name] == w.why and w.dominant in w.why
