"""Workloads, output checks and end-to-end metrics of the partitioner benchmark.

A workload is a graph generator, a block count ``k`` and a config preset.
A run derives ``INSTANCES`` inputs (graph and ``config.seed``) from its seed
and is a closed loop with one client: it makes sequential
``repro.partition(graph, k, config)`` calls on the inputs in turn, each only
after the previous one returned, and checks every output.  ``run.py`` is the
command-line entry.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import repro
from repro.core import config as presets
from repro.graph import generators


def _rgg2d(n: int, seed: int):
    return generators.rgg2d(n, avg_degree=8, seed=seed)


def _weblike(n: int, seed: int):
    return generators.weblike(n, seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # the layer expected to take most of the partition call's time
    dominant: str
    k: int
    preset: str
    generate: Callable[[int, int], object]  # (n, seed) -> CSR graph
    n: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mesh-k16",
            "rgg2d mesh, 1e5 vertices, 4e5 edges, k=16, gap-coded compressed "
            "input; dominant layer: coarsening.clustering + graph.decode; "
            "initial partitioning is small",
            "coarsening.clustering + graph.decode",
            16,
            "terapart",
            _rgg2d,
            100_000,
        ),
        Workload(
            "web-k64",
            "weblike, 5e4 vertices, 4.8e5 edges, k=64: recursive bisection of a "
            "~2.4k-vertex coarsest graph; dominant layer: initial "
            "(fm2way, bipartition)",
            "initial",
            64,
            "terapart",
            _weblike,
            50_000,
        ),
        Workload(
            "web-fm-k16",
            "the web-k64 graph, k=16, terapart-fm: the only workload that builds "
            "sparse gain tables and runs k-way FM; dominant layer: refinement.fm",
            "refinement.fm",
            16,
            "terapart-fm",
            _weblike,
            50_000,
        ),
    )
}

# (name, unit, better) of every end-to-end metric a `--trace 0` run reports
END_TO_END = (
    ("partition_s", "s", "lower"),
    ("cut", "weight", "lower"),
    ("ledger_peak_bytes", "bytes", "lower"),
    ("rss_peak_bytes", "bytes", "lower"),
    ("setup_s", "s", "lower"),
)

# The warm-up input has this share of the workload's vertices: it runs every
# code path of the workload's calls and the program's lazy set-up, and leaves
# the run's time to the timed calls.  It is the same input in every run, so
# that setup_s does not vary with the seed's choice of warm-up input.
WARMUP_SHARE = 20
WARMUP_SEED = 0

# Inputs per run, each a graph and a config seed derived from the workload
# seed.  The weblike hierarchy is 2 or 3 levels deep depending on the input,
# and the third level raises the ledger peak by about 40%, so one input's
# ledger_peak_bytes jumps between seeds; the largest over three inputs, and
# the mean cut over them, vary far less.
INSTANCES = 3

# Call.instance of the warm-up call
WARMUP = -1

# Speed-probe time before each call, as a share of the previous call's time
PROBE_SHARE = 0.1


# --------------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------------- #
def csr_cut(graph, part: np.ndarray) -> int:
    """Edge-cut weight of ``part`` on a CSR graph, from its arrays alone."""
    indptr = np.asarray(graph.indptr)
    src = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    cross = part[src] != part[np.asarray(graph.adjncy)]
    return int(np.asarray(graph.adjwgt)[cross].sum()) // 2


def block_weight_limit(total_weight: int, k: int, epsilon: float) -> int:
    """``L_max = (1 + eps) * ceil(w(V) / k)``, the paper's balance bound."""
    return int((1.0 + epsilon) * -(-total_weight // k))


def partition_hash(part: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(part, dtype="<i4").tobytes()).hexdigest()


@dataclass
class Checker:
    """Checks every output for one input against its CSR graph.

    The first output that passes the per-call checks becomes the reference;
    every later one must reproduce its cut and partition hash.
    """

    graph: object
    k: int
    epsilon: float
    reference: tuple[int, str] | None = None

    def problems(self, result) -> list[str]:
        part = np.asarray(result.partition)
        n = len(np.asarray(self.graph.indptr)) - 1
        if part.shape != (n,):
            return [f"partition has shape {part.shape}, expected ({n},)"]
        found = []
        if n and (part.min() < 0 or part.max() >= self.k):
            found.append(
                f"block IDs span [{part.min()}, {part.max()}], outside [0, {self.k})"
            )
            return found
        cut = csr_cut(self.graph, part)
        if cut != result.cut:
            found.append(f"result.cut={result.cut} but the CSR input gives {cut}")
        vwgt = np.asarray(self.graph.vwgt)
        weights = np.bincount(part, weights=vwgt, minlength=self.k)
        limit = block_weight_limit(int(vwgt.sum()), self.k, self.epsilon)
        if weights.max() > limit:
            found.append(
                f"block {int(weights.argmax())} weighs {int(weights.max())} > "
                f"L_max={limit}"
            )
        key = (cut, partition_hash(part))
        if not found:
            if self.reference is None:
                self.reference = key
            elif key != self.reference:
                found.append(
                    f"cut/hash {key[0]}/{key[1][:12]} differ from the first "
                    f"call's {self.reference[0]}/{self.reference[1][:12]}"
                )
        return found


# --------------------------------------------------------------------------- #
# the closed loop
# --------------------------------------------------------------------------- #
def _status_bytes(field_name: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field_name):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"{field_name} missing from /proc/self/status")


def reset_rss_peak() -> int:
    """Reset the process's RSS high-water mark; return the current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return _status_bytes("VmRSS:")


def rss_peak() -> int:
    return _status_bytes("VmHWM:")


class SpeedProbe:
    """A fixed piece of interpreter-bound and memory-bound work, like the
    partitioner's mix, timed between partition calls.

    On a shared machine every call of a run slows by the same factor, up to
    half, for tens of seconds to minutes at a time, and the probe slows with
    it.  Scaling a run's timings by ``REFERENCE_S`` over the probe's mean time
    reports them at one fixed machine speed.  On a shared 2-vCPU virtual
    machine, in five sets of ten runs per workload, the spread between the
    quartiles of ``partition_s``, as a share of its median, was 16-21%
    (web-k64), 7-16% (web-fm-k16) and 8-15% (mesh-k16) as measured and
    9-18%, 6-13% and 5-13% once scaled, and web-k64's median differed
    between sets by up to 31% as measured against 16% scaled.  Set-up time
    is not scaled: over four of those sets, scaling narrowed its spread in
    some and widened it in others, and its median differed between sets by
    up to 20% scaled against 11% as measured.
    """

    REFERENCE_S = 0.2

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.integers(0, 1 << 30, 1 << 21)
        self._index = rng.integers(0, 1 << 21, 1 << 21)
        self._keys = rng.integers(0, 1000, 15_000).tolist()
        self.samples: list[float] = []

    def sample(self, seconds: float = 0.0) -> None:
        """Time the probe once, then again until ``seconds`` have passed."""
        spent = 0.0
        while not spent or spent < seconds:
            t0 = time.perf_counter()
            heap: list[tuple[int, int]] = []
            for i, key in enumerate(self._keys):
                heapq.heappush(heap, (key, i))
                if len(heap) > 64:
                    heapq.heappop(heap)
            for _ in range(2):
                np.unique(self._values[self._index][: 1 << 18])
            self.samples.append(time.perf_counter() - t0)
            spent += self.samples[-1]

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        return self.REFERENCE_S / statistics.fmean(self.samples)


@dataclass
class Instance:
    """One input of a run: a graph, the config it is partitioned with, and
    the checker of its outputs."""

    graph: object
    config: object
    checker: Checker


@dataclass
class Call:
    instance: int
    seconds: float
    rss_growth: int
    cut: int | None = None
    peak_bytes: int | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Loop:
    """Calls ``partition`` on the instances in turn and checks each output.

    A call that raises or fails a check is recorded and the loop goes on.
    """

    instances: list[Instance]
    k: int
    partition: Callable = repro.partition
    # sampled before every call, for PROBE_SHARE of the previous call's time
    probe: SpeedProbe | None = None
    calls: list[Call] = field(default_factory=list)

    def round(self) -> list[Call]:
        """Call once on every input, in order."""
        return [self.run(inst, i) for i, inst in enumerate(self.instances)]

    def run(self, inst: Instance, i: int) -> Call:
        if self.probe is not None:
            last = self.calls[-1].seconds if self.calls else 0.0
            self.probe.sample(PROBE_SHARE * last)
        gc.collect()
        rss0 = reset_rss_peak()
        t0 = time.perf_counter()
        try:
            result = self.partition(inst.graph, self.k, inst.config)
        except Exception:
            seconds = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            rec = Call(i, seconds, rss_peak() - rss0, problems=["call raised"])
        else:
            seconds = time.perf_counter() - t0
            rec = Call(i, seconds, rss_peak() - rss0, result.cut, result.peak_bytes,
                       inst.checker.problems(result))
        for p in rec.problems:
            print(f"check failed on input {i}: {p}", file=sys.stderr)
        self.calls.append(rec)
        return rec

    def until(self, deadline: float) -> list[Call]:
        """Whole rounds: one, then more until the next round would end
        after ``deadline``.  Every input is called equally often, however
        fast the calls run."""
        done, rounds = [], []
        while True:
            t0 = time.perf_counter()
            done += self.round()
            rounds.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(rounds) > deadline:
                return done

    @property
    def failed(self) -> int:
        return sum(1 for c in self.calls if c.problems)

    def unpassed_inputs(self) -> list[int]:
        """The inputs that have no passing call yet."""
        passed = {c.instance for c in self.calls if not c.problems}
        return [i for i in range(len(self.instances)) if i not in passed]


@dataclass
class Setup:
    workload: Workload
    loop: Loop
    warmup: Call
    setup_s: float


def _instance(workload: Workload, n: int, graph_seed: int, config_seed: int):
    graph = workload.generate(n, graph_seed)
    cfg = presets.preset(workload.preset, seed=config_seed)
    return Instance(graph, cfg, Checker(graph, workload.k, cfg.epsilon))


def set_up(workload: Workload, seed: int, import_s: float,
           instances: int = INSTANCES) -> Setup:
    """Generate the inputs, then make the untimed warm-up call.

    The warm-up call partitions a smaller input of the same kind, which
    absorbs the program's lazy one-time work (the decode work-factor
    calibration) into ``setup_s``.  ``setup_s`` is ``import_s``, the median
    time to generate one of the inputs, and the warm-up call, as measured.
    """
    probe = SpeedProbe()
    probe.sample()
    seeds = np.random.SeedSequence(seed).generate_state(2 * instances)
    seeds = seeds.reshape(-1, 2).tolist()
    insts, gen_s = [], []
    for graph_seed, config_seed in seeds:
        t0 = time.perf_counter()
        insts.append(_instance(workload, workload.n, graph_seed, config_seed))
        gen_s.append(time.perf_counter() - t0)
    loop = Loop(insts, workload.k, probe=probe)
    small = _instance(workload, workload.n // WARMUP_SHARE, WARMUP_SEED,
                      WARMUP_SEED)
    warmup = loop.run(small, WARMUP)
    setup_s = import_s + statistics.median(gen_s) + warmup.seconds
    return Setup(workload, loop, warmup, setup_s)


def end_to_end_metrics(
    setup: Setup, timed: list[Call], scale: float
) -> dict[str, float]:
    """Aggregated per input first, so that each input weighs the same
    however many calls it had: ``partition_s`` is the mean over the inputs
    of their mean call time, the inverse of the closed loop's throughput;
    ``rss_peak_bytes`` is the mean of their median RSS growth.  ``cut`` is
    the mean and ``ledger_peak_bytes`` the largest over the inputs' first
    passing calls.  ``partition_s`` is multiplied by ``scale``.
    """
    by_input: dict[int, list[Call]] = {}
    for c in timed:
        by_input.setdefault(c.instance, []).append(c)
    first: dict[int, Call] = {}
    for c in setup.loop.calls:
        if c.instance != WARMUP and not c.problems:
            first.setdefault(c.instance, c)
    return {
        "partition_s": scale * statistics.fmean(
            statistics.fmean(c.seconds for c in calls)
            for calls in by_input.values()
        ),
        "cut": statistics.fmean(c.cut for c in first.values()) if first else 0.0,
        "ledger_peak_bytes": float(max((c.peak_bytes for c in first.values()),
                                       default=0)),
        "rss_peak_bytes": statistics.fmean(
            statistics.median(c.rss_growth for c in calls)
            for calls in by_input.values()
        ),
        "setup_s": setup.setup_s,
    }


# --------------------------------------------------------------------------- #
# run environment
# --------------------------------------------------------------------------- #
def git_sha(root: Path) -> str | None:
    """HEAD of the git checkout that holds ``root``, or None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(root),
    }
