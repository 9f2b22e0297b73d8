"""Partitioner benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload mesh-k16 --seed 1 --seconds 35 --trace 0

``--trace 0`` times sequential ``repro.partition`` calls untraced and reports
the end-to-end metrics, with partition_s scaled to a reference machine speed
by ``bench.SpeedProbe``; ``--trace 1`` runs untraced calls and then traced
calls with every layer wrapped, and reports the per-layer metrics.  Every
call's output is checked.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The program is
imported from ``src/`` of the checkout the script sits in.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Times the benchmark's import as main() does, in a fresh interpreter.
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import run
run.use_checkout_source()
run.pin_process()
t0 = time.perf_counter()
import bench
print(time.perf_counter() - t0)
"""

# Imports timed per run: the run's own and the rest in fresh interpreters.
IMPORTS = 3

# One thread per BLAS/OpenMP pool keeps the load within the machine's cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# glibc raises its mmap threshold each time a large block is freed, so how
# much freed memory a later call reuses, and so its RSS growth, depends on
# the calls before it.  Fixing both thresholds at 1 MiB makes each call's RSS
# growth repeat: over 18 mesh-k16 and 6 web-fm-k16 calls per setting it was
# 148-153 and 131-136 MB, against 36-77 and 13-26 MB by default and 41-71
# and 6-25 MB with both fixed at glibc's 32 MiB dynamic maximum.  The mean
# call time did not get worse: 2.20 and 9.30 s, against 2.37 and 9.39 s by
# default and 2.39 and 9.39 s at 32 MiB.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MALLOC_THRESHOLD_BYTES = 1 << 20


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit if it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))


def pin_process() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    libc = ctypes.CDLL(None)
    for param in (M_TRIM_THRESHOLD, M_MMAP_THRESHOLD):
        if not libc.mallopt(param, MALLOC_THRESHOLD_BYTES):
            sys.exit("perfbench: mallopt refused a threshold")


def import_seconds(first: float) -> float:
    """Median import time: ``first``, the run's own import, and more
    imports in fresh interpreters, each waited for."""
    times = [first]
    for _ in range(IMPORTS - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)],
                             capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    pin_process()
    t0 = time.perf_counter()
    import bench  # noqa: E402 -- after the source path and the thread pins

    import_s = import_seconds(time.perf_counter() - t0)
    if args.workload not in bench.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"know {sorted(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    setup = bench.set_up(workload, args.seed, import_s)
    loop = setup.loop
    print(f"workload {workload.name}, seed {args.seed}: k={workload.k} "
          f"preset={workload.preset}; dominant layer: {workload.dominant}")
    for i, inst in enumerate(loop.instances):
        print(f"  input {i}: n={inst.graph.n} m={inst.graph.m} "
              f"config.seed={inst.config.seed}")
    print(f"  untimed warm-up on a 1/{bench.WARMUP_SHARE}-size input: "
          f"{setup.warmup.seconds:.3f} s; set-up measured {setup.setup_s:.3f} s")

    if args.trace:
        import layers

        run = layers.traced_run(setup, args.seconds)
        metrics = run.metrics
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        failed, attempted = loop.failed, len(loop.calls)
        _print_metrics(
            f"per-layer metrics, median of {len(run.traced)} traced calls "
            f"({len(run.untraced)} untraced):", metrics, units)
        total = statistics.median(c.seconds for c in run.traced)
        print(f"self time as a share of the traced call ({total:.3f} s):")
        shares = sorted(
            ((v, n[: -len(".self_s")]) for n, v in metrics.items()
             if n.endswith(".self_s")),
            reverse=True,
        )
        shares.append((metrics["trace.unattributed_s"], "unattributed"))
        for seconds, layer in shares:
            print(f"  {layer:<28} {100 * seconds / total:6.1f}%")
    else:
        start = time.perf_counter()
        timed = loop.until(start + args.seconds)
        scale = loop.probe.scale()
        metrics = bench.end_to_end_metrics(setup, timed, scale)
        units = {name: unit for name, unit, _ in bench.END_TO_END}
        failed, attempted = loop.failed, len(loop.calls)
        seconds = [c.seconds for c in timed]
        probe = loop.probe.samples
        print(f"partition_s x {scale:.4g} to the reference speed (speed probe: "
              f"mean {statistics.fmean(probe):.4g} s of {len(probe)} samples); "
              f"measured partition_s {metrics['partition_s'] / scale:.6g} s, "
              f"setup_s {setup.setup_s:.6g} s (not scaled)")
        print(f"timed calls, measured: mean {statistics.fmean(seconds):.4g} s, "
              f"median {statistics.median(seconds):.4g} s; (input: seconds) "
              + ", ".join(f"{c.instance}: {c.seconds:.3f}" for c in timed))
        _print_metrics(
            f"end-to-end metrics over {len(timed) // len(loop.instances)} rounds "
            f"of {len(loop.instances)} inputs (partition_s: mean over the inputs "
            f"of each one's mean call; rss_peak_bytes: mean of medians; cut: "
            f"mean and ledger_peak_bytes: largest over the inputs):",
            metrics, units)
    unpassed = loop.unpassed_inputs()
    print(f"  {'fail_rate':<44} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} calls)")
    if unpassed:
        print(f"no passing call on input(s) {unpassed}")
    print("env " + json.dumps(bench.environment(ROOT) | {
        "workload": workload.name, "seed": args.seed, "trace": args.trace}))
    print(json.dumps({
        "correct": failed == 0 and not unpassed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]}
                    for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
