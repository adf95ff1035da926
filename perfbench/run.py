"""Benchmark entry point.

    python3 perfbench/run.py --workload {simulate,select,serve} \
        --seed N --seconds S --trace {0,1}

Run from the repository root (any directory works: paths are taken
relative to this file).  The package is imported from ``src/`` next to
this directory; without it the benchmark exits with code 2.

With ``--trace 0`` the workload's rounds repeat until ``--seconds`` have
passed (the last round started always finishes) and the end-to-end
metrics are printed, every timing scaled to a nominal host speed by the
probe in ``probe.py``.  With ``--trace 1`` a fixed number of rounds runs
untraced and then again traced, round by round, and the per-layer
metrics are printed, together with the tracing overhead (traced minus
untraced time of the same rounds, each scaled by the probe); the spans
go to ``.perfbench/trace-<workload>-<seed>.json``.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: One BLAS thread: the matrices are small (at most 10,000 x 31), and a
#: single thread keeps timings steady on a shared two-core machine.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate", "select", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cold_import():
    """A fresh interpreter imports the package."""
    subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {SRC!r}); import statnn"],
        env={**os.environ, **BLAS_ENV}, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def timed_setup(workload, repeats: int, probe):
    """Median over ``repeats`` of a cold package import plus the
    workload's own set-up, each scaled by the probes around it.
    Returns it with the last probe time."""
    times = []
    before = probe()
    for _ in range(repeats):
        start = time.perf_counter()
        cold_import()
        workload.setup()
        seconds = time.perf_counter() - start
        after = probe()
        times.append(seconds * probe.scale(before, after))
        before = after
    return statistics.median(times), before


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call_metrics(calls) -> dict:
    busy = sum(c.seconds for c in calls)
    return {
        "ops_per_s": sum(c.attempted - c.failed for c in calls) / busy,
        "op_p50_ms": 1000.0 * statistics.median(c.seconds for c in calls),
    }


def measure(workload, seconds: float, probe, before: float):
    """End-to-end run: whole rounds until ``seconds`` have passed, each
    round's call times scaled by the probes taken before and after it.
    Returns the scaled calls, their metrics and the unscaled metrics."""
    calls, raw = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        got = workload.run(i)
        after = probe()
        factor = probe.scale(before, after)
        raw += got
        calls += [replace(c, seconds=c.seconds * factor) for c in got]
        before = after
        i += 1
    metrics = call_metrics(calls)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return calls, metrics, call_metrics(raw)


def traced(workload, name: str, seed: int, probe):
    """Each round untraced and then traced; returns calls and metrics.

    The tracing overhead is the sum over rounds of the traced round's
    time less the untraced one's, each scaled by the probes around it,
    so a change of host speed between the halves does not read as
    overhead."""
    from spans import Tracer

    tracer = Tracer()
    calls = []
    overhead = 0.0
    before = probe()
    for i in range(workload.trace_rounds):
        plain = workload.run(i)
        middle = probe()
        with tracer.installed():
            spanned = workload.run(i)
        after = probe()
        overhead += (sum(c.seconds for c in spanned)
                     * probe.scale(middle, after)
                     - sum(c.seconds for c in plain)
                     * probe.scale(before, middle))
        calls += plain + spanned
        before = after
    tracer.write(os.path.join(OUT_DIR, f"trace-{name}-{seed}.json"))
    return calls, tracer.metrics(overhead)


def bootstrap() -> bool:
    """Pin BLAS threads and import the package from ``src/``; False
    (with a message on stderr) when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "statnn", "__init__.py")):
        print(f"error: the statnn package is not at {SRC}", file=sys.stderr)
        return False
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [SRC, HERE]
    import statnn
    if os.path.dirname(os.path.dirname(statnn.__file__)) != SRC:
        print(f"error: statnn was imported from {statnn.__file__}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not bootstrap():
        return 2
    from workloads import WORKLOADS

    from probe import Probe
    cls, size = WORKLOADS[args.workload]
    probe = Probe()
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    unscaled = {}
    try:
        workload = cls(args.seed, work, size)
        if args.trace:
            workload.setup()
            calls, metrics = traced(workload, args.workload, args.seed,
                                    probe)
        else:
            setup_s, before = timed_setup(workload, SETUP_REPEATS, probe)
            calls, metrics, unscaled = measure(workload, args.seconds, probe,
                                               before)
            metrics["setup_s"] = setup_s
            metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END}
        errors = workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in errors[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(c.attempted for c in calls),
        "failed": sum(c.failed for c in calls),
        "metrics": metrics,
    }
    text = json.dumps(result)
    with open(os.path.join(
            OUT_DIR, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
            "w", encoding="utf-8") as fh:
        json.dump({**result, "unscaled": unscaled}, fh)
        fh.write("\n")
    print(text)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
