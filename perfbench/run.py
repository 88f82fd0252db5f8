"""prodgraph benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it prints
the per-layer metrics of a separate traced run (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2 means the benchmark
could not run at all and printed no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed in two blocks, one before the timed passes and one after,
# so that its median spans the run rather than one moment of a shared
# machine.  Each block repeats set-up until both its minimums are met.
SETUP_BLOCKS = ((2, 1.0), (1, 1.0))  # (minimum repeats, minimum seconds)
# A percentile is reported with the sample count; p90 has ten samples
# beyond it only from 100 samples on.
P90_MIN_SAMPLES = 100
COVERAGE_MARGIN = 0.90
ABSENT = "absent"


class Tally:
    """Outputs checked and failed, over ops and once-per-run checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {what}: {error}", file=sys.stderr)


def run_checked(workload, i: int, tally: Tally, runner=None) -> float | None:
    """One op plus its output check; returns its latency, or None if it raised.

    An op whose output fails its check still has a latency; the failure
    shows in the tally and makes the run incorrect.
    """
    start = perf_counter()
    try:
        out = runner(workload.op, i) if runner else workload.op(i)
    except Exception:  # the loop must go on and count the failure
        tally.record(f"op {i}", traceback.format_exc())
        return None
    latency = perf_counter() - start
    tally.record(f"op {i}", workload.check(i, out))
    return latency


def timed_passes(workload, seconds: float, tally: Tally, runner=None) -> list[list]:
    """Whole passes over the input pool until another pass would overrun.

    At least one pass runs, so every run covers the pool a whole number of
    times.  Returns one list per pass holding each input's latency, or None
    where its op raised.
    """
    passes: list[list] = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        passes.append([run_checked(workload, i, tally, runner) for i in range(workload.pool_size)])
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes


def returned(passes: list[list]) -> list[float]:
    """The latencies of every op that returned."""
    return [latency for row in passes for latency in row if latency is not None]


def best_latencies(passes: list[list]) -> list[float]:
    """Each input's fastest op over the run's passes.

    A shared host's speed can change up to 1.6 times in phases lasting
    seconds to minutes.  The fastest of an input's repeats is the estimate
    such phases move least: it reads slow only when the whole run was slow.
    An input whose every op raised is left out.
    """
    best = []
    for column in zip(*passes):
        times = [latency for latency in column if latency is not None]
        if times:
            best.append(min(times))
    return best


def regularized_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b), the Beta(a, b) distribution function, by Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - regularized_beta(1.0 - x, b, a)

    def nonzero(v: float) -> float:
        return v if abs(v) > 1e-300 else 1e-300

    c, d = 1.0, 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 300):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / nonzero(1.0 + coef * d)
            c = nonzero(1.0 + coef / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    return math.exp(log_front) * h / a


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted mean of all order statistics.  It moves less between
    seeds than the one or two order statistics a sample quantile reads,
    which matters when each value is a different input (a different graph).
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [regularized_beta(i / n, a, b) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def peak_mb(workload, tally: Tally) -> float:
    """Largest tracemalloc peak of one op over the workload's peak inputs."""
    peak = 0
    tracemalloc.start()
    try:
        for i in workload.peak_inputs:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_checked(workload, i, tally)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1e6


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload_seed": seed,
    }


def time_setups(cls, seed: int, min_repeats: int, min_seconds: float):
    """Construct the workload repeatedly; returns the last one and the times."""
    times: list[float] = []
    while len(times) < min_repeats or sum(times) < min_seconds:
        start = perf_counter()
        workload = cls(seed)
        times.append(perf_counter() - start)
    return workload, times


def measure(cls, seed: int, seconds: float, tally: Tally) -> dict:
    workload, setups = time_setups(cls, seed, *SETUP_BLOCKS[0])
    # Warm-up: first-call LAPACK and import costs stay out of the latencies
    # and out of the peak.
    run_checked(workload, 0, tally)
    peak = peak_mb(workload, tally)
    passes = timed_passes(workload, seconds, tally)
    for name, error in workload.run_checks():
        tally.record(name, error)
    setups += time_setups(cls, seed, *SETUP_BLOCKS[1])[1]
    best = best_latencies(passes)
    if not best:
        raise SystemExit("error: every timed op raised")
    samples = len(best)
    note = "" if samples >= P90_MIN_SAMPLES else "; fewer than 10 samples lie beyond p90"
    basis = f"best of {len(passes)} per input, n={samples}"
    print(f"# {len(returned(passes))} ops returned in {len(passes)} passes of "
          f"{workload.pool_size} inputs")
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "throughput_ops_per_s": (samples / sum(best), "1/s", f"{basis}, 1 client"),
        "latency_p50_s": (quantile(best, 0.5), "s", basis),
        "latency_p90_s": (quantile(best, 0.9), "s", f"{basis}{note}"),
        "peak_mb": (peak, "MB", f"tracemalloc, {len(workload.peak_inputs)} op(s), separate pass"),
    }


def measure_traced(cls, seed: int, seconds: float, tally: Tally) -> dict:
    from tracing import Tracer

    workload = cls(seed)
    run_checked(workload, 0, tally)
    latencies = returned(timed_passes(workload, seconds / 2, tally))
    if not latencies:
        raise SystemExit("error: every untraced op raised")
    with Tracer() as tracer:
        timed_passes(workload, seconds / 2, tally, tracer.run_op)
    for name, error in workload.run_checks():
        tally.record(name, error)
    out = tracer.metrics(untraced_op_s=statistics.mean(latencies))
    coverage = out["trace.coverage"][0]
    verdict = "within" if coverage >= COVERAGE_MARGIN else "BELOW"
    print(f"# trace.coverage {coverage:.4f} is {verdict} the stated margin >= {COVERAGE_MARGIN}")
    return {name: (value, unit, ABSENT if absent else "per op")
            for name, (value, unit, absent) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread: the benchmark measures one client on one core.  The
    # variables must be set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "prodgraph" / "__init__.py").is_file():
        print(f"error: prodgraph sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prodgraph
    from workloads import WORKLOADS

    if Path(prodgraph.__file__).resolve().parent.parent != SRC:
        print(f"error: imported prodgraph from {prodgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    print(f"# workload {cls.name}: {cls.why}")
    print("# env " + json.dumps(environment(args.seed)))

    tally = Tally()
    run = measure_traced if args.trace else measure
    metrics = run(cls, args.seed, args.seconds, tally)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<32} {value:>14.6g} {unit:<6} {note}")
    print(f"{'failed_frac':<32} {tally.failed / tally.attempted:>14.6g} {'ratio':<6} "
          f"{tally.failed} of {tally.attempted} checks")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit, **({"absent": True} if note == ABSENT else {})}
                    for name, (value, unit, note) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
