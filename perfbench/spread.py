"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 15]
        [--trace 0|1] [--out summary.json]

Runs perfbench/run.py once per seed, one run at a time, from the repository
root.  For every metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the quartile distance as a share of
the median, which is the spread BENCHMARK.json bounds.  --out merges the
summary into a JSON file under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(x) for x in text.split("-", 1))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    results = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()), flush=True)
    summary = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
               "runs_correct": sum(r["correct"] for r in results), "runs": len(results),
               "metrics": {}}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        share = (q3 - q1) / median if median else None
        summary["metrics"][name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                                    "iqr_share": share, "values": values}
        print(f"{name:<32} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"iqr/median {'-' if share is None else f'{share:.4f}'} {first['unit']}")
    if args.out:
        path = Path(args.out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged.setdefault(args.workload, {})[f"trace{args.trace}"] = summary
        path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
