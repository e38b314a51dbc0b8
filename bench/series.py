"""Run the benchmark over several seeds and summarize every metric.

    python3 bench/series.py --seeds 1-10 --seconds 30
    python3 bench/series.py --workloads sep_multistart --seeds 1-5 --trace

Each (workload, seed) is one ``run.py`` process, run one after another.  For
every metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  ``--out`` writes the summary and
every run's result line as JSON.  The exit status is 1 when any run fails
its output checks or exits non-zero.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true", help="traced runs (per-layer metrics)")
    parser.add_argument("--out", help="JSON file for the summary and every run")
    args = parser.parse_args(argv)

    ok = True
    report = {"seconds": args.seconds, "trace": int(args.trace), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(int(args.trace))],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            runs.append({"seed": seed, **json.loads(lines[-2]), **result})
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr)
        metrics = {}
        for name in runs[0]["metrics"] if runs else ():
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], **summary}
        report["workloads"][workload] = {"metrics": metrics, "runs": runs}
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':44s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}  unit")
        for name, m in metrics.items():
            print(f"  {name:44s} {m['median']:14.6g} {m['q1']:14.6g} {m['q3']:14.6g} "
                  f"{m['spread']:8.4f}  {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
