#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload, runs ``run.py`` untraced once per seed (one process at
a time) and prints each end-to-end metric's median, quartiles and spread,
the distance between the first and third quartile as a share of the
median.  With ``--write``, stores those figures and the run environment
as JSON.

    python3 perfbench/spread.py --seeds 0 1 2 3 4 5 6 7 8 9 --seconds 35 \
        --write perfbench/baseline.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(line[len("# env "):] for line in lines if line.startswith("# env "))
    result = json.loads(lines[-1])
    result["environment"] = json.loads(env)
    return result


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--write", help="JSON file for the medians, quartiles and environment")
    args = parser.parse_args()

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
            results.append(result)
        metrics = {}
        for name, first in results[0]["metrics"].items():
            metrics[name] = summarize([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = first["unit"]
            stats = metrics[name]
            print(f"  {name:40s} median {stats['median']:.6g} {stats['unit']}  "
                  f"spread {stats['spread']:.4f}", flush=True)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        report["environment"] = results[-1]["environment"]
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
