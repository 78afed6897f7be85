#!/usr/bin/env python3
"""Run the benchmark once per seed and summarize the run-to-run spread.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out baseline.json

For every workload and end-to-end metric it reports the median and the
quartiles of the runs (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json.
A spread below a third of the bound is marked steady. Runs go one after
another, so they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"environment": json.loads(lines[0])["environment"],
            "detail": json.loads(lines[1])["detail"], "result": json.loads(lines[-1])}


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON summary to write")
    args = parser.parse_args()

    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run(workload, seed, spec["run_seconds"]) for seed in args.seeds]
        metrics = {m["name"]: summarize([r["result"]["metrics"][m["name"]]["value"]
                                         for r in runs], m["bound"])
                   for m in spec["end_to_end"]}
        summary["workloads"][workload] = {
            "environment": runs[0]["environment"],
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "metrics": metrics, "runs": [{"seed": seed, "detail": r["detail"]}
                                         for seed, r in zip(args.seeds, runs)]}
        for name, s in metrics.items():
            print(f"{workload:13s} {name:30s} median {s['median']:12.6g} "
                  f"spread {s['spread']:7.4f} bound {s['bound']:5.3f}"
                  f"{'' if s['steady'] else '  NOT STEADY'}")
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
