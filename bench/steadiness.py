"""Run-to-run spread of the end-to-end metrics.

    python3 bench/steadiness.py [--runs N] [--first-seed S] [WORKLOAD ...]

Runs ``run.py --trace 0`` N times per workload (default: every workload in
``BENCHMARK.json``), each with its own seed, and prints per metric the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median next to the metric's bound.  Run from the checkout root;
all results are written to ``.bench_build/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for wl in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{wl} seed {seed}: correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / statistics.median(values), "bound": bound}
        out[wl] = {"runs": runs, "summary": summary}
        print(f"\n{wl}: {len(runs)} runs")
        print(f"  {'metric':<16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>9s} {'bound':>7s}")
        for name, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:<16s} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>9.2e} {s['bound']:>7g}{flag}")
        print(flush=True)
    Path(".bench_build").mkdir(exist_ok=True)
    Path(".bench_build/steadiness.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
