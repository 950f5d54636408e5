#!/usr/bin/env python3
"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/suite.py [--seeds 10] [--first-seed 1]
        [--workloads a,b] [--seconds S] [--out FILE]

Runs `perfbench/run.py` once per (workload, seed), one run at a time,
from the checkout root.  For every metric it prints the median, the
quartiles and the spread (q3 - q1) / median across the runs, next to
the metric's bound from BENCHMARK.json; a spread at or above a third of
the bound is marked.  The machine and all figures are written as JSON
to --out (default perfbench/.work/suite.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", default=str(HERE / ".work" / "suite.json"))
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "workloads": {}}
    failed_runs = 0
    for name in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            elapsed = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                failed_runs += 1
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            report["machine"] = record["machine"]
            runs.append({"seed": seed, "elapsed_s": elapsed, "correct": result["correct"],
                         "metrics": result["metrics"]})
            print(f"{name} seed {seed}: correct={result['correct']} in {elapsed:.1f} s",
                  file=sys.stderr, flush=True)
        table = {}
        print(f"\n{name} ({len(runs)} runs)")
        print(f"  {'metric':38} {'unit':10} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for metric in runs[0]["metrics"] if runs else []:
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            q1, med, q3, sp = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            bound = bounds.get(metric)
            mark = " <-- over bound/3" if bound and metric != "setup_s" and sp >= bound / 3 else ""
            print(
                f"  {metric:38} {unit:10} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:7.3f} "
                f"{bound if bound is not None else '-':>6}{mark}"
            )
            table[metric] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": sp, "values": values}
        report["workloads"][name] = {
            "runs": len(runs),
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "metrics": table,
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1))
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
