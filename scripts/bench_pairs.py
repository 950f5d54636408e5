#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and write a
BENCH_<n>.json summary.

    python3 scripts/bench_pairs.py PARENT CHANGE --seeds 161-170 \\
        [--held-out 301,302] [--trace-seed 261] \\
        [--claim WORKLOAD:METRIC] [--what TEXT] -o BENCH_17.json

PARENT and CHANGE are the roots of two source checkouts.  The command,
the workloads, the run length and each end-to-end metric's direction
and bound are read from CHANGE's BENCHMARK.json; every run is that
command with --workload, --seed, --seconds and --trace appended, run
from the root of one checkout.  For each workload, seed i of --seeds is one pair: the
parent runs first when i is even and the change first when it is odd.
The --held-out seeds then run the same way, and last one traced run
per side and workload at --trace-seed, the parent first.

Each side's commit is asked of git in its checkout (which also reads a
.git file, as a worktree has), or else read from the run's record.

The summary gives, per workload and end-to-end metric, each side's
median and quartiles over the pairs, the change's wins and losses
(ties count for neither), the change-over-parent ratio and a verdict.
The tolerance is the metric's bound times the parent median: the
verdict is "regressed" when the change median is worse than the parent
median by more than that, else "unresolved" when the parent's
interquartile range is wider than that and not every change run beats
every parent run, else "ok".  Per workload it also sums each side's
failed and attempted operations over the untraced runs and counts the
runs that exited non-zero; "failures" is "regressed" when the change
fails a larger share of its operations than the parent or any change
run exits non-zero, else "ok".  "verdicts" lists every workload and
metric (or failures) that is not "ok".  With --claim, it also applies
the claim rule: the change wins at least nine tenths of the pairs, and
the medians differ, in the metric's better direction, by more than the
parent's interquartile range; and the change's run beats the parent's
on every held-out seed.  Every run is kept under "runs", and the
file is rewritten after each run, so an interrupted run leaves what it
measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    """'161-170' or '301,302' (or a mix) as a list of ints."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(command + args, cwd=checkout, capture_output=True, text=True)
    out = {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    try:
        record, result = (json.loads(line) for line in lines[-2:])
    except ValueError:
        return {**out, "stderr": proc.stderr[-2000:]}
    out["machine"] = record["machine"]
    out.update({k: result[k] for k in ("correct", "attempted", "failed")})
    out["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return out


def git_head(checkout: Path) -> str | None:
    """The commit checked out at `checkout`, from `git rev-parse`; None
    when git is missing or `checkout` is not the top of a work tree (a
    directory inside another repository would report that one's HEAD)."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != checkout.resolve():
        return None
    return lines[1]


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(parent: list[float], change: list[float], higher_is_better: bool,
            bound: float) -> dict:
    """Medians, quartiles, wins and the verdict over pairs (parent[i],
    change[i])."""
    sign = 1 if higher_is_better else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    tolerance = bound * abs(pq[1])
    # each side's value in the better direction: larger is better
    change_worst = min(sign * c for c in change)
    parent_best = max(sign * p for p in parent)
    if sign * (pq[1] - cq[1]) > tolerance:
        verdict = "regressed"
    elif pq[2] - pq[0] > tolerance and change_worst <= parent_best:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "parent_median": pq[1],
        "change_median": cq[1],
        "change_over_parent": cq[1] / pq[1] if pq[1] else None,
        "parent_quartiles": [pq[0], pq[2]],
        "change_quartiles": [cq[0], cq[2]],
        "parent_iqr": pq[2] - pq[0],
        "change_wins": wins,
        "change_losses": losses,
        "pairs": len(parent),
        "tolerance": tolerance,
        "verdict": verdict,
    }


def failures(runs: list[dict]) -> dict:
    """Per side, the failed and attempted operations summed over runs
    and the runs that exited non-zero, with the verdict."""
    out = {}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        out[side] = {"failed": sum(r.get("failed", 0) for r in mine),
                     "attempted": sum(r.get("attempted", 0) for r in mine),
                     "bad_exits": sum(r["exit"] != 0 for r in mine)}

    def share(counts: dict) -> float:
        return counts["failed"] / counts["attempted"] if counts["attempted"] else 0.0

    change = out["change"]
    worse = change["bad_exits"] or share(change) > share(out["parent"])
    out["verdict"] = "regressed" if worse else "ok"
    return out


def summarize(runs: list[dict], seeds: list[int], workloads: list[str],
              metrics: dict[str, tuple[str, float]]) -> dict:
    untraced = [r for r in runs if r["trace"] == 0]
    done = {(r["side"], r["workload"], r["seed"]): r["metrics"]
            for r in untraced if "metrics" in r}
    summary = {}
    for wl in workloads:
        mine = [r for r in untraced if r["workload"] == wl]
        if not mine:
            continue
        paired = [s for s in seeds if ("parent", wl, s) in done and ("change", wl, s) in done]
        summary[wl] = {
            name: compare([done["parent", wl, s][name] for s in paired],
                          [done["change", wl, s][name] for s in paired],
                          better == "higher", bound)
            for name, (better, bound) in metrics.items() if paired
        }
        summary[wl]["failures"] = failures(mine)
    return summary


def verdicts(summary: dict) -> dict[str, str]:
    """'WORKLOAD:METRIC' (or 'WORKLOAD:failures') -> verdict, for each
    one that is not "ok"."""
    return {f"{wl}:{name}": res["verdict"] for wl, by_metric in summary.items()
            for name, res in by_metric.items() if res["verdict"] != "ok"}


def claim_result(summary: dict, runs: list[dict], workload: str, metric: str,
                 higher_is_better: bool, held_out: list[int]) -> dict:
    """The claim rule for `metric` on `workload`: the summary's entry
    with "met", true when the change wins at least nine tenths of the
    pairs and the medians differ, in the better direction, by more than
    the parent's interquartile range; "held_out", for each held-out seed
    both sides have run untraced, whether the change's run beat the
    parent's in the better direction; and "held_out_met", true when
    every one of `held_out` has run and the change beat the parent on
    each."""
    res = summary[workload][metric]
    sign = 1 if higher_is_better else -1
    gap = sign * (res["change_median"] - res["parent_median"])
    value = {(r["side"], r["seed"]): r["metrics"][metric] for r in runs
             if r["trace"] == 0 and r["workload"] == workload and "metrics" in r}
    beat = {seed: sign * (value["change", seed] - value["parent", seed]) > 0
            for seed in held_out if ("parent", seed) in value and ("change", seed) in value}
    return {
        **res,
        "met": 10 * res["change_wins"] >= 9 * res["pairs"] and gap > res["parent_iqr"],
        "held_out": beat,
        "held_out_met": len(beat) == len(held_out) > 0 and all(beat.values()),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--held-out", type=seed_list, default=[])
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--claim", help="WORKLOAD:METRIC")
    ap.add_argument("--what", default="")
    ap.add_argument("-o", "--output", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    better = {name: b for name, (b, _) in metrics.items()}
    claim = args.claim.split(":") if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in workloads or claim[1] not in better):
        ap.error(f"--claim must be WORKLOAD:METRIC over {workloads} and {sorted(better)}")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {side: git_head(path) for side, path in sides.items()}
    plan = []
    for wl in workloads:
        for i, seed in enumerate(args.seeds + args.held_out):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            plan += [(side, wl, seed, 0) for side in order]
    if args.trace_seed is not None:
        plan += [(side, wl, args.trace_seed, 1) for wl in workloads for side in sides]

    out = {
        "what": args.what,
        "command": " ".join(command) + f" --workload W --seed N --seconds {seconds:g}"
        " --trace 0|1, run from the root of each checkout",
        "order": "per workload, pair i runs the parent first when i is even and the change"
        " first when it is odd; held-out seeds follow the pairs, traced runs come last",
        "seeds": {"pairs": args.seeds, "held_out": args.held_out, "traced": args.trace_seed},
        "runs": [],
    }
    runs = out["runs"]
    for n, (side, wl, seed, trace) in enumerate(plan, 1):
        run = {"side": side, **run_once(sides[side], command, wl, seed, seconds, trace)}
        runs.append(run)
        print(f"[{n}/{len(plan)}] {side} {wl} seed {seed} trace {trace}: exit {run['exit']}",
              file=sys.stderr)
        if "machine" in run:
            machine = run.pop("machine")
            recorded = machine.pop("commit", "unknown")
            out[f"{side}_commit"] = commits[side] or recorded
            out["machine"] = machine
        out["summary"] = summarize(runs, args.seeds, workloads, metrics)
        out["verdicts"] = verdicts(out["summary"])
        held_out = [s for s in args.held_out if s not in args.seeds]
        if claim and claim[1] in out["summary"].get(claim[0], {}):
            out["claim"] = {"workload": claim[0], "metric": claim[1]}
            out["claim_result"] = claim_result(out["summary"], runs, *claim,
                                               better[claim[1]] == "higher", held_out)
        held = [r for r in runs if r["trace"] == 0 and r["seed"] in held_out
                and "metrics" in r]
        out["held_out"] = {
            wl: {name: {s: [r["metrics"][name] for r in held
                            if r["workload"] == wl and r["side"] == s] for s in sides}
                 for name in better}
            for wl in workloads if any(r["workload"] == wl for r in held)
        }
        out["traced"] = {
            wl: {r["side"]: r["metrics"] for r in runs
                 if r["trace"] == 1 and r["workload"] == wl and "metrics" in r}
            for wl in workloads
        }
        args.output.write_text(json.dumps(out, indent=1) + "\n")
    failed = [r for r in runs if r["exit"] != 0]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
