#!/usr/bin/env python3
"""Benchmark for the wgnfa build and query pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  The workloads are defined in workloads.py.  Each run draws its
inputs from --seed, sets up in one child process and measures in a
fresh one (child.py), checks every answer against reference.py, and
prints as its last stdout line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The line before it records the machine, the sizes and the per-sample
quartiles behind each metric.  The exit code is 1 when any answer is
wrong and 2 when the run could not be made.

End-to-end metrics, all per workload.  Every time is a wall time
scaled to a fixed machine speed by a probe loop the benchmark runs
during the call (speed.py); the record line keeps the raw times too.
  setup_s        median wall time of one set-up (draw inputs, write files,
                 and on the query workloads build the index with the library)
  build_s        median `wgnfa build --sentinel` wall time on build-3k; on
                 the query workloads parse_gnfa + build_index + serialize
                 in-process (no validation: it is quadratic in the edges)
  query_s        median `wgnfa query` wall time over the query file
  patterns_per_s, symbols_per_s   the query file's size over query_s
  match_p50_us, match_p99_us      per match_interval call over the 2,000
                 short probe patterns (20 samples beyond p99), median
                 over five passes
  peak_rss_mib   ru_maxrss of the measuring process after the CLI calls
  index_heap_mib deserialized index size under tracemalloc (own pass)
  file_bytes     size of the .wgx container
  correct_share  answers right over answers checked (any wrong answer
                 also makes the run exit 1)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import INDEX_OPS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "query_s": "s",
    "patterns_per_s": "1/s",
    "symbols_per_s": "1/s",
    "match_p50_us": "us",
    "match_p99_us": "us",
    "peak_rss_mib": "MiB",
    "index_heap_mib": "MiB",
    "file_bytes": "B",
    "correct_share": "share",
}

PER_LAYER = {
    "model.parse_s": "s",
    "model.validate_s": "s",
    "closure.build_s": "s",
    "closure.edge_visits": "count",
    "index.build_s": "s",
    "serial.serialize_s": "s",
    "serial.deserialize_s": "s",
    "serial.payload_bits": "bit",
    "index.heap_bytes": "B",
    "index.heap_per_file_byte": "B/B",
    "matcher.match_s": "s",
    "matcher.accepts_s": "s",
    "matcher.ops_per_symbol": "ops/symbol",
    "matcher.us_per_symbol": "us/symbol",
    **{f"index.{op}.{part}": unit for op in INDEX_OPS for part, unit in (("calls", "count"), ("s", "s"))},
    "bitvec.rank1.calls": "count",
    "bitvec.select1.calls": "count",
    "bitvec.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _self_time_sum(layers: dict) -> float:
    return sum(v for k, v in layers.items() if not k.startswith("_") and k.endswith(("_s", ".s")))


def per_layer_metrics(setup: dict, meas: dict, focus: str) -> dict:
    """Median per layer over the traced episodes of each kind, summed
    over kinds (a layer is busy in one kind per workload)."""
    episodes = setup["episodes"] + meas["episodes"]
    by_kind: dict[str, list[dict]] = {}
    for ep in episodes:
        by_kind.setdefault(ep["kind"], []).append(ep["layers"])
    out = {name: 0.0 for name in PER_LAYER}
    for layer_list in by_kind.values():
        keys = {k for layers in layer_list for k in layers if not k.startswith("_")}
        for k in keys:
            out[k] = out.get(k, 0.0) + statistics.median(lay.get(k, 0) for lay in layer_list)
    per_symbol = [
        (lay["_match_ops"] / lay["_match_symbols"], 1e6 * lay["_match_incl_s"] / lay["_match_symbols"])
        for lay in (ep["layers"] for ep in episodes)
        if lay.get("_match_symbols")
    ]
    if per_symbol:
        out["matcher.ops_per_symbol"] = statistics.median(x for x, _ in per_symbol)
        out["matcher.us_per_symbol"] = statistics.median(y for _, y in per_symbol)
    out["cli.output_bytes"] = sum(meas["output_bytes"].values())
    out["serial.payload_bits"] = meas["payload_bits"]
    out["index.heap_bytes"] = meas["heap_bytes"]
    out["index.heap_per_file_byte"] = meas["heap_bytes"] / meas["file_bytes"]
    out["trace.wall_s"] = _median_scaled(meas["times"][f"traced_{focus}"])
    out["trace.overhead_s"] = out["trace.wall_s"] - _median_scaled(meas["times"][focus])
    out["trace.unattributed_s"] = statistics.median(
        ep["wall_s"] - _self_time_sum(ep["layers"]) for ep in meas["episodes"] if ep["kind"] == focus
    )
    return out


def _median_scaled(times: list) -> float:
    return statistics.median(scaled for _, scaled in times)


def end_to_end_metrics(wl, setup: dict, meas: dict) -> dict:
    query_s = _median_scaled(meas["times"]["query"])
    pct = [statistics.quantiles(one, n=100, method="inclusive") for one in meas["latency_s"]]
    return {
        "setup_s": _median_scaled(setup["setup_times"]),
        "build_s": _median_scaled(meas["times"]["build"]),
        "query_s": query_s,
        "patterns_per_s": meas["query_patterns"] / query_s,
        "symbols_per_s": meas["query_symbols"] / query_s,
        "match_p50_us": 1e6 * statistics.median(p[49] for p in pct),
        "match_p99_us": 1e6 * statistics.median(p[98] for p in pct),
        "peak_rss_mib": meas["peak_rss_kib"] / 1024,
        "index_heap_mib": meas["heap_bytes"] / 2**20,
        "file_bytes": meas["file_bytes"],
    }


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(Path.cwd()),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(phase: str, args, work: Path, src: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"), phase,
        "--work", str(work), "--src", str(src), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # the child's stdout goes to our stderr: only the result lines belong on stdout
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads((work / f"{phase}.json").read_text())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="wgnfa build/query benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    src = Path.cwd() / "src"
    if not (src / "wgnfa" / "__init__.py").is_file():
        print(f"error: no wgnfa sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = HERE / ".work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = run_child("setup", args, work, src, deadline)
        meas = run_child("measure", args, work, src, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = meas["attempted"] + setup["oracle_checked"]
    failed = meas["failed"] + len(setup["oracle_problems"])
    if args.trace:
        values, units = per_layer_metrics(setup, meas, wl.focus), PER_LAYER
    else:
        values, units = end_to_end_metrics(wl, setup, meas), END_TO_END
        values["correct_share"] = 1 - failed / attempted
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trie_seed": setup["trie_seed"],
        "states": setup["states"],
        "edges": setup["edges"],
        "machine": {**machine(), "numpy": meas["numpy"]},
        # quartiles of the raw and the speed-scaled times behind each metric
        "samples": {
            f"{kind}_s": {
                "n": len(times),
                "raw": quartiles([raw for raw, _ in times]),
                "scaled": quartiles([scaled for _, scaled in times]),
            }
            for kind, times in [("setup", setup["setup_times"])] + list(meas["times"].items())
            if times
        },
        "errors": setup["oracle_problems"] + meas["errors"],
        "missing_trace_targets": meas.get("missing_targets", []),
    }
    (work / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
