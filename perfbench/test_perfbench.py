"""Self-test for the benchmark: its answer check fires, its tracing sees
every layer, and it prints every metric BENCHMARK.json declares.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the checkout root.  The last test makes one short run of every
workload in both modes and takes a few minutes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from reference import Answer, PieceTrieReference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import wgnfa  # noqa: E402
import wgnfa.cli  # noqa: E402
from wgnfa import build_piece_trie, format_gnfa  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture()
def tiny(tmp_path):
    """A tiny sentinel workload: trie, index built by the CLI, patterns."""
    a = build_piece_trie(
        random.Random(5), n_strings=8, max_string_len=7, max_piece_len=2, alphabet=b"abc"
    )
    (tmp_path / "input.gnfa").write_text(format_gnfa(a))
    assert wgnfa.cli.main(
        ["build", str(tmp_path / "input.gnfa"), "-o", str(tmp_path / "index.wgx"), "--sentinel"]
    ) == 0
    ref = PieceTrieReference(a.state_count, a.edges, a.finals, sentinel=True)
    spelled = sorted(ref.strings[q] for q in a.finals)
    patterns = spelled + [s[1:] for s in spelled if len(s) > 1] + [b"a", b"cc", b"abcabc"]
    for name in ("queries.txt", "probes.txt"):
        child._write_patterns(tmp_path / name, patterns)
    return a, ref, patterns


def _measurement(tmp_path, answers: list[Answer]) -> child.Measurement:
    patterns = child._read_patterns(tmp_path / "queries.txt")
    digest = child._expected_digest(patterns, answers)
    setup = {
        "query_answers": child._answer_rows(answers),
        "probe_answers": child._answer_rows(answers),
        "query_digest": digest,
    }
    wl = WORKLOADS["query-batch-85k"]  # a query workload on a sentinel index
    return child.Measurement(wl, tmp_path, setup, wgnfa)


def _corrupt(answers: list[Answer]) -> list[Answer]:
    """Shift one nonempty interval up by one and flip one membership bit."""
    out = list(answers)
    i = next(k for k, a in enumerate(out) if a.count > 0)
    a = out[i]
    out[i] = Answer(a.lo + 1, a.hi + 1, a.count, a.accepted)
    j = next(k for k, a in enumerate(out) if k != i)
    b = out[j]
    out[j] = Answer(b.lo, b.hi, b.count, not b.accepted)
    return out


def test_reference_agrees_with_program_and_oracle(tiny, tmp_path):
    a, ref, patterns = tiny
    answers = [ref.answer(p) for p in patterns]
    assert any(x.accepted for x in answers) and any(x.count == 0 for x in answers)
    m = _measurement(tmp_path, answers)
    m.query()
    m.latency_pass(wgnfa)
    assert (m.check.attempted, m.check.failed) == (2 * len(patterns), 0)
    assert child.oracle_disagreements(a, ref, patterns) == []


def test_check_flags_shifted_interval_and_flipped_membership(tiny, tmp_path):
    _, ref, patterns = tiny
    wrong = _corrupt([ref.answer(p) for p in patterns])
    m = _measurement(tmp_path, wrong)
    m.query()
    assert m.check.failed == 2, m.check.errors
    m.latency_pass(wgnfa)
    assert m.check.failed == 4, m.check.errors


def test_count_wrong_lines_counts_missing_rows():
    expected = ["a\t1\t1\t1\t1\t1", "b\t2\t1\t0\t\t0"]
    assert reference.count_wrong_lines(expected, expected) == 0
    assert reference.count_wrong_lines(expected, expected[:1]) == 1


def test_tracer_wraps_names_where_the_cli_looks_them_up():
    tracer = Tracer()
    originals = {name: getattr(wgnfa.cli, name) for name in
                 ("validate", "build_index", "serialize", "deserialize", "match_interval")}
    with tracer.installed():
        for name, fn in originals.items():
            assert getattr(wgnfa.cli, name) is not fn
            assert getattr(wgnfa.cli, name).__wrapped__ is fn
    assert tracer.missing == []
    for name, fn in originals.items():
        assert getattr(wgnfa.cli, name) is fn


def test_declared_metrics_match_benchmark_json():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "build-3k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        BENCHMARK["command"]
        + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert record["missing_trace_targets"] == []
    return result["metrics"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_its_unit(workload):
    e2e = _run(workload, 0)
    assert {k: v["unit"] for k, v in e2e.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in e2e.values()), e2e

    layers = _run(workload, 1)
    assert {k: v["unit"] for k, v in layers.items()} == run.PER_LAYER
    value = {k: v["value"] for k, v in layers.items()}
    # the per-layer self times of the measured operation add up to its
    # traced wall time, within the tracing overhead
    assert abs(value["trace.unattributed_s"]) <= abs(value["trace.overhead_s"])
    for name in ("cli.self_s", "serial.deserialize_s", "matcher.match_s", "bitvec.s",
                 "index.out_count.s", "index.marker_floor.calls", "model.parse_s",
                 "closure.build_s", "index.build_s", "serial.serialize_s"):
        assert value[name] > 0, name
    if workload == "build-3k":
        build_layers = ("model.parse_s", "model.validate_s", "closure.build_s",
                        "index.build_s", "serial.serialize_s")
        assert max(build_layers, key=value.get) == "model.validate_s"
    if WORKLOADS[workload].sentinel:
        assert value["matcher.accepts_s"] > 0 and value["index.finals_in.calls"] > 0
