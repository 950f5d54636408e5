"""Verdict rules of scripts/bench_pairs.py, on made-up runs."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_seed_list():
    assert bench_pairs.seed_list("161-163,301") == [161, 162, 163, 301]
    assert bench_pairs.seed_list("7") == [7]


# parent median 1.0, quartiles 0.99 and 1.01; bound 0.1 gives tolerance 0.1
PARENT = [0.98, 0.99, 1.0, 1.01, 1.02]


def test_compare_regressed_just_past_the_bound():
    res = bench_pairs.compare(PARENT, [x + 0.11 for x in PARENT], False, 0.1)
    assert res["parent_median"] == 1.0
    assert abs(res["tolerance"] - 0.1) < 1e-12
    assert res["verdict"] == "regressed"
    assert (res["change_wins"], res["change_losses"]) == (0, 5)


def test_compare_ok_just_inside_the_bound():
    res = bench_pairs.compare(PARENT, [x + 0.09 for x in PARENT], False, 0.1)
    assert res["verdict"] == "ok"


def test_compare_direction_follows_better():
    # lower values are worse when higher is better
    res = bench_pairs.compare(PARENT, [x - 0.11 for x in PARENT], True, 0.1)
    assert res["verdict"] == "regressed"
    res = bench_pairs.compare(PARENT, [x + 0.11 for x in PARENT], True, 0.1)
    assert res["verdict"] == "ok"


def test_compare_unresolved_when_parent_spreads_and_runs_overlap():
    parent = [0.5, 0.8, 1.0, 1.2, 1.5]  # IQR 0.4 against tolerance 0.1
    change = [0.6, 0.9, 1.05, 1.1, 1.4]
    res = bench_pairs.compare(parent, change, False, 0.1)
    assert res["parent_iqr"] > res["tolerance"]
    assert res["verdict"] == "unresolved"


def test_compare_ok_when_every_change_run_beats_every_parent_run():
    parent = [0.5, 0.8, 1.0, 1.2, 1.5]
    change = [0.1, 0.2, 0.3, 0.4, 0.45]
    res = bench_pairs.compare(parent, change, False, 0.1)
    assert res["parent_iqr"] > res["tolerance"]
    assert res["verdict"] == "ok"


def _run(side, seed, failed=0, attempted=100, exit=0, trace=0):
    return {"side": side, "workload": "w", "seed": seed, "trace": trace, "exit": exit,
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"query_s": 1.0}}


METRICS = {"query_s": ("lower", 0.25)}


def _failures(runs):
    summary = bench_pairs.summarize(runs, [1, 2], ["w"], METRICS)
    return summary["w"]["failures"]


def test_failures_ok_when_no_side_fails():
    runs = [_run(side, seed) for seed in (1, 2) for side in ("parent", "change")]
    res = _failures(runs)
    assert res["verdict"] == "ok"
    assert res["change"] == {"failed": 0, "attempted": 200, "bad_exits": 0}


def test_failures_regressed_on_a_larger_failed_share():
    runs = [_run("parent", 1, failed=1), _run("parent", 2),
            _run("change", 1, failed=1), _run("change", 2, failed=1)]
    assert _failures(runs)["verdict"] == "regressed"
    # the same share is not worse, and neither is a smaller one
    runs[3] = _run("change", 2)
    assert _failures(runs)["verdict"] == "ok"
    runs[2] = _run("change", 1, attempted=300, failed=1)
    assert _failures(runs)["verdict"] == "ok"


def test_failures_regressed_on_a_bad_exit_of_the_change():
    runs = [_run("parent", 1), _run("parent", 2), _run("change", 1)]
    runs.append({"side": "change", "workload": "w", "seed": 2, "trace": 0, "exit": 1,
                 "stderr": "boom"})
    res = _failures(runs)
    assert res["change"] == {"failed": 0, "attempted": 100, "bad_exits": 1}
    assert res["verdict"] == "regressed"
    # a parent that exits non-zero does not make the change regress
    runs = [_run("parent", 1, exit=1), _run("change", 1)]
    assert _failures(runs)["verdict"] == "ok"


def test_failures_count_untraced_runs_only_and_reach_verdicts():
    runs = [_run("parent", 1), _run("change", 1),
            _run("change", 1, failed=5, exit=1, trace=1)]
    assert _failures(runs)["verdict"] == "ok"
    # every change run failing leaves no pair, and failures still shows
    runs = [_run("parent", 1), _run("change", 1, failed=3, exit=1)]
    runs[1].pop("metrics")
    summary = bench_pairs.summarize(runs, [1], ["w"], METRICS)
    assert list(summary["w"]) == ["failures"]
    assert bench_pairs.verdicts(summary) == {"w:failures": "regressed"}


def _claim_runs(parent, change, held_parent, held_change):
    """Untraced runs of the pairs at seeds 1.. and of held-out seeds
    101.., one per side and seed, plus a traced run that must not count."""
    pairs, held = list(range(1, len(parent) + 1)), list(range(101, 101 + len(held_parent)))
    runs = []
    for seeds, p_values, c_values in ((pairs, parent, change), (held, held_parent, held_change)):
        for seed, p, c in zip(seeds, p_values, c_values):
            for side, value in (("parent", p), ("change", c)):
                runs.append({**_run(side, seed), "metrics": {"symbols_per_s": value}})
    runs.append({**_run("change", 101, trace=1), "metrics": {"symbols_per_s": 0.0}})
    return runs, pairs, held


def _claim(parent, change, held_parent, held_change, better="higher", drop=None):
    runs, pairs, held = _claim_runs(parent, change, held_parent, held_change)
    runs = [r for r in runs if (r["side"], r["seed"], r["trace"]) != drop]
    summary = bench_pairs.summarize(runs, pairs, ["w"], {"symbols_per_s": (better, 0.25)})
    return bench_pairs.claim_result(summary, runs, "w", "symbols_per_s", better == "higher", held)


TEN = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
FASTER = [x * 1.1 for x in TEN]


def test_claim_met_and_held_out_met():
    res = _claim(TEN, FASTER, [1.0, 1.0], [1.1, 1.05])
    assert res["met"] and res["change_wins"] == 10
    assert res["held_out"] == {101: True, 102: True}
    assert res["held_out_met"]


def test_claim_held_out_fails_on_one_seed():
    # the pairs meet the claim, but the change loses one held-out seed and
    # ties the other: a tie is not a win
    res = _claim(TEN, FASTER, [1.0, 1.0], [0.9, 1.0])
    assert res["met"]
    assert res["held_out"] == {101: False, 102: False}
    assert not res["held_out_met"]
    res = _claim(TEN, FASTER, [1.0, 1.0], [1.1, 0.99])
    assert res["held_out"] == {101: True, 102: False} and not res["held_out_met"]


def test_claim_held_out_follows_the_better_direction():
    # lower is better: the change's lower values beat the parent
    slower = [x * 0.9 for x in TEN]
    res = _claim(TEN, slower, [1.0], [0.95], better="lower")
    assert res["met"] and res["held_out"] == {101: True} and res["held_out_met"]
    res = _claim(TEN, slower, [1.0], [1.05], better="lower")
    assert res["held_out"] == {101: False} and not res["held_out_met"]


def test_claim_not_met_on_eight_wins_or_a_small_gap():
    change = list(FASTER)
    change[0] = change[1] = 0.5
    res = _claim(TEN, change, [1.0], [1.1])
    assert res["change_wins"] == 8 and not res["met"]
    # ten wins, but by less than the parent's interquartile range; the
    # held-out verdict is reported on its own
    res = _claim(TEN, [x + 0.001 for x in TEN], [1.0], [1.1])
    assert res["change_wins"] == 10 and res["parent_iqr"] > 0.001 and not res["met"]
    assert res["held_out_met"]


def test_claim_held_out_not_met_until_every_seed_ran():
    assert _claim(TEN, FASTER, [1.0, 1.0], [1.1, 1.1])["held_out_met"]
    # the change's run at seed 102 is missing, as while the runs go on or
    # when it failed: seed 101 alone does not meet the held-out check
    res = _claim(TEN, FASTER, [1.0, 1.0], [1.1, 1.1], drop=("change", 102, 0))
    assert res["held_out"] == {101: True} and not res["held_out_met"]
    # no held-out seed at all: nothing held out was shown
    res = _claim(TEN, FASTER, [], [])
    assert res["held_out"] == {} and not res["held_out_met"]


# -- the commits a summary records -------------------------------------------

# prints the two lines perfbench/run.py ends with: the run record, whose
# machine.commit reads "recorded", and the result
_FAKE_RUN = """import json
print(json.dumps({"machine": {"commit": "recorded", "python": "3"}}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"query_s": {"value": 1.0}}}))
"""


def _git(*args, cwd):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=cwd, check=True, capture_output=True)


def _checkout(path):
    path.mkdir()
    (path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "fake_run.py"], "run_seconds": 0.1,
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "query_s", "better": "lower", "bound": 0.25}],
    }))
    (path / "fake_run.py").write_text(_FAKE_RUN)
    return path


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_commits_asked_of_git_then_read_from_the_run(tmp_path):
    """A repository's HEAD is recorded, also for a checkout whose .git is
    a file naming the git directory (as a worktree's is, which
    perfbench/run.py's reader of .git/HEAD reports as unknown); a
    directory that is no work tree's top falls back to the run record."""
    repo = _checkout(tmp_path / "repo")
    _git("init", "-q", cwd=repo)
    _git("add", "-A", cwd=repo)
    _git("commit", "-q", "-m", "one", cwd=repo)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()
    linked = _checkout(tmp_path / "linked")
    (linked / ".git").write_text(f"gitdir: {repo / '.git'}\n")
    plain = _checkout(repo / "plain")  # inside the repository, not its top
    assert bench_pairs.git_head(repo) == bench_pairs.git_head(linked) == head
    assert bench_pairs.git_head(plain) is None
    assert bench_pairs.git_head(tmp_path / "missing") is None

    for parent, change, want in ((repo, linked, (head, head)), (plain, repo, ("recorded", head))):
        out = tmp_path / "bench.json"
        assert bench_pairs.main([str(parent), str(change), "--seeds", "1", "-o", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert (summary["parent_commit"], summary["change_commit"]) == want
        assert "commit" not in summary["machine"]
