"""The command line front end, run in-process via main()."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from wgnfa.cli import main, state_column
from wgnfa.generate import build_piece_trie
from wgnfa.index import build_index
from wgnfa.matcher import match_interval, run_steps
from wgnfa.model import escape_label, format_gnfa, parse_patterns

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def gnfa_file(tmp_path, ten_state):
    path = tmp_path / "ten.gnfa"
    path.write_text(format_gnfa(ten_state))
    return path


@pytest.fixture()
def four_file(tmp_path, four_state):
    path = tmp_path / "four.gnfa"
    path.write_text(format_gnfa(four_state))
    return path


@pytest.fixture()
def index_file(tmp_path, gnfa_file):
    out = tmp_path / "ten.wgx"
    assert main(["build", str(gnfa_file), "-o", str(out)]) == 0
    return out


def test_build_and_query(tmp_path, index_file, capsys):
    pats = tmp_path / "p.txt"
    pats.write_text("cba\na\n")
    capsys.readouterr()
    assert main(["query", str(index_file), "--patterns", str(pats)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "cba\t3\t2\t0\t\t-",
        "a\t2\t5\t4\t2,3,4,5\t-",
    ]


def test_query_empty_pattern_row(tmp_path, index_file, capsys):
    pats = tmp_path / "p.txt"
    pats.write_text("\n")
    capsys.readouterr()
    assert main(["query", str(index_file), "--patterns", str(pats)]) == 0
    out = capsys.readouterr().out
    assert out == "@e\t1\t10\t10\t1,2,3,4,5,6,7,8,9,10\t-\n"


def test_query_trace_output(tmp_path, index_file, capsys):
    pats = tmp_path / "p.txt"
    pats.write_text("cba\n")
    capsys.readouterr()
    assert main(["query", str(index_file), "--patterns", str(pats), "--trace"]) == 0
    out = capsys.readouterr().out
    golden = (GOLDEN / "ten_state_cba.trace.tsv").read_text()
    assert out == golden + "cba\t3\t2\t0\t\t-\n"


def test_query_accepted_column(tmp_path, gnfa_file, capsys):
    out = tmp_path / "s.wgx"
    assert main(["build", str(gnfa_file), "-o", str(out), "--sentinel"]) == 0
    pats = tmp_path / "p.txt"
    pats.write_text("bba\ncba\n\n")
    capsys.readouterr()
    assert main(["query", str(out), "--patterns", str(pats)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "bba\t3\t4\t2\t3,4\t1"
    assert lines[1] == "cba\t3\t2\t0\t\t0"
    assert lines[2].startswith("@e\t1\t10\t10\t") and lines[2].endswith("\t0")


def test_query_label_ending_in_next_line_byte(tmp_path, capsys):
    """A raw 0x85 at the end of a label is label content, not a line break."""
    src = tmp_path / "nel.gnfa"
    src.write_bytes(b"gnfa 1\nstates 2\ninitial 1\nfinal 2\nedge 1 2 a\x85\n")
    out = tmp_path / "nel.wgx"
    assert main(["build", str(src), "-o", str(out), "--sentinel"]) == 0
    pats = tmp_path / "p.txt"
    pats.write_bytes(b"a\x85\na\n")
    capsys.readouterr()
    assert main(["query", str(out), "--patterns", str(pats)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a\\x85\t2\t2\t1\t2\t1",
        "a\t2\t1\t0\t\t0",
    ]


def test_validate_ok(gnfa_file, capsys):
    assert main(["validate", str(gnfa_file), "--axiom1-depth", "5"]) == 0
    out = capsys.readouterr().out
    assert "axiom1\tok\tdepth=5" in out
    assert "epsilon\tok" in out
    assert "FAIL" not in out


def test_validate_epsilon_cycle(tmp_path, capsys):
    bad = tmp_path / "cyc.gnfa"
    bad.write_text(
        "gnfa 1\nstates 3\ninitial 1\nfinal 3\n"
        "edge 1 2 a\nedge 2 3 @e\nedge 3 2 @e\n"
    )
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "epsilon\tFAIL" in out


def test_validate_axiom1_fail_row(tmp_path, capsys):
    # state 3 is entered by baa, which sorts below state 2's ba
    bad = tmp_path / "ax1.gnfa"
    bad.write_text("gnfa 1\nstates 3\ninitial 1\nfinal 3\nedge 1 2 ba\nedge 2 3 a\n")
    assert main(["validate", str(bad), "--axiom1-depth", "3"]) == 1
    assert "axiom1\tFAIL\tstates 2<3\tba !< baa\n" in capsys.readouterr().out


def test_shared_strings_pass_axiom1(tmp_path, capsys):
    # states 2 and 3 are entered by the same strings, a and ba: no string
    # orders them, so axiom 1 holds, and an exact axiom-1 check must keep
    # accepting this automaton
    shared = tmp_path / "shared.gnfa"
    shared.write_text(
        "gnfa 1\nstates 3\ninitial 1\nfinal 2 3\n"
        "edge 1 2 a\nedge 1 2 ba\nedge 1 3 a\nedge 1 3 ba\n"
    )
    assert main(["validate", str(shared), "--axiom1-depth", "6"]) == 0
    assert main(["oracle-check", str(shared)]) == 0
    out = tmp_path / "shared.wgx"
    assert main(["build", str(shared), "-o", str(out), "--sentinel"]) == 0
    pats = tmp_path / "pats.txt"
    pats.write_text("a\nba\n")
    capsys.readouterr()
    assert main(["query", str(out), "--patterns", str(pats)]) == 0
    assert capsys.readouterr().out == "a\t2\t3\t2\t2,3\t1\nba\t2\t3\t2\t2,3\t1\n"


def test_validate_axiom3_fail_row(tmp_path, capsys):
    bad = tmp_path / "ax3.gnfa"
    bad.write_text("gnfa 1\nstates 3\ninitial 1\nfinal 2 3\nedge 1 2 b\nedge 1 3 a\n")
    assert main(["validate", str(bad)]) == 1
    assert "axiom3\tFAIL\t(1,2,b)\t(1,3,a)\n" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "build"])
def test_negative_axiom1_depth_is_usage_error(tmp_path, gnfa_file, capsys, command):
    out = tmp_path / "x.wgx"
    argv = [command, str(gnfa_file), "--axiom1-depth", "-1"]
    if command == "build":
        argv += ["-o", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "depth must be 0 or more" in capsys.readouterr().err
    assert not out.exists()


def test_build_rejects_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.gnfa"
    bad.write_text("gnfa 1\nstates 2\ninitial 1\nfinal 2\nedge 2 1 a\n")
    out = tmp_path / "x.wgx"
    assert main(["build", str(bad), "-o", str(out)]) == 1
    assert not out.exists()
    assert "FAIL" in capsys.readouterr().err


def test_closure_table(four_file, capsys):
    assert main(["closure", str(four_file)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "1\t1\t1\t1\t1",
        "2\t2\t2\t1\t1",
        "3\t3\t3\t1\t1",
        "4\t4\t3\t1\t0",
    ]


def test_closure_cycle_exit_code(tmp_path, capsys):
    bad = tmp_path / "cyc.gnfa"
    bad.write_text(
        "gnfa 1\nstates 3\ninitial 1\nfinal 3\n"
        "edge 1 2 a\nedge 2 3 @e\nedge 3 2 @e\n"
    )
    assert main(["closure", str(bad)]) == 1
    assert "epsilon cycle" in capsys.readouterr().err


def test_oracle_check_ok(gnfa_file, capsys):
    assert main(["oracle-check", str(gnfa_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok\t")


def test_oracle_check_divergence(tmp_path, scrambled_ten_state, capsys):
    path = tmp_path / "scrambled.gnfa"
    path.write_text(format_gnfa(scrambled_ten_state))
    assert main(["oracle-check", str(path)]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows and all(row.startswith("divergence\t") for row in rows)


def test_oracle_check_patterns_file(tmp_path, four_file, capsys):
    pats = tmp_path / "p.txt"
    pats.write_text("\nb\nba\nbb\nbc\nabc\n")
    assert main(["oracle-check", str(four_file), "--patterns", str(pats)]) == 0
    assert capsys.readouterr().out == "ok\t6\tpatterns\n"


def test_bench_space_lines(four_file, capsys):
    assert main(["bench", str(four_file)]) == 0
    out = capsys.readouterr().out
    assert "space.payload_bits\t176" in out
    assert "space.bound_bits\t704" in out
    assert "space.within_bound\t1" in out
    assert "space.file_bytes\t84" in out
    # summary, finals, b_max, b_min, dictionary and postings payloads
    assert "space.section_bytes\t3,1,1,1,7,9" in out


def test_build_is_byte_stable(tmp_path, gnfa_file):
    out1 = tmp_path / "a.wgx"
    out2 = tmp_path / "b.wgx"
    assert main(["build", str(gnfa_file), "-o", str(out1)]) == 0
    assert main(["build", str(gnfa_file), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.gnfa")]) == 3
    assert "error:" in capsys.readouterr().err


def test_exit_code_bad_format(tmp_path, capsys):
    bad = tmp_path / "junk.gnfa"
    bad.write_text("not an automaton\n")
    assert main(["validate", str(bad)]) == 3


def test_exit_code_bad_index(tmp_path, capsys):
    junk = tmp_path / "junk.wgx"
    junk.write_bytes(b"JUNKJUNKJUNK")
    pats = tmp_path / "p.txt"
    pats.write_text("a\n")
    assert main(["query", str(junk), "--patterns", str(pats)]) == 3



def test_exit_code_v1_index(tmp_path, index_file, capsys):
    data = bytearray(index_file.read_bytes())
    data[4] = 1
    index_file.write_bytes(bytes(data))
    pats = tmp_path / "p.txt"
    pats.write_text("a\n")
    assert main(["query", str(index_file), "--patterns", str(pats)]) == 3
    assert "unsupported index version 1" in capsys.readouterr().err

def test_exit_code_sentinel_pattern(tmp_path, index_file, capsys):
    pats = tmp_path / "p.txt"
    pats.write_text("a\\x01b\n")
    assert main(["query", str(index_file), "--patterns", str(pats)]) == 3


def test_sentinel_pattern_refused_before_any_row(tmp_path, index_file, capsys):
    pats = tmp_path / "p.txt"
    pats.write_text("a\nb\\x01\ncba\n")
    capsys.readouterr()
    assert main(["query", str(index_file), "--patterns", str(pats)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0x01" in captured.err


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("sentinel", [False, True])
def test_query_rows_out_of_sorted_order(tmp_path, gnfa_file, ten_state, capsys, sentinel, trace):
    # duplicates, the empty pattern, prefixes of later patterns and
    # patterns without a match, none of it sorted: rows come back in
    # input order, each as a lone match_interval call would give it
    wgx, pats = tmp_path / "t.wgx", tmp_path / "p.txt"
    flags = ["--sentinel"] if sentinel else []
    assert main(["build", str(gnfa_file), "-o", str(wgx)] + flags) == 0
    lines = ["cba", "ba", "", "bba", "b", "cba", "zz", "a", "bb", "", "ca", "c"]
    pats.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    argv = ["query", str(wgx), "--patterns", str(pats)] + (["--trace"] if trace else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    ix = build_index(ten_state, with_sentinel=sentinel)
    want = []
    for p in parse_patterns(pats.read_bytes()):
        res = match_interval(ix, p)
        if trace and p:
            want.append(run_steps(ix, p).dump_tsv() + "\n")
        states = ",".join(map(str, range(res.lo, res.hi + 1)))
        acc = "-" if res.accepted is None else ("1" if res.accepted else "0")
        want.append(f"{escape_label(p)}\t{res.lo}\t{res.hi}\t{res.count}\t{states}\t{acc}\n")
    assert out == "".join(want)
    if trace and not sentinel:
        golden = (GOLDEN / "ten_state_cba.trace.tsv").read_text()
        assert out.startswith(golden + "cba\t3\t2\t0\t\t-\n")


def test_exit_code_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_query_stdin(tmp_path, index_file, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(b"a\n")})())
    assert main(["query", str(index_file)]) == 0
    assert capsys.readouterr().out == "a\t2\t5\t4\t2,3,4,5\t-\n"


def test_state_column_slices():
    # every interval with both ends near a digit-width boundary, on an n
    # past the 4-to-5-digit one; then every interval of the small n
    near = [q for b in (10, 100, 1000, 10_000) for q in range(b - 4, b + 4)]
    n = 10_003
    states = state_column(n)
    for lo in near + [1]:
        for hi in near + [1, n]:
            assert states(lo, hi) == ",".join(map(str, range(lo, hi + 1))), (lo, hi)
    assert states(1, n) == ",".join(map(str, range(1, n + 1)))
    assert states(5000, 4999) == ""
    # n and interval ends away from the digit-width boundaries
    for n in (4096, 4097, 8192):
        states = state_column(n)
        ends = [q for q in near + [4095, 4096, 4097, 4098, 8191] if q <= n] + [1, n]
        for lo in ends:
            for hi in ends:
                assert states(lo, hi) == ",".join(map(str, range(lo, hi + 1))), (n, lo, hi)
    for n in range(13):
        states = state_column(n)
        for lo in range(1, n + 2):
            for hi in range(lo - 2, n + 1):
                assert states(lo, hi) == ",".join(map(str, range(lo, hi + 1))), (n, lo, hi)


@pytest.mark.parametrize(
    "n", [0, 1, 9, 10, 999, 1000, 1001, 9999, 10000, 10001, 85492]
)
def test_state_column_text(n):
    # the whole text, with a last thousand that is absent, one state
    # long, full or partial
    want = "".join(f"{i}," for i in range(1, n + 1))
    assert state_column(n)(1, n) == want[:-1]


def test_state_column_rejects_outside_interval():
    states = state_column(10_003)
    for lo, hi in ((0, 5), (-3, 2), (1, 10_004), (10_004, 10_004), (9_999, 10_010)):
        with pytest.raises(ValueError, match="outside"):
            states(lo, hi)
    with pytest.raises(ValueError):
        state_column(0)(1, 1)


@pytest.mark.parametrize("sentinel", [False, True])
def test_query_rows_on_10k_trie(tmp_path, capsys, sentinel):
    # the criterion-09 trie: every row's state list must read as the
    # states lo..hi joined one by one
    rng = random.Random(271828)
    a = build_piece_trie(
        rng, n_strings=1300, max_string_len=28, max_piece_len=2, alphabet=b"abcd"
    )
    gnfa, wgx, pats = tmp_path / "t.gnfa", tmp_path / "t.wgx", tmp_path / "p.txt"
    gnfa.write_text(format_gnfa(a))
    flags = ["--sentinel"] if sentinel else []
    assert main(["build", str(gnfa), "-o", str(wgx)] + flags) == 0
    lines = ["", "a", "b", "cd", "dddddddddddd"]
    lines += ["".join(rng.choice("abcd") for _ in range(rng.randint(1, 6))) for _ in range(200)]
    pats.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert main(["query", str(wgx), "--patterns", str(pats)]) == 0
    rows = capsys.readouterr().out.splitlines()
    ix = build_index(a, with_sentinel=sentinel)
    patterns = parse_patterns(pats.read_bytes())
    assert len(rows) == len(patterns)
    for row, p in zip(rows, patterns):
        res = match_interval(ix, p)
        states = ",".join(map(str, range(res.lo, res.hi + 1)))
        acc = "-" if res.accepted is None else ("1" if res.accepted else "0")
        assert row == f"{escape_label(p)}\t{res.lo}\t{res.hi}\t{res.count}\t{states}\t{acc}"
    assert rows[0].split("\t")[3] == str(a.state_count)


def test_cli_import_leaves_numpy_unloaded():
    """Every command starts by importing wgnfa.cli, in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import sys, wgnfa.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_generate_unloaded():
    """The package root resolves build_piece_trie only when asked for it,
    so no command pays for importing the generator up front."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = (
        "import sys, wgnfa.cli; print('wgnfa.generate' in sys.modules); "
        "from wgnfa import build_piece_trie; print(build_piece_trie.__module__)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "wgnfa.generate"]
