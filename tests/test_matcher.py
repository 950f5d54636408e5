"""The two-counter recursion, interval queries and membership."""

from __future__ import annotations

import itertools
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgnfa.index import build_index
from wgnfa.matcher import (
    SentinelInPatternError,
    accepts,
    match_interval,
    match_patterns,
    run_steps,
)
from wgnfa.model import SENTINEL_BYTES
from wgnfa.oracle import brute_accepts

from conftest import corpus_names, load_index, load_instance, load_sidecar_patterns

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_trace_cba(ten_state_index):
    tr = run_steps(ten_state_index, b"cba")
    assert tr.c == [0, 9, 9, 2]
    assert tr.d == [10, 10, 9, 2]
    s1, s2, s3 = tr.steps
    assert (s1.j_star, s1.i_star, s1.h_star, s1.t_star) == (9, 10, 10, 9)
    assert s2.f == {1: 2} and s2.g == {1: 2}
    assert (s2.j_star, s2.i_star, s2.h_star) == (9, 0, 9)
    assert s3.f == {1: 3, 2: 2}
    assert s3.g == {1: 3, 2: 2}
    assert (s3.j_star, s3.i_star, s3.h_star, s3.t_star) == (4, 0, 2, 2)
    assert (s3.c, s3.d) == (2, 2)
    assert tr.ops == 22


def test_trace_cba_golden(ten_state_index):
    want = (GOLDEN / "ten_state_cba.trace.tsv").read_text().rstrip("\n")
    assert run_steps(ten_state_index, b"cba").dump_tsv() == want


def test_trace_bb_golden(four_state_index):
    want = (GOLDEN / "four_state_bb.trace.tsv").read_text().rstrip("\n")
    assert run_steps(four_state_index, b"bb").dump_tsv() == want


def test_trace_single_symbol(ten_state_index):
    tr = run_steps(ten_state_index, b"a")
    assert tr.c == [0, 1] and tr.d == [10, 5]
    (s1,) = tr.steps
    assert (s1.j_star, s1.i_star, s1.h_star) == (1, 5, 5)
    assert s1.f == {} and s1.g == {}


def test_trace_ca_upper_rounds_to_marker(ten_state_index):
    # h* lands on state 4 via the forced "ca" targets, then the epsilon
    # closure pushes the upper boundary to 5
    tr = run_steps(ten_state_index, b"ca")
    assert tr.c == [0, 9, 2] and tr.d == [10, 10, 5]
    assert tr.steps[1].i_star == 5
    assert tr.steps[1].h_star == 5


def test_trace_upper_forced_past_lower(four_state_index):
    # on "b" the lower bound stops at 2 but the b-edge target 3 forces
    # the upper past it, and rounding up crosses the epsilon target 4
    tr = run_steps(four_state_index, b"b")
    assert tr.c == [0, 2] and tr.d == [4, 4]
    (s1,) = tr.steps
    assert (s1.i_star, s1.h_star) == (3, 3)
    assert s1.d == 4


def test_trace_empty_suffixed_block(four_state_index):
    # second step of "bb": h* == c == 3, so d snaps to c with no rounding
    tr = run_steps(four_state_index, b"bb")
    assert tr.c == [0, 2, 3] and tr.d == [4, 4, 3]
    s2 = tr.steps[1]
    assert (s2.h_star, s2.c, s2.d) == (3, 3, 3)


def test_match_interval_values(ten_state_index):
    cases = {
        b"": (1, 10, 10),
        b"a": (2, 5, 4),
        b"ba": (3, 4, 2),
        b"bba": (3, 4, 2),
        b"cba": (3, 2, 0),
    }
    for pat, (lo, hi, count) in cases.items():
        res = match_interval(ten_state_index, pat)
        assert (res.lo, res.hi, res.count) == (lo, hi, count)
        assert res.accepted is None


def test_empty_pattern_short_circuits(ten_state_index):
    res = match_interval(ten_state_index, b"")
    assert (res.lo, res.hi) == (1, 10)
    assert res.trace.ops == 0


def test_sentinel_index_translation(ten_state, four_state):
    for a in (ten_state, four_state):
        plain = build_index(a)
        sent = build_index(a, with_sentinel=True)
        for pat in (b"", b"a", b"b", b"ba", b"bb", b"cba", b"ab"):
            rp = match_interval(plain, pat)
            rs = match_interval(sent, pat)
            assert (rs.lo, rs.hi, rs.count) == (rp.lo, rp.hi, rp.count)


def test_acceptance_ten_state(ten_state):
    ix = build_index(ten_state, with_sentinel=True)
    for pat in (b"", b"a", b"ba", b"cba"):
        assert accepts(ix, pat) is False
        assert match_interval(ix, pat).accepted is False
    for pat in (b"bba", b"aca", b"cca"):
        assert accepts(ix, pat) is True
        assert match_interval(ix, pat).accepted is True
    for pat in (b"", b"a", b"ba", b"cba", b"bba", b"aca", b"cca", b"caca"):
        assert accepts(ix, pat) == brute_accepts(ten_state, pat)


def test_acceptance_four_state(four_state):
    ix = build_index(four_state, with_sentinel=True)
    for pat, want in ((b"", False), (b"b", True), (b"ba", True), (b"bc", True), (b"bac", False)):
        assert accepts(ix, pat) is want
        assert brute_accepts(four_state, pat) is want


def test_accepts_requires_sentinel(ten_state_index):
    with pytest.raises(ValueError, match="sentinel"):
        accepts(ten_state_index, b"a")


def test_sentinel_byte_rejected(ten_state, ten_state_index):
    with pytest.raises(SentinelInPatternError):
        match_interval(ten_state_index, b"a\x01b")
    sent = build_index(ten_state, with_sentinel=True)
    with pytest.raises(SentinelInPatternError):
        accepts(sent, b"\x01")


def test_ops_counter_bounded(ten_state_index):
    # per symbol: at most 2r counting ops, r label bounds, the floor,
    # r forced-boundary lookups, the suffix max and the ceiling
    r = ten_state_index.r
    for pat in (b"a", b"ba", b"cba", b"aaaa", b"abcabc"):
        tr = run_steps(ten_state_index, pat)
        assert tr.ops <= (4 * r + 4) * len(pat)


def _sweep_patterns(name: str) -> list[bytes]:
    """Criterion 06's inputs: every pattern of length 0..6 over two
    symbols, on instances of at most 8 states."""
    a = load_instance(name)
    if a.state_count > 8:
        return []
    symbols = sorted({b for _, _, rho in a.edges for b in rho})
    two = (symbols + [s for s in b"ab" if s not in symbols])[:2]
    return [bytes(p) for ln in range(7) for p in itertools.product(two, repeat=ln)]


def test_untraced_recursion_equals_traced(all_corpus_names):
    # the sidecar patterns on plain and sentinel indexes (raw, as
    # match_interval runs them, and sentinel-prefixed, as accepts does),
    # plus the exhaustive short sweep
    runs = 0
    for name in all_corpus_names:
        pats = list(load_sidecar_patterns(name)) + _sweep_patterns(name)
        sent = load_index(name, with_sentinel=True)
        cases = [(load_index(name), p) for p in pats]
        cases += [(sent, p) for p in pats] + [(sent, SENTINEL_BYTES + p) for p in pats]
        for ix, pat in cases:
            full = run_steps(ix, pat, trace=True)
            bare = run_steps(ix, pat, trace=False)
            assert (bare.c, bare.d, bare.ops) == (full.c, full.d, full.ops), (name, pat)
            assert bare.steps == []
            assert len(full.steps) == len(pat)
            runs += 1
    assert runs > 60_000


@pytest.mark.skipif(not corpus_names(), reason="corpus not generated")
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_resumed_walk_equals_fresh_runs(data):
    # a batch run in sorted order, each pattern resuming from the one
    # before, on plain and sentinel indexes with raw and sentinel-prefixed
    # patterns: every pattern gets a fresh run's counters, running only
    # the steps past the prefix it shares with the one before, and a
    # traced run ignores the walk
    name = data.draw(st.sampled_from(corpus_names()))
    sentinel = data.draw(st.booleans())
    lead = SENTINEL_BYTES if sentinel and data.draw(st.booleans()) else b""
    ix = load_index(name, with_sentinel=sentinel)
    symbols = sorted({b for _, _, rho in load_instance(name).edges for b in rho} | {ord("z")})
    word = st.lists(st.sampled_from(symbols), max_size=8).map(bytes)
    patterns = data.draw(st.lists(word, min_size=1, max_size=12))

    walk = run_steps(ix, b"", trace=False)
    for pat in sorted(lead + p for p in patterns):
        fresh = run_steps(ix, pat, trace=False)
        before = (walk.pattern, list(walk.c), list(walk.d))
        traced = run_steps(ix, pat, trace=True, resume=walk)
        assert traced is not walk and len(traced.steps) == len(pat)
        assert (traced.c, traced.d, traced.ops) == (fresh.c, fresh.d, fresh.ops)
        assert (walk.pattern, walk.c, walk.d) == before
        resumed = run_steps(ix, pat, trace=False, resume=walk)
        assert resumed is walk and resumed.pattern == pat and resumed.steps == []
        assert (resumed.c, resumed.d) == (fresh.c, fresh.d), (name, pat)
        shared = os.path.commonprefix([before[0], pat])
        assert resumed.ops == fresh.ops - run_steps(ix, shared, trace=False).ops
        assert resumed.ops <= fresh.ops

    if not lead:
        want = [match_interval(ix, p) for p in patterns]
        assert match_patterns(ix, patterns) == [
            (res.lo, res.hi, res.count, res.accepted) for res in want
        ]
