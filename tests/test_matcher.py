"""The two-counter recursion, interval queries and membership."""

from __future__ import annotations

import itertools
import os
import random
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgnfa import matcher
from wgnfa.generate import GenerationParams, generate_instance, sample_patterns
from wgnfa.index import NO_ROW, WheelerIndex, build_index
from wgnfa.matcher import (
    SentinelInPatternError,
    accepts,
    match_interval,
    match_patterns,
    run_steps,
)
from wgnfa.model import parse_gnfa
from wgnfa.oracle import brute_accepts, brute_below_count, brute_match

from conftest import (
    STAND_IN,
    augment,
    corpus_names,
    load_augmented_index,
    load_index,
    load_instance,
    load_sidecar_patterns,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_trace_cba(ten_state_index, monkeypatch):
    calls = []
    out_count = ten_state_index.out_count
    label_of = {id(row): rho for rho, row in ten_state_index.rows.items()}

    def counted(row, j):
        calls.append((label_of[id(row)], j))
        return out_count(row, j)

    monkeypatch.setattr(ten_state_index, "out_count", counted)
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
    # at step 3, k=1 the cuts c[2] = d[2] = 9 coincide, so g_1 is f_1 and
    # that chunk asks out_count once; ops still counts both
    assert calls == [(b"b", 9), (b"b", 10), (b"a", 9), (b"ba", 9), (b"ba", 10)]
    assert tr.ops == 22


def test_label_queries_only_in_the_first_r_symbols(ten_state, ten_state_index, monkeypatch):
    # each step reads its label-order bound off one suffix_min entry: past
    # the first r = 2 symbols the length-2 chunk's row holds it ("ba",
    # "bb"), or one bisect finds it for a chunk that is not a label
    # ("bz"), so neither run_steps nor accepts asks the per-length query,
    # and past r no prefix can be a label suffix; within the first r the
    # suffix query is asked once per step, with the reversed prefix and
    # the position the step's own bisect found for it; the counters, the
    # trace and ops still equal the reference, which scans for both at
    # every step
    ix = ten_state_index
    sent = build_index(ten_state, with_sentinel=True)
    assert ix.r == sent.r == 2 and b"bz" not in ix.rows
    pats = (b"bbbbba", b"bbbbbz")

    def head_calls(idx, pat):
        revs = [pat[:ell][::-1] for ell in (1, 2)]
        return [("max_state_with_suffix_label", (rev, bisect_left(idx.revs, rev))) for rev in revs]

    want = {pat: _reference_steps(ix, pat) for pat in pats}
    calls = []
    for name in ("min_state_with_len_k_label_ge", "max_state_with_suffix_label"):
        def counted(self, *args, name=name, fn=getattr(WheelerIndex, name)):
            calls.append((name, args))
            return fn(self, *args)

        monkeypatch.setattr(WheelerIndex, name, counted)
    for pat in pats:
        calls.clear()
        tr = run_steps(ix, pat)
        assert calls == head_calls(ix, pat)
        c, d, steps, step_ops = want[pat]
        ref = matcher.MatchTrace(pat, ix.r, c, d, steps, sum(step_ops))
        assert (tr.c, tr.d, tr.dump_tsv()) == (c, d, ref.dump_tsv())
        # still r label-order queries counted per step, as the paper's
        # step makes them
        assert tr.ops == ref.ops == 53
        calls.clear()
        accepts(sent, pat)
        assert calls == head_calls(sent, pat)


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


def test_sentinel_trace_equals_plain_trace(all_corpus_names):
    """A sentinel index stores the plain index's edges, so on every
    corpus instance and sidecar pattern the traced recursion prints the
    same rows and counts the same ops on both."""
    runs = 0
    for name in all_corpus_names:
        plain, sent = load_index(name), load_index(name, with_sentinel=True)
        for p in load_sidecar_patterns(name):
            want, got = run_steps(plain, p), run_steps(sent, p)
            assert (got.dump_tsv(), got.ops) == (want.dump_tsv(), want.ops), (name, p)
            runs += 1
    assert runs > 10_000


def test_patterns_holding_0x00_answer_alike_on_both_indexes(all_corpus_names):
    """No label holds the byte 0x00, so a pattern holding it reaches no
    state: on every corpus instance, with 0x00 spliced into each sidecar
    pattern at each position and as the pattern 0x00 alone, the plain
    and the sentinel index both answer the oracle's (empty) block after
    the brute-force strictly-below count, and membership is False.  So
    the sentinel index may store no 0x01 label: it would sort just above
    0x00, and a head step's bisect could land on it."""
    checked = 0
    for name in all_corpus_names:
        a = load_instance(name)
        sidecar = load_sidecar_patterns(name)
        spliced = {p[:i] + b"\x00" + p[i:] for p in sidecar for i in range(len(p) + 1)}
        pats = sorted(spliced | {b"\x00"})
        plain = match_patterns(load_index(name), pats)
        sent = match_patterns(load_index(name, with_sentinel=True), pats)
        for p, (lo, hi, _, _), (lo_s, hi_s, _, accepted) in zip(pats, plain, sent):
            below = brute_below_count(a, p)
            want = (below + 1, below + len(brute_match(a, p)))
            assert (lo, hi) == (lo_s, hi_s) == want, (name, p)
            assert accepted is False, (name, p)
            checked += 1
    assert checked > 10_000, checked


def test_label_free_automaton_traces_alike_on_both_indexes():
    """states 2 with the one edge 1 -> 2 @e: there is no labeled edge,
    so both indexes have r = 0 and print traces with no f_k or g_k
    column, and a sentinel index's membership is the oracle's."""
    a = parse_gnfa("gnfa 1\nstates 2\ninitial 1\nfinal 2\nedge 1 2 @e\n")
    plain, sent = build_index(a), build_index(a, with_sentinel=True)
    assert plain.r == sent.r == 0
    for pat in (b"", b"a", b"ab", b"\x00", b"ba\x00"):
        want, got = run_steps(plain, pat), run_steps(sent, pat)
        assert (got.dump_tsv(), got.ops) == (want.dump_tsv(), want.ops), pat
        assert accepts(sent, pat) == brute_accepts(a, pat), pat
    assert accepts(sent, b"") is True


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
    # the sidecar patterns on plain and sentinel indexes, as
    # match_interval runs them, and STAND_IN-prefixed on the augmented
    # index, the walk accepts stands for; plus the exhaustive short sweep
    runs = 0
    for name in all_corpus_names:
        pats = list(load_sidecar_patterns(name)) + _sweep_patterns(name)
        sent, ref = load_index(name, with_sentinel=True), load_augmented_index(name)
        cases = [(load_index(name), p) for p in pats]
        cases += [(sent, p) for p in pats] + [(ref, STAND_IN + p) for p in pats]
        for ix, pat in cases:
            full = run_steps(ix, pat, trace=True)
            bare = run_steps(ix, pat, trace=False)
            assert (bare.c, bare.d, bare.ops) == (full.c, full.d, full.ops), (name, pat)
            assert bare.steps == []
            assert len(full.steps) == len(pat)
            runs += 1
    assert runs > 60_000


def _reference_steps(ix, pattern: bytes):
    """The recursion with every WheelerIndex query asked where the step
    needs it and nothing read off a row: both out-counts and the
    at-most boundary per chunk, the label-order query with the whole
    prefix at every length and step, the floor every step, and the
    at-least boundary and the ceiling where the data call for them.
    i* comes from a scan over the labels that end with the prefix, not
    from the suffix query, which the step still counts.  Returns c, d,
    the StepRecords and each step's query count, one per call."""
    n, r = ix.n_states, ix.r
    c, d, steps, step_ops = [0], [n], [], []
    for ell in range(1, len(pattern) + 1):
        prefix, j, forced, f, g, ops = pattern[:ell], n, 0, {}, {}, 0
        for k in range(1, min(r, ell - 1) + 1):
            row = ix.rows.get(pattern[ell - k : ell], NO_ROW)
            f[k], g[k] = ix.out_count(row, c[ell - k]), ix.out_count(row, d[ell - k])
            j = min(j, ix.max_prefix_with_in_at_most(row, f[k]))
            ops += 3
            if g[k] > f[k]:
                forced = max(forced, ix.min_prefix_with_in_at_least(row, g[k]))
                ops += 1
        for k in range(1, r + 1):
            hit = ix.min_state_with_len_k_label_ge(k, prefix)
            if hit is not None:
                j = min(j, hit - 1)
        i_star = max(
            (row[3] + row[1][-1] for rho, row in ix.rows.items() if rho.endswith(prefix)),
            default=0,
        )
        t = ix.marker_floor(j)
        ops += r + 2
        h = max(i_star, forced)
        if h <= t:
            h = top = t
        else:
            top = ix.marker_ceiling(h)
            ops += 1
        c.append(t)
        d.append(top)
        steps.append(matcher.StepRecord(ell, f, g, j, i_star, h, t, c=t, d=top))
        step_ops.append(ops)
    return c, d, steps, step_ops


def _check_against_reference(ix, patterns) -> int:
    """Fresh traced and untraced runs of each pattern, and an untraced
    walk over them in sorted order, each resuming from the one before,
    against _reference_steps.  Returns how many steps the walk ran."""
    walk, ran = run_steps(ix, b"", trace=False), 0
    for pat in sorted(patterns):
        c, d, steps, step_ops = _reference_steps(ix, pat)
        traced = run_steps(ix, pat, trace=True)
        assert (traced.c, traced.d, traced.steps, traced.ops) == (c, d, steps, sum(step_ops))
        bare = run_steps(ix, pat, trace=False)
        assert (bare.c, bare.d, bare.ops) == (c, d, sum(step_ops))
        keep = len(os.path.commonprefix([walk.pattern, pat]))
        run_steps(ix, pat, trace=False, resume=walk)
        assert (walk.c, walk.d, walk.ops) == (c, d, sum(step_ops[keep:])), pat
        ran += len(pat) - keep
    return ran


def test_fused_step_equals_reference_on_the_corpus(all_corpus_names):
    # the sidecar patterns, and every fifth with a byte no label holds
    # spliced in, on plain and sentinel indexes, and STAND_IN-prefixed
    # on the augmented index
    ran = no_row = fallback = shorter = 0
    for name in all_corpus_names:
        pats = list(load_sidecar_patterns(name))
        pats += [p[:2] + b"z" + p[2:] for p in pats[::5]]
        plain, sent = load_index(name), load_index(name, with_sentinel=True)
        ref = load_augmented_index(name)
        no_row += sum(b"z" in p for p in pats)
        for ix, ix_pats in ((plain, pats), (sent, pats), (ref, [STAND_IN + p for p in pats])):
            ran += _check_against_reference(ix, ix_pats)
            # the steps past r whose length-r chunk is not a label bisect
            # for the label-order bound; in most a shorter chunk is a label
            r = ix.r
            for p in ix_pats:
                for ell in range(r + 1, len(p) + 1):
                    if p[ell - r : ell] not in ix.rows:
                        fallback += 1
                        shorter += any(p[ell - k : ell] in ix.rows for k in range(1, r))
    assert ran > 100_000 and no_row > 4000, (ran, no_row)
    assert fallback > 60_000 and shorter > 50_000, (fallback, shorter)


def test_fused_step_equals_reference_with_marker_zeros():
    # epsilon-rich generated instances whose b_max has a zero bit, so the
    # floor rounds down, on plain and sentinel indexes
    checked = 0
    for max_piece_len in (2, 3):
        params = GenerationParams(epsilon_attempts=40, max_piece_len=max_piece_len)
        for seed in range(60):
            a = generate_instance(seed, params)
            pats = sample_patterns(random.Random(seed), a, 30) + [b"z", b"az", b"zab"]
            for ix in (build_index(a), build_index(a, with_sentinel=True)):
                if ix.b_max.ones < ix.b_max.n:
                    _check_against_reference(ix, pats)
                    checked += 1
    assert checked > 150, checked


def _check_membership_pass(a, patterns) -> int:
    """accepts on a's sentinel index against the recursion run on the
    augmented automaton's plain index with STAND_IN put in front of the
    pattern, the walk on 0x01.pattern made explicit: that walk's lower
    counters past STAND_IN are the pattern's own (c[2:] == c[1:]), and
    the upper counters e that accepts keeps on the walk are its d[1:].
    Checked fresh, with and without the pattern's walk, and resumed over
    the patterns (and the empty one) in sorted order, where every third
    pattern skips accepts and every other one hands accepts the walk
    still holding the pattern before it.  Returns how many prefix
    positions were compared."""
    ix, ref = build_index(a, with_sentinel=True), build_index(augment(a))
    walk, checked = run_steps(ix, b"", trace=False), 0
    for n, pat in enumerate(sorted(set(patterns) | {b""})):
        sent = run_steps(ref, STAND_IN + pat, trace=False)
        want = ref.finals_in(sent.c[-1] + 1, sent.d[-1])
        fresh = run_steps(ix, pat, trace=False)
        assert sent.c[2:] == fresh.c[1:], pat
        assert accepts(ix, pat, fresh) is want and fresh.e == sent.d[1:], pat
        assert accepts(ix, pat) is want, pat
        if n % 3 == 1:
            run_steps(ix, pat, trace=False, resume=walk)
            continue
        if n % 2:
            run_steps(ix, pat, trace=False, resume=walk)
        assert accepts(ix, pat, walk) is want, pat
        assert walk.pattern == pat and (walk.c, walk.e) == (fresh.c, sent.d[1:]), pat
        checked += len(pat) + 1
    return checked


def test_membership_pass_equals_sentinel_walk_on_the_corpus(all_corpus_names):
    # the sidecar patterns and the exhaustive short sweep on every
    # corpus instance's sentinel index
    checked = 0
    for name in all_corpus_names:
        pats = list(load_sidecar_patterns(name)) + _sweep_patterns(name)
        checked += _check_membership_pass(load_instance(name), pats)
    assert checked > 50_000, checked


def test_membership_pass_equals_sentinel_walk_with_epsilon():
    # epsilon-rich generated instances, some of whose b_min has a zero
    # bit, so the upper counter rounds up past its forced target
    checked = rounded = 0
    for max_piece_len in (2, 3):
        params = GenerationParams(epsilon_attempts=40, max_piece_len=max_piece_len)
        for seed in range(60):
            a = generate_instance(seed, params)
            pats = sample_patterns(random.Random(seed), a, 30) + [b"z", b"az", b"zab"]
            checked += _check_membership_pass(a, pats)
            ix = build_index(a)
            rounded += ix.b_min.ones < ix.b_min.n
    assert checked > 8000 and rounded > 100, (checked, rounded)


class _SliceLog(bytes):
    """A pattern that records the length of every slice taken of it."""

    lengths: list[int] = []

    def __getitem__(self, key):
        item = super().__getitem__(key)
        if isinstance(key, slice):
            _SliceLog.lengths.append(len(item))
        return item


def test_steps_slice_at_most_r_plus_one_bytes(all_corpus_names):
    # a step may look at the last r + 1 bytes of the prefix and no more,
    # so no slice of a long pattern grows with it: run_steps traced,
    # untraced and resumed, and accepts fresh and resumed, on plain and
    # sentinel indexes, and the STAND_IN-prefixed walk on the augmented
    # index, with patterns up to 64 symbols long
    _SliceLog.lengths = lengths = []
    for name in all_corpus_names[::10]:
        symbols = sorted({b for _, _, rho in load_instance(name).edges for b in rho})
        rng = random.Random(name)
        pats = [bytes(rng.choices(symbols, k=rng.randint(20, 64))) for _ in range(6)]
        pats += [p[:10] + p for p in pats[:3]] + [p for p in load_sidecar_patterns(name) if p]
        for sentinel in (False, True):
            ix = load_index(name, with_sentinel=sentinel)
            walk = run_steps(ix, b"", trace=False)
            for pat in map(_SliceLog, sorted(pats)):
                del lengths[:]
                run_steps(ix, pat)
                run_steps(ix, pat, trace=False)
                run_steps(ix, pat, trace=False, resume=walk)
                if sentinel:
                    run_steps(load_augmented_index(name), _SliceLog(STAND_IN + pat), trace=False)
                    accepts(ix, pat)
                    accepts(ix, pat, walk)
                assert lengths and max(lengths) <= ix.r + 1, (name, pat, lengths)


@pytest.fixture
def accepts_calls(monkeypatch) -> list[bytes]:
    """The patterns matcher.accepts is called with, in call order."""
    calls: list[bytes] = []

    def counted(ix, pattern, resume=None):
        calls.append(pattern)
        return accepts(ix, pattern, resume)

    monkeypatch.setattr(matcher, "accepts", counted)
    return calls


@pytest.fixture
def interval_calls(monkeypatch) -> list[bytes]:
    """The patterns match_patterns calls matcher.match_interval with."""
    calls: list[bytes] = []

    def counted(ix, pattern, resume=None):
        calls.append(pattern)
        return match_interval(ix, pattern, resume)

    monkeypatch.setattr(matcher, "match_interval", counted)
    return calls


def _check_membership_gate(a, patterns, calls, interval_calls) -> tuple[int, int]:
    """On a's sentinel index, match_interval runs accepts exactly for
    the patterns whose own block holds a final state, match_patterns
    for the distinct ones among them, and every `accepted` is
    brute_accepts'.  A batch repeating the patterns out of order runs
    match_interval once per distinct pattern and answers as the
    per-pattern calls do.  Returns how many patterns the block check
    answered and how many ran accepts."""
    ix = build_index(a, with_sentinel=True)
    want = {p: brute_accepts(a, p) for p in patterns}
    has_final = {}
    for pat in patterns:
        walk = run_steps(ix, pat, trace=False)
        has_final[pat] = ix.finals_in(walk.c[-1] + 1, walk.d[-1])
        assert has_final[pat] or not want[pat], pat
    calls.clear()
    singles = []
    for pat in patterns:
        res = match_interval(ix, pat)
        assert res.accepted is want[pat], pat
        singles.append((res.lo, res.hi, res.count, res.accepted))
    assert calls == [p for p in patterns if has_final[p]]
    calls.clear()
    answers = match_patterns(ix, patterns)
    assert [acc for *_, acc in answers] == [want[p] for p in patterns]
    assert calls == [p for p in sorted(set(patterns)) if has_final[p]]
    interval_calls.clear()
    assert match_patterns(ix, patterns[::-1] + patterns) == singles[::-1] + singles
    assert interval_calls == sorted(set(patterns))
    ran = sum(has_final[p] for p in patterns)
    return len(patterns) - ran, ran


def test_membership_walk_only_where_the_block_holds_a_final(
    all_corpus_names, accepts_calls, interval_calls
):
    # the corpus sidecar patterns and the exhaustive short sweep
    gated = ran = 0
    for name in all_corpus_names:
        pats = list(load_sidecar_patterns(name)) + _sweep_patterns(name)
        g, k = _check_membership_gate(load_instance(name), pats, accepts_calls, interval_calls)
        gated, ran = gated + g, ran + k
    assert gated > 1000 and ran > 1000, (gated, ran)


def test_membership_gate_on_generated_instances(accepts_calls, interval_calls):
    # seeds 0-299 at 8, 24 and 40 epsilon attempts
    gated = with_epsilon = 0
    for epsilon_attempts in (8, 24, 40):
        params = GenerationParams(epsilon_attempts=epsilon_attempts)
        for seed in range(300):
            a = generate_instance(seed, params)
            with_epsilon += any(not rho for _, _, rho in a.edges)
            pats = sample_patterns(random.Random(seed), a, 40)
            gated += _check_membership_gate(a, pats, accepts_calls, interval_calls)[0]
    assert gated > 1000 and with_epsilon > 700, (gated, with_epsilon)


@pytest.mark.skipif(not corpus_names(), reason="corpus not generated")
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_resumed_walk_equals_fresh_runs(data):
    # a batch run in sorted order, each pattern resuming from the one
    # before, on plain and sentinel indexes with raw patterns and on the
    # augmented index with STAND_IN-prefixed ones: every pattern gets a
    # fresh run's counters, running only the steps past the prefix it
    # shares with the one before, and a traced run ignores the walk
    name = data.draw(st.sampled_from(corpus_names()))
    sentinel = data.draw(st.booleans())
    lead = STAND_IN if sentinel and data.draw(st.booleans()) else b""
    ix = load_augmented_index(name) if lead else load_index(name, with_sentinel=sentinel)
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
        if sentinel:
            a = load_instance(name)
            assert [res.accepted for res in want] == [brute_accepts(a, p) for p in patterns]
