"""Acceptance suite: twelve black-box criteria, one test and one
printed pass line each.  Tolerances are asserted exactly as stated;
everything else in tests/ exists to localize a failure here."""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path

import pytest

from wgnfa.cli import main
from wgnfa.closure import EpsilonCycleError, build_closure_arrays
from wgnfa.crosscheck import crosscheck_instance
from wgnfa.generate import build_piece_trie
from wgnfa.index import build_index
from wgnfa.matcher import match_interval, run_steps
from wgnfa.model import GeneralizedAutomaton, parse_gnfa
from wgnfa.oracle import ShapeViolation, brute_below_count, brute_match
from wgnfa.serial import deserialize, serialize

from conftest import (
    CORPUS_DIR,
    invalid_paths,
    load_index,
    load_instance,
    load_sidecar_patterns,
)


def _announce(num: int, name: str, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:02d} {name}: PASS{tail}")


def test_criterion_01_worked_trace(ten_state_index):
    tr = run_steps(ten_state_index, b"cba")
    assert tr.c == [0, 9, 9, 2]
    s3 = tr.steps[2]
    assert s3.f[1] == 3
    assert s3.f[2] == 2
    assert s3.j_star == 4
    assert s3.c == 2
    best = min(
        _timed(run_steps, ten_state_index, b"cba") for _ in range(10)
    )
    assert best < 1e-3
    _announce(1, "worked ten-state trace", f"{best * 1e6:.0f}us")


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_02_closure_arrays(ten_state):
    cl = build_closure_arrays(ten_state)
    for i in range(1, 11):
        want = 5 if i in (3, 4) else i
        assert cl.a_max[i] == want
    _announce(2, "ten-state closure extrema")


def test_criterion_03_upper_boundary_case_split(four_state_index):
    tr = run_steps(four_state_index, b"bb")
    s2 = tr.steps[1]
    assert s2.h_star == 3
    assert tr.c[2] == 3 and tr.d[2] == 3
    # the rounding rule alone would land one past the empty block
    assert four_state_index.marker_ceiling(3) == 4
    _announce(3, "empty suffixed block vs ceiling")


def test_criterion_04_empty_pattern_law(all_corpus_names):
    for name in all_corpus_names:
        ix = load_index(name)
        res = match_interval(ix, b"")
        assert (res.lo, res.hi) == (1, ix.n_states), name
    _announce(4, "empty pattern full interval", f"{len(all_corpus_names)} instances")


def test_criterion_05_oracle_equivalence(all_corpus_names):
    assert len(all_corpus_names) >= 200
    t0 = time.perf_counter()
    checked = 0
    for name in all_corpus_names:
        a = load_instance(name)
        pats = list(load_sidecar_patterns(name))
        assert len(pats) >= 100, name
        problems = crosscheck_instance(a, pats)
        assert problems == [], (name, problems[:3])
        checked += len(pats)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300
    _announce(
        5,
        "oracle equivalence",
        f"{len(all_corpus_names)} instances, {checked} patterns, {elapsed:.1f}s",
    )


def test_criterion_06_exhaustive_small(all_corpus_names):
    small = [n for n in all_corpus_names if load_instance(n).state_count <= 8]
    assert small
    swept = 0
    for name in small:
        a = load_instance(name)
        symbols = sorted({b for _, _, rho in a.edges for b in rho})
        two = (symbols + [s for s in b"ab" if s not in symbols])[:2]
        pats = [
            bytes(p)
            for ln in range(0, 7)
            for p in itertools.product(two, repeat=ln)
        ]
        assert len(pats) == 127
        problems = crosscheck_instance(a, pats)
        assert problems == [], (name, problems[:3])
        swept += len(pats)
    _announce(6, "exhaustive len<=6 sweep", f"{len(small)} instances, {swept} patterns")


def test_criterion_07_interval_contract(all_corpus_names):
    evaluations = 0
    for name in all_corpus_names[::4]:
        a = load_instance(name)
        for p in load_sidecar_patterns(name):
            try:
                below = brute_below_count(a, p)  # raises if not a prefix
            except ShapeViolation as exc:
                pytest.fail(f"{name} {p!r}: {exc}")
            hits = brute_match(a, p)
            evaluations += 1
            if not hits:
                continue
            lo, hi = min(hits), max(hits)
            assert hi - lo + 1 == len(hits), (name, p)  # convex
            assert lo == below + 1, (name, p)  # adjacent to the prefix
    _announce(7, "prefix/convex/adjacent invariants", f"{evaluations} evaluations")


def _epsilon_chain(e: int) -> GeneralizedAutomaton:
    n = e + 1
    edges = tuple((i + 1, i, b"") for i in range(1, n))
    return GeneralizedAutomaton(state_count=n, edges=edges, finals=frozenset({1}))


def test_criterion_08_closure_linearity():
    results = {}
    for e in (10**4, 10**5, 10**6):
        a = _epsilon_chain(e)
        reps = 3 if e < 10**6 else 2
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            cl = build_closure_arrays(a)
            times.append(time.perf_counter() - t0)
        assert cl.edge_visits <= 2 * e
        results[e] = min(times)
    r1 = results[10**5] / results[10**4]
    r2 = results[10**6] / results[10**5]
    assert r1 <= 20, results
    assert r2 <= 20, results
    _announce(8, "closure chain linearity", f"ratios {r1:.1f}, {r2:.1f}")


def test_criterion_09_query_linearity():
    rng = random.Random(271828)
    a = build_piece_trie(
        rng, n_strings=1300, max_string_len=28, max_piece_len=2, alphabet=b"abcd"
    )
    assert 9_000 <= a.state_count <= 12_000
    ix = build_index(a)
    prng = random.Random(314159)
    base = bytes(prng.choice(b"abcd") for _ in range(1 << 14))
    best = {}
    ops = {}
    for exp in range(8, 15):
        m = 1 << exp
        pat = base[:m]
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            res = match_interval(ix, pat)
            times.append(time.perf_counter() - t0)
        best[m] = min(times)
        ops[m] = res.trace.ops
        assert ops[m] <= 16 * ix.r * m, (m, ops[m])
    ratios = [best[1 << (e + 1)] / best[1 << e] for e in range(8, 14)]
    for ratio in ratios:
        assert 1.5 <= ratio <= 3.0, ratios
    kmax = max(ops[m] / (ix.r * m) for m in ops)
    _announce(
        9,
        "query doubling in pattern length",
        f"ratios {', '.join(f'{x:.2f}' for x in ratios)}; K<={kmax:.2f}",
    )


def test_criterion_10_space_bound(all_corpus_names, capsys):
    worst = 0.0
    for name in all_corpus_names:
        assert main(["bench", str(CORPUS_DIR / f"{name}.gnfa")]) == 0
        fields = dict(
            line.split("\t")[:2]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("space.")
        )
        assert fields["space.within_bound"] == "1", name
        worst = max(
            worst, int(fields["space.payload_bits"]) / int(fields["space.bound_bits"])
        )
    _announce(10, "payload within 64(eps+e+n) bits", f"worst fill {worst:.2f}")


def test_criterion_11_epsilon_cycle_rejection():
    fixtures = invalid_paths()
    assert len(fixtures) == 20
    for path in fixtures:
        a = parse_gnfa(path.read_text())
        with pytest.raises(EpsilonCycleError):
            build_index(a)
    _announce(11, "epsilon cycles rejected at build", "20/20 fixtures")


def _probe_transcript(ix, seed: int, probes: int = 1000) -> list:
    rng = random.Random(seed)
    n = ix.n_states
    labels = list(ix.labels)
    out = []
    while len(out) < probes:
        rho = rng.choice(labels)
        j = rng.randrange(0, n + 1)
        out.append(ix.out_count(rho, j))
        out.append(ix.max_prefix_with_in_at_most(rho, rng.randrange(0, 4)))
        k = rng.randrange(1, ix.r + 1)
        out.append(ix.min_state_with_len_k_label_ge(k, rho * 2))
        out.append(ix.max_state_with_suffix_label(rho[-1:]))
        out.append(ix.marker_floor(j))
        out.append(ix.marker_ceiling(j))
        out.append(ix.finals_in(rng.randrange(1, n + 1), rng.randrange(1, n + 1)))
    return out


def test_criterion_12_round_trip_probes(all_corpus_names):
    for i, name in enumerate(all_corpus_names):
        ix = load_index(name)
        again = deserialize(serialize(ix))
        assert _probe_transcript(again, 9000 + i) == _probe_transcript(ix, 9000 + i), name
    _announce(12, "round trip 1000-probe identity", f"{len(all_corpus_names)} instances")
