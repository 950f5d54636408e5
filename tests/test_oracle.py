"""The brute-force reference implementations themselves."""

from __future__ import annotations

import pytest

from wgnfa import (
    GeneralizedAutomaton,
    ShapeViolation,
    brute_accepts,
    brute_below_count,
    brute_closure,
    brute_match,
)


def test_brute_match_ten(ten_state):
    assert brute_match(ten_state, b"") == set(range(1, 11))
    assert brute_match(ten_state, b"a") == {2, 3, 4, 5}
    assert brute_match(ten_state, b"b") == {6, 7, 8, 9}
    assert brute_match(ten_state, b"ba") == {3, 4}
    assert brute_match(ten_state, b"bba") == {3, 4}
    assert brute_match(ten_state, b"aca") == {3, 4, 5}
    assert brute_match(ten_state, b"bb") == {8, 9}
    assert brute_match(ten_state, b"cba") == set()
    assert brute_match(ten_state, b"z") == set()


def test_brute_match_four(four_state):
    assert brute_match(four_state, b"") == {1, 2, 3, 4}
    assert brute_match(four_state, b"a") == {2}
    assert brute_match(four_state, b"b") == {3, 4}
    assert brute_match(four_state, b"ba") == {2}
    assert brute_match(four_state, b"bb") == set()
    assert brute_match(four_state, b"c") == {4}


def test_brute_match_mid_label_suffix(ten_state):
    # "a" matches inside "ca" and "ba" labels; state 5 only receives
    # label-final a's through "ca", so it appears for a but not for b
    assert 5 in brute_match(ten_state, b"a")
    assert 5 not in brute_match(ten_state, b"b")


def test_brute_below_ten(ten_state):
    cases = {
        b"": 0,
        b"a": 1,
        b"b": 5,
        b"ba": 2,
        b"bb": 7,
        b"cba": 2,
        b"bba": 2,
        b"aca": 2,
    }
    for pat, want in cases.items():
        assert brute_below_count(ten_state, pat) == want


def test_brute_below_four(four_state):
    for pat, want in ((b"a", 1), (b"b", 2), (b"ba", 1), (b"bb", 3), (b"c", 3)):
        assert brute_below_count(four_state, pat) == want


def test_brute_below_shape_violation(ten_state):
    # breaking the numbering scatters the strictly-below set
    def sw(q):
        return {2: 9, 9: 2}.get(q, q)

    bad = GeneralizedAutomaton(
        state_count=10,
        edges=tuple((sw(u), sw(v), rho) for u, v, rho in ten_state.edges),
        finals=frozenset(sw(q) for q in ten_state.finals),
    )
    with pytest.raises(ShapeViolation):
        brute_below_count(bad, b"b")


def test_brute_closure_matches(ten_state, four_state):
    assert brute_closure(ten_state) == (
        [0, 1, 2, 5, 5, 5, 6, 7, 8, 9, 10],
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    )
    assert brute_closure(four_state) == ([0, 1, 2, 3, 4], [0, 1, 2, 3, 3])


def test_brute_closure_tolerates_cycles():
    a = GeneralizedAutomaton(
        state_count=3,
        edges=((1, 2, b"a"), (2, 3, b""), (3, 2, b"")),
        finals=frozenset({3}),
    )
    amax, amin = brute_closure(a)
    assert amax == [0, 1, 3, 3]
    assert amin == [0, 1, 2, 2]


def test_brute_accepts(ten_state, four_state):
    assert not brute_accepts(ten_state, b"")
    assert not brute_accepts(ten_state, b"a")
    assert brute_accepts(ten_state, b"bba")
    assert brute_accepts(ten_state, b"aca")
    assert brute_accepts(ten_state, b"cca")
    assert not brute_accepts(ten_state, b"caca")
    assert brute_accepts(four_state, b"b")
    assert brute_accepts(four_state, b"ba")
    assert brute_accepts(four_state, b"bc")
    assert not brute_accepts(four_state, b"bb")
