"""Epsilon closure extrema arrays and the marker bitvectors."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wgnfa.closure import EpsilonCycleError, build_closure_arrays, build_marker_bits
from wgnfa.model import GeneralizedAutomaton
from wgnfa.oracle import brute_closure


def test_closure_ten_state(ten_state):
    cl = build_closure_arrays(ten_state)
    assert list(cl.a_max) == [0, 1, 2, 5, 5, 5, 6, 7, 8, 9, 10]
    assert list(cl.a_min) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert cl.edge_visits == 2
    mk = build_marker_bits(cl)
    assert list(mk.b_max) == [0, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1]
    assert list(mk.b_min) == [0] + [1] * 10


def test_closure_four_state(four_state):
    cl = build_closure_arrays(four_state)
    assert list(cl.a_max) == [0, 1, 2, 3, 4]
    assert list(cl.a_min) == [0, 1, 2, 3, 3]
    assert cl.edge_visits == 1
    mk = build_marker_bits(cl)
    assert list(mk.b_max) == [0, 1, 1, 1, 1]
    assert list(mk.b_min) == [0, 1, 1, 1, 0]


def _eps_only(n, eps_edges, finals=None):
    return GeneralizedAutomaton(
        state_count=n,
        edges=tuple((u, v, b"") for u, v in eps_edges),
        finals=frozenset(finals or {n}),
    )


def test_epsilon_two_cycle_raises():
    a = _eps_only(3, [(2, 3), (3, 2)])
    with pytest.raises(EpsilonCycleError) as exc:
        build_closure_arrays(a)
    assert {exc.value.u, exc.value.v} == {2, 3}


@pytest.mark.parametrize(
    "eps_edges, witness",
    [
        ([(4, 2), (3, 2), (2, 3), (2, 4)], (2, 4)),
        ([(3, 2), (4, 2), (2, 3), (2, 4)], (2, 3)),
    ],
)
def test_epsilon_cycle_witness_follows_edge_order(eps_edges, witness):
    """State 2 lies on two cycles; the sweep reports the one whose
    epsilon edge into 2 comes first in the input."""
    with pytest.raises(EpsilonCycleError) as exc:
        build_closure_arrays(_eps_only(5, eps_edges))
    assert (exc.value.u, exc.value.v) == witness


def test_epsilon_long_cycle_raises():
    a = _eps_only(5, [(2, 3), (3, 4), (4, 5), (5, 2)])
    with pytest.raises(EpsilonCycleError):
        build_closure_arrays(a)


def test_epsilon_self_loop_ignored():
    a = _eps_only(3, [(2, 2), (2, 3)])
    cl = build_closure_arrays(a)
    assert list(cl.a_max) == [0, 1, 2, 3]
    assert list(cl.a_min) == [0, 1, 2, 2]


def test_descending_chain():
    n = 500
    a = _eps_only(n, [(i + 1, i) for i in range(1, n)])
    cl = build_closure_arrays(a)
    assert all(cl.a_max[i] == n for i in range(1, n + 1))
    assert all(cl.a_min[i] == i for i in range(1, n + 1))
    assert cl.edge_visits == n - 1


def test_ascending_chain():
    n = 500
    a = _eps_only(n, [(i, i + 1) for i in range(1, n)])
    cl = build_closure_arrays(a)
    assert all(cl.a_min[i] == 1 for i in range(1, n + 1))
    assert all(cl.a_max[i] == i for i in range(1, n + 1))


def test_matches_brute_on_samples(ten_state, four_state):
    for a in (ten_state, four_state):
        cl = build_closure_arrays(a)
        bmax, bmin = brute_closure(a)
        assert list(cl.a_max) == bmax
        assert list(cl.a_min) == bmin


@st.composite
def random_eps_dag(draw):
    """An automaton whose epsilon edges only go between distinct states
    of a random DAG; acyclicity via a hidden topological position."""
    n = draw(st.integers(min_value=2, max_value=12))
    pos = draw(st.permutations(list(range(n))))
    m = draw(st.integers(min_value=0, max_value=2 * n))
    pairs = st.tuples(
        st.integers(min_value=1, max_value=n), st.integers(min_value=1, max_value=n)
    )
    edges = []
    for u, v in draw(st.lists(pairs, min_size=m, max_size=m)):
        if u == v:
            continue
        if pos[u - 1] > pos[v - 1]:
            u, v = v, u
        edges.append((u, v))
    return _eps_only(n, edges)


@given(random_eps_dag())
def test_closure_matches_brute(a):
    cl = build_closure_arrays(a)
    bmax, bmin = brute_closure(a)
    assert list(cl.a_max) == bmax
    assert list(cl.a_min) == bmin
    assert cl.edge_visits == len(a.epsilon_edges)


@given(random_eps_dag())
def test_closure_recurrence(a):
    cl = build_closure_arrays(a)
    preds = [[] for _ in range(a.state_count + 1)]
    for u, v, _ in a.epsilon_edges:
        preds[v].append(u)
    for i in range(1, a.state_count + 1):
        assert cl.a_max[i] == max([i] + [cl.a_max[u] for u in preds[i]])
        assert cl.a_min[i] == min([i] + [cl.a_min[u] for u in preds[i]])


@given(random_eps_dag())
def test_markers_flag_fixpoints(a):
    cl = build_closure_arrays(a)
    mk = build_marker_bits(cl)
    for i in range(1, a.state_count + 1):
        assert mk.b_max[i] == (1 if cl.a_max[i] == i else 0)
        assert mk.b_min[i] == (1 if cl.a_min[i] == i else 0)
    assert mk.b_max[0] == 0 and mk.b_min[0] == 0
