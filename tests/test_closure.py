"""Epsilon closure extrema arrays and the marker bitvectors."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgnfa.bitvec import RankSelectBits
from wgnfa.closure import EpsilonCycleError, build_closure_arrays
from wgnfa.index import build_index
from wgnfa.model import GeneralizedAutomaton, validate
from wgnfa.oracle import brute_closure


def test_closure_ten_state(ten_state):
    cl = build_closure_arrays(ten_state)
    assert list(cl.a_max) == [0, 1, 2, 5, 5, 5, 6, 7, 8, 9, 10]
    assert list(cl.a_min) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert cl.edge_visits == 2
    assert list(cl.b_max) == [0, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1]
    assert list(cl.b_min) == [0] + [1] * 10


def test_closure_four_state(four_state):
    cl = build_closure_arrays(four_state)
    assert list(cl.a_max) == [0, 1, 2, 3, 4]
    assert list(cl.a_min) == [0, 1, 2, 3, 3]
    assert cl.edge_visits == 1
    assert list(cl.b_max) == [0, 1, 1, 1, 1]
    assert list(cl.b_min) == [0, 1, 1, 1, 0]


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
    # the self-loop's target 2 keeps both bits
    assert list(cl.b_max) == [0, 1, 1, 1]
    assert list(cl.b_min) == [0, 1, 1, 0]


def test_descending_chain():
    n = 500
    a = _eps_only(n, [(i + 1, i) for i in range(1, n)])
    cl = build_closure_arrays(a)
    assert all(cl.a_max[i] == n for i in range(1, n + 1))
    assert all(cl.a_min[i] == i for i in range(1, n + 1))
    assert cl.edge_visits == n - 1
    assert cl.b_max == bytes(n) + b"\x01"
    assert cl.b_min == b"\x00" + b"\x01" * n


def test_ascending_chain():
    n = 500
    a = _eps_only(n, [(i, i + 1) for i in range(1, n)])
    cl = build_closure_arrays(a)
    assert all(cl.a_min[i] == 1 for i in range(1, n + 1))
    assert all(cl.a_max[i] == i for i in range(1, n + 1))
    assert cl.b_max == b"\x00" + b"\x01" * n
    assert cl.b_min == b"\x00\x01" + bytes(n - 1)


def test_epsilon_free_states_are_their_own_extrema():
    n = 10
    a = GeneralizedAutomaton(
        state_count=n,
        edges=tuple((i, i + 1, b"ab"[i % 2 : i % 2 + 1]) for i in range(1, n)),
        finals=frozenset({n}),
    )
    cl = build_closure_arrays(a)
    assert cl.fold_max == cl.fold_min == [0]
    assert list(cl.a_max) == list(cl.a_min) == list(range(n + 1))
    assert cl.b_max == cl.b_min == b"\x00" + b"\x01" * n
    assert cl.edge_visits == 0


def test_states_above_last_epsilon_state_are_their_own_extrema():
    # epsilon edges only among states 1..5, one of them a self-loop
    n = 50
    eps = [(2, 3), (4, 3), (5, 4), (1, 2), (5, 5)]
    labeled = [(i, i + 1, b"a") for i in range(5, n)]
    a = GeneralizedAutomaton(
        state_count=n,
        edges=tuple([(u, v, b"") for u, v in eps] + labeled),
        finals=frozenset({n}),
    )
    cl = build_closure_arrays(a)
    assert len(cl.fold_max) == len(cl.fold_min) == 6
    assert list(cl.a_max) == [0, 1, 2, 5, 5, 5] + list(range(6, n + 1))
    assert list(cl.a_min) == [0, 1, 1, 1, 4, 5] + list(range(6, n + 1))
    assert list(cl.b_max) == [0, 1, 1, 0, 0, 1] + [1] * (n - 5)
    assert list(cl.b_min) == [0, 1, 0, 0, 1, 1] + [1] * (n - 5)
    assert cl.edge_visits == 4


def _closure_peak_bytes(a):
    tracemalloc.start()
    try:
        build_closure_arrays(a)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("eps", [[], [(2, 3), (3, 5), (4, 5)]], ids=["no-eps", "eps-2-5"])
def test_closure_allocates_little_per_state(eps):
    """Apart from the two n-byte markers, the closure allocates in
    proportion to the epsilon edges and the largest state they touch,
    not to n."""
    n = 10**6
    labeled = [(i, i + 1, b"a") for i in range(1, n, 1000)]
    a = GeneralizedAutomaton(
        state_count=n,
        edges=tuple([(u, v, b"") for u, v in eps] + labeled),
        finals=frozenset({n}),
    )
    assert _closure_peak_bytes(a) <= 4 * n


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
    assert cl.edge_visits == sum(not rho for _, _, rho in a.edges)


@given(random_eps_dag())
def test_closure_recurrence(a):
    cl = build_closure_arrays(a)
    preds = [[] for _ in range(a.state_count + 1)]
    for u, v, rho in a.edges:
        if not rho:
            preds[v].append(u)
    for i in range(1, a.state_count + 1):
        assert cl.a_max[i] == max([i] + [cl.a_max[u] for u in preds[i]])
        assert cl.a_min[i] == min([i] + [cl.a_min[u] for u in preds[i]])


@given(random_eps_dag())
def test_markers_flag_fixpoints(a):
    cl = build_closure_arrays(a)
    for i in range(1, a.state_count + 1):
        assert cl.b_max[i] == (1 if cl.a_max[i] == i else 0)
        assert cl.b_min[i] == (1 if cl.a_min[i] == i else 0)
    assert cl.b_max[0] == 0 and cl.b_min[0] == 0


@st.composite
def random_eps_graph(draw):
    """An automaton with arbitrary edges, mostly empty-labeled: cycles,
    self-loops and parallel epsilon edges are all allowed."""
    n = draw(st.integers(min_value=1, max_value=9))
    state = st.integers(min_value=1, max_value=n)
    label = st.sampled_from([b"", b"", b"", b"", b"a"])
    edges = draw(st.lists(st.tuples(state, state, label), max_size=14))
    return GeneralizedAutomaton(
        state_count=n, edges=tuple(edges), finals=frozenset({n})
    )


def _brute_cycle_witness(a):
    """The cycle witness build_closure_arrays documents, from
    reachability alone: a state is never released iff an ancestor of
    it, itself included, reaches itself through two or more states.
    From the smallest such state, step to the first such predecessor in
    input order until a state repeats; None if no state is on a cycle."""
    n = a.state_count
    eps = [(u, v) for u, v, rho in a.edges if rho == b"" and u != v]
    # reach[u]: states reachable from u by one or more epsilon edges
    reach = {u: set() for u in range(1, n + 1)}
    for u in range(1, n + 1):
        todo = [u]
        while todo:
            x = todo.pop()
            for s, t in eps:
                if s == x and t not in reach[u]:
                    reach[u].add(t)
                    todo.append(t)
    cyclic = {u for u in reach if u in reach[u]}
    if not cyclic:
        return None
    stuck = cyclic.union(*(reach[y] for y in cyclic))
    node = min(stuck)
    path = [node]
    while True:
        pred = next(u for u, v in eps if v == node and u in stuck)
        if pred in path:
            return pred, node
        path.append(pred)
        node = pred


@settings(max_examples=500)
@given(random_eps_graph())
def test_cycle_witness_matches_brute(a):
    """Also through build_index, plain and sentinel, which hands the
    closure the epsilon edges its own pass picks out: the same markers,
    or the same witness, and every epsilon edge counted, self-loops too."""
    witness = _brute_cycle_witness(a)
    if witness is None:
        cl = build_closure_arrays(a)
        assert cl.edge_visits == sum(
            1 for u, v, rho in a.edges if rho == b"" and u != v
        )
        bmax, bmin = brute_closure(a)
        assert list(cl.a_max) == bmax
        assert list(cl.a_min) == bmin
        for lead in (0, 1):
            ix = build_index(a, with_sentinel=bool(lead))
            assert ix.epsilon_edge_count == sum(1 for _, _, rho in a.edges if not rho)
            assert ix.b_max.to_bytes() == RankSelectBits(b"\x01" * lead + cl.b_max[1:]).to_bytes()
            assert ix.b_min.to_bytes() == RankSelectBits(b"\x01" * lead + cl.b_min[1:]).to_bytes()
    else:
        with pytest.raises(EpsilonCycleError) as exc:
            build_closure_arrays(a)
        assert (exc.value.u, exc.value.v) == witness
        for sentinel in (False, True):
            with pytest.raises(EpsilonCycleError) as exc:
                build_index(a, with_sentinel=sentinel)
            assert (exc.value.u, exc.value.v) == witness


@st.composite
def planted_eps_cycle(draw):
    """A random small automaton plus an epsilon cycle through two or
    more distinct states, its edges shuffled into the rest."""
    n = draw(st.integers(min_value=2, max_value=9))
    state = st.integers(min_value=1, max_value=n)
    label = st.sampled_from([b"", b"a", b"b", b"ab"])
    edges = draw(st.lists(st.tuples(state, state, label), max_size=12))
    ring = draw(st.lists(state, min_size=2, max_size=n, unique=True))
    edges += [(u, v, b"") for u, v in zip(ring, ring[1:] + ring[:1])]
    edges = draw(st.permutations(edges))
    return GeneralizedAutomaton(
        state_count=n, edges=tuple(edges), finals=frozenset({n})
    )


@settings(max_examples=300)
@given(planted_eps_cycle())
def test_epsilon_cycle_breaks_axiom4(a):
    """The largest state m on the cycle has cycle neighbours x, w < m:
    the epsilon edges x -> m and m -> w break axiom 4, so validation
    fails before the closure could meet the cycle."""
    rep = validate(a)
    assert not (rep.axiom3_ok and rep.axiom4_ok)
    assert not rep.ok
    with pytest.raises(EpsilonCycleError):
        build_closure_arrays(a)
