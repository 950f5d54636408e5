"""Label order, the text format, and axiom validation."""

from __future__ import annotations

import random
from collections import deque

import pytest
from conftest import load_instance
from hypothesis import given, settings
from hypothesis import strategies as st

from wgnfa.generate import build_piece_trie
from wgnfa.model import (
    GeneralizedAutomaton,
    GnfaFormatError,
    SentinelInLabelError,
    ValidationReport,
    colex_key,
    escape_label,
    format_gnfa,
    incoming_strings,
    parse_gnfa,
    parse_patterns,
    unescape_token,
    validate,
)

labels = st.binary(min_size=0, max_size=6)


def test_colex_key_cases():
    assert colex_key(b"a") < colex_key(b"b")
    assert colex_key(b"ba") < colex_key(b"ab")  # rightmost byte decides
    assert colex_key(b"") < colex_key(b"a")
    assert colex_key(b"b") < colex_key(b"ab")  # proper suffix sorts first
    assert colex_key(b"a") < colex_key(b"ca")
    assert colex_key(b"ca") < colex_key(b"cb")
    words = [b"cb", b"ab", b"b", b"", b"ca", b"ba"]
    assert sorted(words, key=colex_key) == [b"", b"ba", b"ca", b"b", b"ab", b"cb"]


@given(labels, labels)
def test_colex_rightmost_byte_decides(x, y):
    k = 0  # length of the common suffix
    while k < min(len(x), len(y)) and x[-1 - k] == y[-1 - k]:
        k += 1
    if k == min(len(x), len(y)):  # one string is a suffix of the other
        assert (colex_key(x) < colex_key(y)) == (len(x) < len(y))
    else:
        assert (colex_key(x) < colex_key(y)) == (x[-1 - k] < y[-1 - k])


@given(labels, labels, labels)
def test_colex_transitive(x, y, z):
    if colex_key(x) <= colex_key(y) and colex_key(y) <= colex_key(z):
        assert colex_key(x) <= colex_key(z)


@given(labels, labels)
def test_proper_suffix_sorts_below(x, y):
    if y.endswith(x) and x != y:
        assert colex_key(x) < colex_key(y)


def test_escape_round_trip():
    assert unescape_token("@e") == b""
    assert unescape_token("ab") == b"ab"
    assert unescape_token(r"\x00\x01\xff") == b"\x00\x01\xff"
    assert escape_label(b"") == "@e"
    assert escape_label(b"ab") == "ab"
    assert escape_label(b"\x00a\\") == r"\x00a\x5c"
    assert unescape_token(escape_label(b"\x02\x7f~ ")) == b"\x02\x7f~ "


@given(labels)
def test_escape_label_inverts(label):
    assert unescape_token(escape_label(label)) == label


def test_unescape_rejects_bad_escape():
    with pytest.raises(GnfaFormatError):
        unescape_token(r"\q")
    with pytest.raises(GnfaFormatError):
        unescape_token("a\\")


def test_parse_patterns():
    assert parse_patterns(b"ab\n\ncd\n") == [b"ab", b"", b"cd"]
    assert parse_patterns(b"") == []
    assert parse_patterns(b"\n") == [b""]
    assert parse_patterns(b"a\\x02b\n") == [b"a\x02b"]


def test_format_parse_round_trip(ten_state, four_state):
    for a in (ten_state, four_state):
        b = parse_gnfa(format_gnfa(a))
        assert b.state_count == a.state_count
        assert sorted(b.edges) == sorted(a.edges)
        assert b.finals == a.finals
        assert b.initial == a.initial


def test_parse_gnfa_text():
    text = """
# demo
gnfa 1
states 3
initial 1
final 2 3
edge 1 2 ab
edge 1 3 @e
edge 2 3 \\x7f
"""
    a = parse_gnfa(text)
    assert a.state_count == 3
    assert a.finals == frozenset({2, 3})
    assert (1, 3, b"") in a.edges
    assert (2, 3, b"\x7f") in a.edges


def test_parse_gnfa_errors():
    with pytest.raises(GnfaFormatError, match="header"):
        parse_gnfa("states 2\n")
    with pytest.raises(GnfaFormatError, match="missing 'states'"):
        parse_gnfa("gnfa 1\ninitial 1\n")
    with pytest.raises(GnfaFormatError, match="missing 'initial'"):
        parse_gnfa("gnfa 1\nstates 2\n")
    with pytest.raises(GnfaFormatError, match="initial state must be 1"):
        parse_gnfa("gnfa 1\nstates 2\ninitial 2\n")
    with pytest.raises(GnfaFormatError, match="line 4"):
        parse_gnfa("gnfa 1\nstates 2\ninitial 1\nedge 1 x a\n")
    with pytest.raises(GnfaFormatError, match="unknown directive"):
        parse_gnfa("gnfa 1\nstates 2\ninitial 1\nnode 1\n")
    with pytest.raises(GnfaFormatError, match="out of range"):
        parse_gnfa("gnfa 1\nstates 2\ninitial 1\nedge 1 5 a\n")
    with pytest.raises(SentinelInLabelError):
        parse_gnfa("gnfa 1\nstates 2\ninitial 1\nedge 1 2 \\x01\n")
    with pytest.raises(SentinelInLabelError):
        parse_gnfa("gnfa 1\nstates 2\ninitial 1\nedge 1 2 a\\x00b\n")


def test_validate_samples(ten_state, four_state):
    for a in (ten_state, four_state):
        rep = validate(a, axiom1_depth=6)
        assert rep.ok
        assert rep.axiom1_verdict == "passed-bounded"
        assert all("FAIL" not in line for line in rep.lines())


def test_validate_depth_zero_skips(ten_state):
    rep = validate(ten_state)
    assert rep.ok
    assert rep.axiom1_verdict == "skipped"
    assert "axiom1\tskipped" in rep.lines()


def test_validate_axiom4_on_swapped_states(ten_state):
    # renumbering 6 and 7 swaps the sources of the two "ba" edges
    def sw(q):
        return {6: 7, 7: 6}.get(q, q)

    edges = tuple(sorted((sw(u), sw(v), rho) for u, v, rho in ten_state.edges))
    bad = GeneralizedAutomaton(
        state_count=10, edges=edges, finals=ten_state.finals
    )
    rep = validate(bad, axiom1_depth=4)
    assert not rep.ok
    assert not rep.axiom4_ok
    e1, e2 = rep.axiom4_witness
    assert e1[2] == e2[2]
    assert e1[1] < e2[1] and e1[0] > e2[0]


def test_validate_axiom3_violation():
    # state 2 is entered on "b", state 3 on "a": labels out of order
    bad = GeneralizedAutomaton(
        state_count=3,
        edges=((1, 2, b"b"), (1, 3, b"a")),
        finals=frozenset({2, 3}),
    )
    rep = validate(bad)
    assert not rep.axiom3_ok
    assert rep.axiom3_witness == ((1, 2, b"b"), (1, 3, b"a"))


def test_validate_axiom3_suffix_exemption_but_axiom1_fails():
    # incoming label "b" into 3 is a strict suffix of "ab" into 2, so
    # axiom 3 is satisfied, yet the incoming strings are bab vs b and
    # bab sorts after b: only the depth probe can tell them apart.
    bad = GeneralizedAutomaton(
        state_count=3,
        edges=((1, 3, b"b"), (3, 2, b"ab")),
        finals=frozenset({2}),
    )
    rep = validate(bad, axiom1_depth=4)
    assert rep.axiom3_ok and rep.axiom4_ok
    assert rep.axiom1_verdict == "failed"
    u, v, alpha, beta = rep.axiom1_witness
    assert (u, v) == (2, 3)
    assert (alpha, beta) == (b"bab", b"b")
    assert not rep.ok


def test_validate_unreachable_states():
    a = GeneralizedAutomaton(
        state_count=3, edges=((1, 2, b"a"),), finals=frozenset({2})
    )
    rep = validate(a)
    assert not rep.reachable_ok and not rep.coreachable_ok


def test_incoming_strings_sample(ten_state):
    inc = incoming_strings(ten_state, 6)
    assert inc[1] == {b""}
    assert inc[2] == {b"a"}
    assert inc[3] == {b"aca", b"bba", b"cca"}
    assert inc[4] == {b"aca", b"bba", b"cca"}
    assert inc[5] == {b"aca", b"cca"}
    assert inc[6] == {b"b"}
    assert inc[10] == {b"c"}


def test_incoming_strings_budget(ten_state):
    assert incoming_strings(ten_state, 6, budget=3) is None
    assert incoming_strings(ten_state, 6, budget=100) is not None


def test_model_rejects_bad_shapes():
    with pytest.raises(GnfaFormatError):
        GeneralizedAutomaton(state_count=0, edges=(), finals=frozenset())
    with pytest.raises(GnfaFormatError):
        GeneralizedAutomaton(
            state_count=2, edges=((1, 3, b"a"),), finals=frozenset()
        )
    with pytest.raises(GnfaFormatError):
        GeneralizedAutomaton(state_count=2, edges=(), finals=frozenset({3}))
    with pytest.raises(GnfaFormatError):
        GeneralizedAutomaton(state_count=2, edges=(), finals=frozenset(), initial=3)
    # an in-range non-1 initial constructs fine but fails axiom 2
    shifted = GeneralizedAutomaton(
        state_count=2, edges=((2, 1, b"a"),), finals=frozenset({1}), initial=2
    )
    assert not validate(shifted).axiom2_ok


# -- the near-linear axiom 3/4 pass against the plain pair loop --------------


def _reference_pair_breaks(e1, e2):
    """3 or 4 for the axiom a pair breaks, 0 for neither; e1 enters a
    smaller state than e2."""
    rho, rho2 = e1[2], e2[2]
    if rho2 != rho and rho.endswith(rho2):
        return 0  # strict suffix, exempt from the label comparison
    if colex_key(rho) > colex_key(rho2):
        return 3
    if rho == rho2 and e1[0] > e2[0]:
        return 4
    return 0


def _reference_first_broken_pair(edges):
    """The O(E^2) pair loop: the first pair of the by-target order that
    breaks axiom 3 or 4, as (axiom, pair), else (None, None)."""
    by_target = sorted(edges, key=lambda e: e[1])
    for i, e1 in enumerate(by_target):
        for e2 in by_target[i + 1 :]:
            if e2[1] != e1[1]:
                axiom = _reference_pair_breaks(e1, e2)
                if axiom:
                    return axiom, (e1, e2)
    return None, None


def _reached(adj, start):
    seen = set(start)
    todo = deque(seen)
    while todo:
        for v in adj[todo.popleft()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def _reference_validate(a):
    """validate at depth 0, with axioms 3 and 4 by the pair loop."""
    n = a.state_count
    fwd = [[] for _ in range(n + 1)]
    rev = [[] for _ in range(n + 1)]
    for u, v, _ in a.edges:
        fwd[u].append(v)
        rev[v].append(u)
    witness = {3: None, 4: None}
    axiom, pair = _reference_first_broken_pair(a.edges)
    if axiom:
        witness[axiom] = pair
    return ValidationReport(
        reachable_ok=len(_reached(fwd, [a.initial])) == n,
        coreachable_ok=len(_reached(rev, a.finals)) == n,
        axiom2_ok=a.initial == 1,
        axiom3_ok=witness[3] is None,
        axiom4_ok=witness[4] is None,
        axiom3_witness=witness[3],
        axiom4_witness=witness[4],
        axiom1_verdict="skipped",
        axiom1_depth=0,
        axiom1_witness=None,
    )


def _renumber(a, perm, edge_order=None):
    edges = [(perm[u], perm[v], rho) for u, v, rho in a.edges]
    if edge_order is not None:
        edges = [edges[k] for k in edge_order]
    return GeneralizedAutomaton(
        state_count=a.state_count,
        edges=tuple(edges),
        finals=frozenset(perm[q] for q in a.finals),
    )


def _random_renumbering(a, rng):
    """a with states 2..n and the edge list shuffled; state 1 stays."""
    rest = list(range(2, a.state_count + 1))
    rng.shuffle(rest)
    perm = {1: 1, **dict(zip(range(2, a.state_count + 1), rest))}
    order = list(range(len(a.edges)))
    rng.shuffle(order)
    return _renumber(a, perm, order)


def test_validate_equals_pair_loop_on_corpus(all_corpus_names):
    rng = random.Random(20171)
    failing = 0
    for name in all_corpus_names:
        a = load_instance(name)
        for b in [a] + [_random_renumbering(a, rng) for _ in range(5)]:
            want = _reference_validate(b)
            assert validate(b) == want, name
            failing += not (want.axiom3_ok and want.axiom4_ok)
    assert failing > len(all_corpus_names)  # most renumberings break an axiom


# short labels over a, b and 0xff: suffixes of one another, all-0xff
# labels whose co-lex block has no upper end, and the empty label
_labels34 = st.lists(st.sampled_from(b"ab\xff"), max_size=3).map(bytes)


@st.composite
def _small_automata(draw):
    n = draw(st.integers(1, 6))
    state = st.integers(1, n)
    edges = draw(st.lists(st.tuples(state, state, _labels34), max_size=14))
    # repeat some edges, and send some to one target, so parallel edges
    # and crowded targets are common
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    target = draw(state)
    crowd = draw(st.lists(st.tuples(state, _labels34), max_size=4))
    edges += [(u, target, rho) for u, rho in crowd]
    order = draw(st.permutations(range(len(edges))))
    return GeneralizedAutomaton(
        state_count=n,
        edges=tuple(edges[k] for k in order),
        finals=frozenset(draw(st.sets(state))),
    )


@settings(max_examples=400)
@given(_small_automata())
def test_validate_equals_pair_loop_on_small_automata(a):
    assert validate(a) == _reference_validate(a)


def test_validate_criterion_09_trie():
    """The 10k-edge trie validates (the pair loop needs tens of seconds
    here), and breaking its order is caught with a genuine witness."""
    a = build_piece_trie(random.Random(271828), 1300, 28, 2, b"abcd")
    assert len(a.edges) > 10_000
    assert validate(a).ok

    into = {v: rho for _, v, rho in a.edges}  # a trie: one edge per state
    u = 2
    v = next(q for q in range(a.state_count, u, -1) if into[q] != into[u])
    perm = {q: q for q in range(1, a.state_count + 1)}
    perm[u], perm[v] = v, u
    rep = validate(_renumber(a, perm))
    assert not rep.ok
    assert rep.axiom3_ok != rep.axiom4_ok
    axiom, (e1, e2) = (3, rep.axiom3_witness) if not rep.axiom3_ok else (4, rep.axiom4_witness)
    assert e1[1] < e2[1]
    assert _reference_pair_breaks(e1, e2) == axiom
