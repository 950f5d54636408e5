"""Counting and boundary queries against the two samples, then the same
ops checked against direct scans of the edge list on corpus instances."""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgnfa.generate import build_piece_trie
from wgnfa.index import _SAMPLED_MIN, NO_ROW, build_index
from wgnfa.model import (
    SENTINEL_BYTES,
    GeneralizedAutomaton,
    SentinelInLabelError,
    colex_key,
    validate,
)
from wgnfa.serial import IndexFormatError, deserialize, serialize

from conftest import corpus_names, load_index, load_instance, suffix_label_max


def test_out_count_ten(ten_state_index):
    ix = ten_state_index
    assert ix.out_count(ix.rows[b"a"], 9) == 3
    assert ix.out_count(ix.rows[b"b"], 9) == 2
    assert ix.out_count(ix.rows[b"b"], 5) == 2
    assert ix.out_count(ix.rows[b"bb"], 10) == 2
    assert ix.out_count(ix.rows[b"ca"], 10) == 2
    assert ix.out_count(ix.rows[b"ca"], 1) == 0
    assert ix.out_count(ix.rows.get(b"zz", NO_ROW), 10) == 0


def test_prefix_bounds_ten(ten_state_index):
    ix = ten_state_index
    assert ix.max_prefix_with_in_at_most(ix.rows[b"a"], 0) == 1
    assert ix.max_prefix_with_in_at_most(ix.rows[b"a"], 1) == 2
    assert ix.max_prefix_with_in_at_most(ix.rows[b"a"], 2) == 3
    assert ix.max_prefix_with_in_at_most(ix.rows[b"a"], 3) == 10  # all of them
    assert ix.max_prefix_with_in_at_most(ix.rows.get(b"zz", NO_ROW), 0) == 10  # unknown label
    assert ix.min_prefix_with_in_at_least(ix.rows[b"a"], 1) == 2
    assert ix.min_prefix_with_in_at_least(ix.rows[b"a"], 2) == 3
    assert ix.min_prefix_with_in_at_least(ix.rows[b"a"], 3) == 4
    with pytest.raises(ValueError):
        ix.min_prefix_with_in_at_least(ix.rows[b"a"], 4)
    with pytest.raises(ValueError):
        ix.min_prefix_with_in_at_least(ix.rows.get(b"zz", NO_ROW), 1)
    with pytest.raises(ValueError):
        ix.max_prefix_with_in_at_most(ix.rows[b"a"], -1)


def test_label_lower_bound_ten(ten_state_index):
    ix = ten_state_index
    assert ix.min_state_with_len_k_label_ge(1, b"a") == 2
    assert ix.min_state_with_len_k_label_ge(1, b"b") == 6
    assert ix.min_state_with_len_k_label_ge(1, b"c") == 10
    assert ix.min_state_with_len_k_label_ge(1, b"d") is None
    assert ix.min_state_with_len_k_label_ge(2, b"ba") == 3
    assert ix.min_state_with_len_k_label_ge(2, b"ca") == 5
    # alpha longer than k: only its tail matters and ties become strict
    assert ix.min_state_with_len_k_label_ge(1, b"cba") == 6
    assert ix.min_state_with_len_k_label_ge(2, b"cba") == 5
    assert ix.min_state_with_len_k_label_ge(3, b"a") is None


def test_suffix_label_max_ten(ten_state_index):
    ix = ten_state_index
    assert suffix_label_max(ix, b"a") == 5
    assert suffix_label_max(ix, b"ba") == 4
    assert suffix_label_max(ix, b"bb") == 9
    assert suffix_label_max(ix, b"d") == 0
    assert suffix_label_max(ix, b"cba") == 0  # longer than r


def test_markers_ten(ten_state_index):
    ix = ten_state_index
    assert [ix.marker_floor(j) for j in range(11)] == [0, 1, 2, 2, 2, 5, 6, 7, 8, 9, 10]
    assert [ix.marker_ceiling(h) for h in range(11)] == list(range(11))


def test_markers_four(four_state_index):
    ix = four_state_index
    assert [ix.marker_floor(j) for j in range(5)] == [0, 1, 2, 3, 4]
    assert [ix.marker_ceiling(h) for h in range(5)] == [0, 1, 2, 4, 4]


def test_finals_ten(ten_state_index):
    ix = ten_state_index
    assert ix.finals_in(1, 10)
    assert ix.finals_in(3, 4)
    assert ix.finals_in(3, 3)
    assert not ix.finals_in(5, 5)
    assert not ix.finals_in(4, 2)  # empty interval
    assert not ix.finals_in(5, 10)


def test_four_state_ops(four_state_index):
    ix = four_state_index
    assert [ix.out_count(ix.rows[b"b"], j) for j in range(5)] == [0, 1, 1, 1, 1]
    assert ix.max_prefix_with_in_at_most(ix.rows[b"b"], 0) == 2
    assert ix.max_prefix_with_in_at_most(ix.rows[b"b"], 1) == 4
    assert ix.min_state_with_len_k_label_ge(1, b"b") == 3
    assert ix.min_state_with_len_k_label_ge(1, b"bb") == 4
    assert suffix_label_max(ix, b"b") == 3
    assert suffix_label_max(ix, b"c") == 4


def test_properties(ten_state_index, four_state_index):
    assert (ten_state_index.n_states, ten_state_index.r) == (10, 2)
    assert (four_state_index.n_states, four_state_index.r) == (4, 1)
    assert ten_state_index.labels == (b"a", b"ba", b"ca", b"b", b"bb", b"c")
    assert not ten_state_index.sentinel_mode



def test_min_state_above_is_the_colex_suffix_minimum(all_corpus_names):
    """Each label's row holds the smallest state entered by any label
    co-lexicographically above it (0 if none), found by a direct scan of
    the edges, keyed by the dictionary's own label objects, built and
    loaded back."""
    rows = 0
    for name in all_corpus_names:
        a = load_instance(name)
        for sentinel in (False, True):
            lead = int(sentinel)
            led = [(v + lead, rho) for _, v, rho in a.edges if rho]
            led += [(2, SENTINEL_BYTES)] * sentinel
            built = load_index(name, sentinel)
            for ix in (built, deserialize(serialize(built))):
                assert {id(rho) for rho in ix.rows} == {id(rho) for rho in ix.labels}
                for rho in ix.labels:
                    above = [v for v, r2 in led if colex_key(r2) > colex_key(rho)]
                    assert ix.rows[rho][2] == min(above, default=0), (name, sentinel, rho)
                    rows += 1
    assert rows > 1000


def test_summary_derived_from_postings():
    """The index's epsilon count and longest label match the automaton's."""
    for name in corpus_names():
        a = load_instance(name)
        for ix in (load_index(name), deserialize(serialize(load_index(name)))):
            assert ix.epsilon_edge_count == sum(not rho for _, _, rho in a.edges), name
            assert ix.r == a.max_label_len, name


def _augment(a, lead_label=SENTINEL_BYTES):
    """Reference for the sentinel build: prepend the state and edge."""
    edges = [(1, 2, lead_label)]
    edges.extend((u + 1, v + 1, rho) for u, v, rho in a.edges)
    return GeneralizedAutomaton(
        state_count=a.state_count + 1,
        edges=tuple(edges),
        finals=frozenset(q + 1 for q in a.finals),
    )


def test_sentinel_build_matches_augmented(ten_state, four_state):
    """The sentinel build indexes the automaton with the sentinel state and
    edge prepended, which keeps the numbering Wheeler."""
    assert validate(_augment(ten_state), axiom1_depth=5).ok
    instances = [ten_state, four_state] + [load_instance(name) for name in corpus_names()]
    # a plain build refuses the reserved sentinel byte, so the reference
    # leads with 0x02, which also sorts below every corpus label byte
    stand_in = {SENTINEL_BYTES: b"\x02"}
    for a in instances:
        got = build_index(a, with_sentinel=True)
        want = build_index(_augment(a, b"\x02"))
        assert (
            got.n_states,
            [stand_in.get(rho, rho) for rho in got.labels],
            {stand_in.get(rho, rho): row for rho, row in got.rows.items()},
        ) == (want.n_states, list(want.labels), want.rows)
        for bits in ("finals", "b_max", "b_min"):
            assert getattr(got, bits).to_bytes() == getattr(want, bits).to_bytes()


@pytest.mark.parametrize("byte", [0x00, 0x01])
@pytest.mark.parametrize("with_sentinel", [False, True])
def test_sentinel_build_rejects_sentinel_label(with_sentinel, byte):
    # no container could load such a label back
    label = b"a" + bytes([byte])
    a = GeneralizedAutomaton(state_count=2, edges=((1, 2, label),), finals=frozenset({2}))
    with pytest.raises(SentinelInLabelError):
        build_index(a, with_sentinel=with_sentinel)


# -- ops versus direct scans on real instances ----------------------------


def _scan_checks(a, ix):
    n = a.state_count
    led = [e for e in a.edges if e[2]]
    label_set = sorted({rho for _, _, rho in led}, key=colex_key)
    # every suffix of every label, so that suffix blocks whose end is not
    # itself a label are probed too, and one string longer than r
    suffixes = sorted({rho[k:] for rho in label_set for k in range(1, len(rho))})
    longest = max(label_set, key=len)
    probes = label_set + suffixes + [b"", b"\xfe", label_set[0] + label_set[-1]]
    probes.append(b"\xfe" + longest)
    for rho in probes:
        outs = sorted(u for u, _, r2 in led if r2 == rho)
        ins = sorted(v for _, v, r2 in led if r2 == rho)
        for j in (0, 1, n // 2, n):
            assert ix.out_count(ix.rows.get(rho, NO_ROW), j) == bisect_right(outs, j)
        for f in (0, 1, len(ins)):
            want = max(j for j in range(n + 1) if bisect_right(ins, j) <= f)
            assert ix.max_prefix_with_in_at_most(ix.rows.get(rho, NO_ROW), f) == want
        for g in range(1, len(ins) + 1):
            want = min(j for j in range(n + 1) if bisect_right(ins, j) >= g)
            assert ix.min_prefix_with_in_at_least(ix.rows.get(rho, NO_ROW), g) == want
    for alpha in probes:
        for k in range(1, a.max_label_len + 1):
            hits = [
                v
                for _, v, r2 in led
                if len(r2) == k and colex_key(r2) >= colex_key(alpha)
            ]
            want = min(hits) if hits else None
            assert ix.min_state_with_len_k_label_ge(k, alpha) == want
        suff = [v for _, v, r2 in led if r2.endswith(alpha)]
        assert suffix_label_max(ix, alpha) == max(suff, default=0)


def test_ops_match_scans_on_samples(ten_state, four_state):
    for a in (ten_state, four_state):
        _scan_checks(a, build_index(a))


@pytest.mark.parametrize("name", corpus_names()[::9] or ["ten-state"])
def test_ops_match_scans_on_corpus(name):
    _scan_checks(load_instance(name), load_index(name))


def _bits(bv):
    """The bits of bv as a list, read off its packed bytes alone."""
    return [int(c) for c in "".join(f"{byte:08b}" for byte in bv.to_bytes())[: bv.n]]


def test_markers_and_finals_match_scans_on_corpus():
    """marker_floor, marker_ceiling and finals_in agree with linear scans
    of the index's own bits on every corpus instance, plain and sentinel,
    built and loaded back; the corpus's epsilon instances give the only
    marker bits that are not all set."""
    zeros = 0
    for name in corpus_names():
        for sentinel in (False, True):
            built = load_index(name, sentinel)
            for ix in (built, deserialize(serialize(built))):
                n = ix.n_states
                b_max, b_min, fin = (_bits(ix.b_max), _bits(ix.b_min), _bits(ix.finals))
                zeros += b_max.count(0) + b_min.count(0)
                for j in range(n + 1):
                    want = max((t for t in range(1, j + 1) if b_max[t - 1]), default=0)
                    assert ix.marker_floor(j) == want, (name, sentinel, j)
                for h in range(n + 1):
                    want = min(t for t in range(h, n + 1) if t == n or b_min[t])
                    assert ix.marker_ceiling(h) == want, (name, sentinel, h)
                for lo in range(1, n + 2):
                    for hi in range(lo - 1, n + 1):
                        assert ix.finals_in(lo, hi) == any(fin[lo - 1 : hi]), (name, lo, hi)
    assert zeros > 0


# -- ops versus direct scans on arbitrary edge multisets ------------------

# every label over a, b and 0xff of length 1..3: many share suffixes, and
# an all-0xff label of length r equals the end of the empty suffix's block
_LABELS = [bytes(t) for k in (1, 2, 3) for t in itertools.product(b"ab\xff", repeat=k)]


@st.composite
def _edge_multisets(draw):
    """Labeled edges that need not be Wheeler, with parallel edges and
    acyclic epsilon edges; every drawn label has at least one edge."""
    n = draw(st.integers(1, 12))
    state = st.integers(1, n)
    pool = draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=40, unique=True))
    edges = [(draw(state), draw(state), rho) for rho in pool]
    edges += draw(st.lists(st.tuples(state, state, st.sampled_from(pool)), max_size=40))
    edges += draw(st.lists(st.sampled_from(edges), max_size=10))  # parallel edges
    pairs = draw(st.lists(st.tuples(state, state), max_size=6))
    edges += [(min(u, v), max(u, v), b"") for u, v in pairs if u != v]
    finals = draw(st.frozensets(state, max_size=n))
    return GeneralizedAutomaton(state_count=n, edges=tuple(edges), finals=finals)


def _breaks_axiom3(a):
    """Some labeled edge enters a smaller state than an edge whose label
    it sorts co-lexicographically above without ending with it."""
    led = [e for e in a.edges if e[2]]
    return any(
        v < v2 and colex_key(rho) > colex_key(rho2) and not rho.endswith(rho2)
        for _, v, rho in led
        for _, v2, rho2 in led
    )


def _unentered_beyond_epsilon(a):
    """More states 2..n enter by no labeled edge than there are epsilon
    edges."""
    entered = {v for _, v, rho in a.edges if rho}
    epsilon = sum(not rho for _, _, rho in a.edges)
    return len(set(range(2, a.state_count + 1)) - entered) > epsilon


def _targets_in_label_order(a):
    """a with its labeled edges' targets dealt out again in co-lex label
    order, which keeps axiom 3."""
    led = sorted((e for e in a.edges if e[2]), key=lambda e: colex_key(e[2]))
    targets = sorted(v for _, v, _ in led)
    edges = [(u, v, rho) for (u, _, rho), v in zip(led, targets)]
    edges += [e for e in a.edges if not e[2]]
    return GeneralizedAutomaton(state_count=a.state_count, edges=tuple(edges), finals=a.finals)


# all 39 labels reach the range-maximum level 5 (a block of 32 labels)
@example(
    GeneralizedAutomaton(
        state_count=9,
        edges=tuple((i % 9 + 1, (7 * i) % 9 + 1, rho) for i, rho in enumerate(_LABELS * 2)),
        finals=frozenset({3}),
    )
)
@settings(max_examples=200, deadline=None)
@given(_edge_multisets())
def test_ops_match_scans_on_edge_multisets(a):
    # a file is refused on load iff its edges break axiom 3 or leave more
    # states unentered than it has epsilon edges; the same edges with
    # their targets in label order keep axiom 3 and enter the same states
    _scan_checks(a, build_index(a))
    relabeled = _targets_in_label_order(a)
    assert not _breaks_axiom3(relabeled)
    for b in (a, relabeled):
        blob = serialize(build_index(b))
        if _breaks_axiom3(b):
            with pytest.raises(IndexFormatError, match="axiom 3"):
                deserialize(blob)
        elif _unentered_beyond_epsilon(b):
            with pytest.raises(IndexFormatError, match="without an incoming edge"):
                deserialize(blob)
        else:
            _scan_checks(b, deserialize(blob))


# -- block-sampled rank ----------------------------------------------------


def _criterion09_trie():
    return build_piece_trie(random.Random(271828), 1300, 28, 2, b"abcd")


def _many_label_trie():
    """3,703 labels, most of them with a single edge."""
    return build_piece_trie(random.Random(271828), 3000, 28, 8, b"abcd")


def _assert_rank_is_a_plain_bisect(ix, every_j=True):
    """out_count(row, j) == bisect_right(sources, j) for every row and
    NO_ROW, at every j in 0..n; with every_j False, a row without a
    block table of its own is checked only where the plain count can
    change (0, n and each source less one, itself and plus one)."""
    n, out_count = ix.n_states, ix.out_count
    for row in (*ix.rows.values(), NO_ROW):
        sources = row[0]
        if every_j or row[5] is not None:
            js = range(n + 1)
        else:
            js = sorted({0, n}.union(*((s - 1, s, min(s + 1, n)) for s in sources)))
        got = list(map(out_count, itertools.repeat(row), js))
        assert got == list(map(bisect_right, itertools.repeat(sources), js)), (len(sources), n)


def test_sampled_rank_is_a_plain_bisect(all_corpus_names):
    """On every corpus index, plain and sentinel, on the criterion-09
    trie and on the 3,703-label trie (every j on its three rows with
    tables and on NO_ROW, the others where their count can change: every
    j over all of them takes seconds)."""
    for name in all_corpus_names:
        for sentinel in (False, True):
            _assert_rank_is_a_plain_bisect(load_index(name, sentinel))
    for sentinel in (False, True):
        ix = build_index(_criterion09_trie(), with_sentinel=sentinel)
        assert sum(row[5] is not None for row in ix.rows.values()) >= 19
        _assert_rank_is_a_plain_bisect(ix)
    ix = build_index(_many_label_trie())
    assert len(ix.labels) == 3703
    _assert_rank_is_a_plain_bisect(ix, every_j=False)


@st.composite
def _sorted_sources(draw):
    """(n, ascending sources in 1..n): drawn with replacement, so a state
    may be the source of several edges with one label, and with the
    count just below, at or just above the sampling threshold."""
    n = draw(st.integers(1, 3000))
    m = draw(
        st.one_of(st.integers(1, 3 * _SAMPLED_MIN), st.integers(_SAMPLED_MIN - 2, _SAMPLED_MIN + 2))
    )
    rng = draw(st.randoms(use_true_random=False))
    lo = rng.randint(1, n)  # a skew: most sources in lo..n
    sources = [rng.randint(rng.choice((1, lo)), n) for _ in range(m)]
    if draw(st.booleans()):
        sources[0] = n
    return n, sorted(sources)


@settings(max_examples=150, deadline=None)
@given(_sorted_sources())
@example((1, [1] * _SAMPLED_MIN))
@example((5000, [5000] * _SAMPLED_MIN))
@example((5000, list(range(4745, 5001))))
def test_sampled_rank_property(case):
    """out_count equals a plain bisect at every j in 0..n, with repeats,
    sources at n and the count on either side of the threshold."""
    n, sources = case
    edges = tuple((u, n, b"a") for u in sources)
    ix = build_index(GeneralizedAutomaton(state_count=n, edges=edges, finals=frozenset()))
    row = ix.rows[b"a"]
    assert list(row[0]) == sources
    assert (row[5] is None) == (len(sources) < _SAMPLED_MIN)
    _assert_rank_is_a_plain_bisect(ix)


def test_block_tables_within_space_bound(all_corpus_names):
    """The block tables of an index hold at most 2E/32 + 2L entries in
    all (E labeled edges, L labels), their blocks hold at most 32
    sources on average, and every label under the threshold holds None,
    as NO_ROW does, instead of an array of its own."""
    indexes = [load_index(name, sentinel) for name in all_corpus_names for sentinel in (0, 1)]
    indexes += [build_index(_criterion09_trie()), build_index(_many_label_trie())]
    indexes.append(build_index(build_piece_trie(random.Random(271828), 13000, 28, 2, b"abcd")))
    sampled = 0
    for ix in indexes:
        rows = ix.rows.values()
        edges = sum(len(row[0]) for row in rows)
        tables = [row[5] for row in rows if row[5] is not None]
        assert sum(map(len, tables)) <= 2 * edges / 32 + 2 * len(rows)
        for row in rows:
            if len(row[0]) < _SAMPLED_MIN:
                assert row[5] is None
            else:
                assert row[5] is not None and row[5][0] == 0 and row[5][-1] == len(row[0])
                # len - 1 blocks cover the states 0..n
                assert len(row[0]) <= 32 * (len(row[5]) - 1)
        sampled += len(tables)
    assert sampled >= 40
