"""Instance generation: determinism, validity, and exact screening."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgnfa.generate import (
    ALPHABET_POOL,
    GenerationError,
    GenerationParams,
    _merge_sink_run,
    build_piece_trie,
    generate_instance,
    sample_patterns,
    wheeler_exact,
)
from wgnfa.model import GeneralizedAutomaton, colex_key, format_gnfa, validate
from wgnfa.oracle import brute_below_count

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("make_corpus", ROOT / "scripts" / "make_corpus.py")
make_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_corpus)


def test_deterministic():
    a = generate_instance(4321)
    b = generate_instance(4321)
    assert a == b
    assert generate_instance(4322) != a


def test_generated_instances_are_wheeler():
    for seed in range(20):
        a = generate_instance(seed)
        p = GenerationParams()
        assert p.min_states <= a.state_count <= p.max_states or a.state_count >= 2
        assert validate(a, axiom1_depth=4).ok
        assert wheeler_exact(a)


def test_trie_is_wheeler_by_construction():
    for seed in (1, 2, 3):
        a = build_piece_trie(
            random.Random(seed),
            n_strings=5,
            max_string_len=8,
            max_piece_len=2,
            alphabet=b"ab",
        )
        assert validate(a, axiom1_depth=6).ok
        assert a.finals  # sinks exist and are final
        assert wheeler_exact(a)


def _reference_piece_trie(rng, n_strings, max_string_len, max_piece_len, alphabet):
    """A plain build of the piece trie: the draws spelled out one call at
    a time, every cut kept as its (parent, child, piece) strings and the
    states numbered by colex_key."""
    node_keys = {b""}
    edge_set: set[tuple[bytes, bytes, bytes]] = set()
    for _ in range(n_strings):
        length = rng.randint(1, max_string_len)
        s = bytes(rng.choice(alphabet) for _ in range(length))
        pos = 0
        while pos < length:
            step = rng.randint(1, min(max_piece_len, length - pos))
            piece = s[pos : pos + step]
            edge_set.add((s[:pos], s[: pos + step], piece))
            node_keys.add(s[: pos + step])
            pos += step

    ordered = sorted(node_keys, key=colex_key)
    ids = {key: i for i, key in enumerate(ordered, start=1)}
    edges = tuple(
        (ids[a], ids[b], piece)
        for a, b, piece in sorted(edge_set, key=lambda t: (ids[t[0]], ids[t[1]], t[2]))
    )
    has_out = {ids[a] for a, _, _ in edge_set}
    sinks = frozenset(i for key, i in ids.items() if i not in has_out)
    return GeneralizedAutomaton(state_count=len(ordered), edges=edges, finals=sinks)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alphabet_size=st.integers(1, 4),
    max_piece_len=st.integers(1, 8),
    max_string_len=st.integers(1, 28),
    n_strings=st.one_of(st.integers(0, 40), st.integers(0, 3000)),
)
@example(seed=0, alphabet_size=1, max_piece_len=1, max_string_len=1, n_strings=0)
@example(seed=1, alphabet_size=1, max_piece_len=8, max_string_len=1, n_strings=30)
@example(seed=271828, alphabet_size=4, max_piece_len=8, max_string_len=28, n_strings=3000)
def test_piece_trie_equals_reference(seed, alphabet_size, max_piece_len, max_string_len, n_strings):
    """build_piece_trie gives the reference's automaton and leaves the
    generator in the reference's state: the same calls in the same order,
    which the corpus and the benchmark seeds rely on."""
    alphabet = ALPHABET_POOL[:alphabet_size]
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got = build_piece_trie(got_rng, n_strings, max_string_len, max_piece_len, alphabet)
    want = _reference_piece_trie(want_rng, n_strings, max_string_len, max_piece_len, alphabet)
    assert got == want
    assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize(
    "n_strings, states, edges, digest",
    [(1300, 9863, 10227, "1d630300e652e0b3"), (13000, 85229, 88808, "fee8ba6036ea31a5")],
)
def test_benchmark_tries_are_pinned(n_strings, states, edges, digest):
    """The seed-271828 tries that criterion 09 and the benchmark draw."""
    a = build_piece_trie(random.Random(271828), n_strings, 28, 2, b"abcd")
    assert (a.state_count, len(a.edges)) == (states, edges)
    assert hashlib.sha256(format_gnfa(a).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("shape", [0, 1])
def test_merged_sink_run_is_wheeler(shape):
    """Collapsing a run of order-consecutive sinks keeps a Wheeler order,
    which is why generate_instance does not re-check a merge; the two
    shapes are those of the corpus's confined and roaming instances."""
    p = make_corpus.params_for(shape)
    merges = 0
    for seed in range(100):
        rng = random.Random(seed)
        trie = build_piece_trie(
            rng, p.n_strings, p.max_string_len, p.max_piece_len, ALPHABET_POOL[: p.alphabet_size]
        )
        merged = _merge_sink_run(trie, rng)
        if merged is not None:
            merges += 1
            assert merged.state_count < trie.state_count
            assert wheeler_exact(merged), seed
    assert merges > 0


@pytest.mark.parametrize("epsilon_attempts", [0, 8])
def test_generated_instances_have_prefix_shape(epsilon_attempts):
    """On a generated instance the states strictly below a pattern form
    a prefix, so the oracle's count raises no ShapeViolation."""
    params = GenerationParams(epsilon_attempts=epsilon_attempts)
    for seed in range(50):
        a = generate_instance(seed, params)
        for pattern in sample_patterns(random.Random(seed), a, 20):
            brute_below_count(a, pattern)


def test_wheeler_exact_rejects_planted_violation():
    # "b" into 3, then "ab" out of it: axiom 3 exempts the suffix pair
    # but the incoming strings are out of order, which only the full
    # enumeration catches
    bad = GeneralizedAutomaton(
        state_count=3,
        edges=((1, 3, b"b"), (3, 2, b"ab")),
        finals=frozenset({2}),
    )
    assert not wheeler_exact(bad)


def test_wheeler_exact_accepts_samples(ten_state, four_state):
    assert wheeler_exact(ten_state)
    assert wheeler_exact(four_state)


def test_wheeler_exact_budget(ten_state):
    assert not wheeler_exact(ten_state, budget=2)


def test_generation_error_when_window_unreachable():
    params = GenerationParams(n_strings=1, max_string_len=2, min_states=25, max_states=30)
    with pytest.raises(GenerationError):
        generate_instance(1, params)


def test_sample_patterns():
    a = generate_instance(7)
    pats = sample_patterns(random.Random(5), a, 50)
    again = sample_patterns(random.Random(5), a, 50)
    assert pats == again
    assert pats[0] == b""
    assert len(pats) == 50
    assert all(len(p) <= 10 for p in pats)
    labels = {b for _, _, rho in a.edges for b in rho}
    assert all(set(p) <= labels for p in pats)


def test_corpus_regenerates(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_corpus.py"), "--out", str(tmp_path)],
        env=env, capture_output=True, check=True,
    )

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    got, want = files(tmp_path), files(ROOT / "corpus")
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []
