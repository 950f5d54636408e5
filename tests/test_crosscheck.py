"""Randomized agreement between the index and the brute-force path."""

from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wgnfa.crosscheck import crosscheck_instance
from wgnfa.generate import GenerationError, GenerationParams, generate_instance, sample_patterns
from wgnfa.model import GeneralizedAutomaton


def test_samples_agree(ten_state, four_state):
    pats = [b"", b"a", b"b", b"c", b"ba", b"bb", b"ca", b"cb", b"aca", b"bba",
            b"cca", b"cba", b"abc", b"aaaa", b"bbbb", b"bacaba"]
    assert crosscheck_instance(ten_state, pats) == []
    assert crosscheck_instance(four_state, pats) == []


def test_generated_instances_agree():
    for seed in range(30):
        a = generate_instance(seed)
        rng = random.Random(seed * 31 + 7)
        pats = sample_patterns(rng, a, 40)
        problems = crosscheck_instance(a, pats)
        assert problems == [], f"seed {seed}: {problems[:3]}"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    epsilon_attempts=st.sampled_from([0, 8, 24]),
    max_piece_len=st.integers(1, 3),
    data=st.data(),
)
def test_patterns_off_the_label_bytes_agree(seed, epsilon_attempts, max_piece_len, data):
    # patterns that mix label bytes with bytes no label holds, so that
    # some chunks are dictionary labels and some are not, on instances
    # with and without epsilon edges; crosscheck_instance runs them on a
    # plain and a sentinel index
    params = GenerationParams(epsilon_attempts=epsilon_attempts, max_piece_len=max_piece_len)
    try:
        a = generate_instance(seed, params)
    except GenerationError:
        assume(False)
    label_bytes = sorted({b for _, _, rho in a.edges for b in rho})
    foreign = [b for b in b"dxyz" if b not in label_bytes]
    word = st.lists(st.sampled_from(label_bytes + foreign), max_size=10).map(bytes)
    patterns = data.draw(st.lists(word, min_size=1, max_size=20))
    assert crosscheck_instance(a, patterns) == []


def test_detects_planted_divergence(ten_state, scrambled_ten_state):
    # mangling the finals makes the membership column disagree
    lying = GeneralizedAutomaton(
        state_count=10,
        edges=ten_state.edges,
        finals=frozenset({6}),
    )
    # the lie is internally consistent (both paths see the same finals),
    # so agreement still holds; what must flag instead is a wrong order
    assert crosscheck_instance(lying, [b"a", b"bba"]) == []
    assert crosscheck_instance(scrambled_ten_state, [b"", b"a", b"b", b"ba", b"bba"]) != []
