"""Randomized agreement between the index and the brute-force path."""

from __future__ import annotations

import random

from wgnfa.crosscheck import crosscheck_instance
from wgnfa.generate import generate_instance, sample_patterns
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
