"""Shared fixtures: sample automata and lazy corpus loading."""

from __future__ import annotations

import functools
from bisect import bisect_left
from pathlib import Path

import pytest

from wgnfa.index import WheelerIndex, build_index
from wgnfa.model import GeneralizedAutomaton, parse_gnfa, parse_patterns
from wgnfa.samples import four_state_sample, ten_state_sample

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
INVALID_DIR = CORPUS_DIR / "invalid"


def corpus_names() -> list[str]:
    if not CORPUS_DIR.is_dir():
        return []
    return sorted(p.stem for p in CORPUS_DIR.glob("*.gnfa"))


@functools.lru_cache(maxsize=None)
def load_instance(name: str) -> GeneralizedAutomaton:
    return parse_gnfa((CORPUS_DIR / f"{name}.gnfa").read_text())


@functools.lru_cache(maxsize=None)
def load_sidecar_patterns(name: str) -> tuple[bytes, ...]:
    return tuple(parse_patterns((CORPUS_DIR / f"{name}.patterns").read_bytes()))


@functools.lru_cache(maxsize=None)
def load_index(name: str, with_sentinel: bool = False) -> WheelerIndex:
    return build_index(load_instance(name), with_sentinel=with_sentinel)


# the label of augment's loop: a plain build refuses the reserved sentinel
# byte 0x01, and 0x02 also sorts below every label byte and appears in no
# test label or pattern
STAND_IN = b"\x02"


def augment(a: GeneralizedAutomaton) -> GeneralizedAutomaton:
    """a with the loop (1, 1, STAND_IN) added: the automaton a sentinel
    index's membership queries reason about, with the never-stored 0x01
    loop on state 1 made explicit.  Its plain index, walked on STAND_IN
    followed by P, is the reference for membership of P."""
    return GeneralizedAutomaton(
        state_count=a.state_count, edges=((1, 1, STAND_IN), *a.edges), finals=a.finals
    )


@functools.lru_cache(maxsize=None)
def load_augmented_index(name: str) -> WheelerIndex:
    return build_index(augment(load_instance(name)))


def suffix_label_max(ix: WheelerIndex, alpha: bytes) -> int:
    """ix.max_state_with_suffix_label for alpha, asked as the matcher asks
    it: with alpha reversed and where that sorts among the reversed labels."""
    rev = alpha[::-1]
    return ix.max_state_with_suffix_label(rev, bisect_left(ix.revs, rev))


def invalid_paths() -> list[Path]:
    if not INVALID_DIR.is_dir():
        return []
    return sorted(INVALID_DIR.glob("*.gnfa"))


@pytest.fixture(scope="session")
def ten_state() -> GeneralizedAutomaton:
    return ten_state_sample()


@pytest.fixture(scope="session")
def four_state() -> GeneralizedAutomaton:
    return four_state_sample()


@pytest.fixture(scope="session")
def scrambled_ten_state(ten_state: GeneralizedAutomaton) -> GeneralizedAutomaton:
    """The ten-state sample with states 3 and 8 swapped, which breaks the
    Wheeler order the index relies on."""

    def sw(q):
        return {3: 8, 8: 3}.get(q, q)

    return GeneralizedAutomaton(
        state_count=10,
        edges=tuple((sw(u), sw(v), rho) for u, v, rho in ten_state.edges),
        finals=frozenset(sw(q) for q in ten_state.finals),
    )


@pytest.fixture(scope="session")
def ten_state_index(ten_state: GeneralizedAutomaton) -> WheelerIndex:
    return build_index(ten_state)


@pytest.fixture(scope="session")
def four_state_index(four_state: GeneralizedAutomaton) -> WheelerIndex:
    return build_index(four_state)


@pytest.fixture(scope="session")
def all_corpus_names() -> list[str]:
    names = corpus_names()
    if not names:
        pytest.skip("corpus not generated; run scripts/make_corpus.py")
    return names
