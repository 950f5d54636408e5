"""Shared fixtures: sample automata and lazy corpus loading."""

from __future__ import annotations

import functools
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
