"""Rank/select bitvector laws."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wgnfa.bitvec import RankSelectBits

bitlists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64)


@st.composite
def skewed_bitlists(draw):
    """Up to 300 bits, mostly one value with at most as many of the
    other, so either bit may be the rarer one."""
    n = draw(st.integers(0, 300))
    common = draw(st.integers(0, 1))
    flips = draw(st.sets(st.integers(0, n - 1), max_size=n // 2)) if n else set()
    return [common ^ (i in flips) for i in range(n)]


@st.composite
def tied_bitlists(draw):
    """As many ones as zeros, in any order."""
    k = draw(st.integers(0, 150))
    return draw(st.permutations([1] * k + [0] * k))


def _check_against_prefix_sums(bits: list[int], bv: RankSelectBits) -> None:
    n = len(bits)
    cum = [0]
    for b in bits:
        cum.append(cum[-1] + b)
    positions = [i for i in range(1, n + 1) if bits[i - 1]]
    assert (bv.n, bv.ones) == (n, cum[-1])
    assert [bv[i] for i in range(1, n + 1)] == bits
    assert [bv.rank1(i) for i in range(n + 1)] == cum
    assert [bv.select1(k) for k in range(1, bv.ones + 1)] == positions
    for bad in (0, n + 1):
        with pytest.raises(IndexError):
            bv[bad]
    for bad in (-1, n + 1):
        with pytest.raises(IndexError):
            bv.rank1(bad)
    for bad in (0, bv.ones + 1):
        with pytest.raises(IndexError):
            bv.select1(bad)


def test_small_example():
    bv = RankSelectBits(bytes([1, 0, 1, 1, 0]))
    assert bv.n == 5
    assert [bv[i] for i in range(1, 6)] == [1, 0, 1, 1, 0]
    assert [bv.rank1(i) for i in range(6)] == [0, 1, 1, 2, 3, 3]
    assert bv.select1(1) == 1
    assert bv.select1(2) == 3
    assert bv.select1(3) == 4
    assert bv.ones == 3


def test_bounds():
    bv = RankSelectBits(bytes([0, 1]))
    with pytest.raises(IndexError):
        bv.rank1(3)
    with pytest.raises(IndexError):
        bv.rank1(-1)
    with pytest.raises(IndexError):
        bv.select1(0)
    with pytest.raises(IndexError):
        bv.select1(2)


@given(bitlists)
def test_rank_counts_prefix(bits):
    bv = RankSelectBits(bytes(bits))
    for i in range(len(bits) + 1):
        assert bv.rank1(i) == sum(bits[:i])


@given(bitlists)
def test_select_rank_inverse(bits):
    bv = RankSelectBits(bytes(bits))
    for k in range(1, bv.ones + 1):
        p = bv.select1(k)
        assert bits[p - 1] == 1
        assert bv.rank1(p) == k
        assert bv.rank1(p - 1) == k - 1


@given(bitlists)
def test_bytes_round_trip(bits):
    bv = RankSelectBits(bytes(bits))
    again = RankSelectBits.from_bytes(bv.to_bytes(), len(bits))
    assert [again[i] for i in range(1, len(bits) + 1)] == bits


@example([])
@example([1] * 300)
@example([0] * 300)
@example([1, 0] * 150)
@example([0] * 150 + [1] * 150)
@given(skewed_bitlists())
def test_skewed_against_prefix_sums(bits):
    bv = RankSelectBits(bytes(bits))
    _check_against_prefix_sums(bits, bv)
    _check_against_prefix_sums(bits, RankSelectBits.from_bytes(bv.to_bytes(), len(bits)))


@given(tied_bitlists())
def test_tie_against_prefix_sums(bits):
    bv = RankSelectBits(bytes(bits))
    _check_against_prefix_sums(bits, bv)
    _check_against_prefix_sums(bits, RankSelectBits.from_bytes(bv.to_bytes(), len(bits)))


def test_all_ones_and_all_zeros():
    for n in (1, 7, 8, 9, 300):
        for bit in (0, 1):
            bits = [bit] * n
            bv = RankSelectBits.from_bytes(RankSelectBits(bytes(bits)).to_bytes(), n)
            _check_against_prefix_sums(bits, bv)


def test_from_bytes_empty():
    _check_against_prefix_sums([], RankSelectBits.from_bytes(b"", 0))


def test_from_bytes_length_check():
    with pytest.raises(ValueError):
        RankSelectBits.from_bytes(b"\x00", 9)


def test_bits_must_be_zero_or_one():
    with pytest.raises(ValueError, match="0 or 1"):
        RankSelectBits(bytes([0, 2]))


def test_from_bytes_padding_check():
    assert RankSelectBits.from_bytes(b"\xff\x80", 9).ones == 9
    with pytest.raises(ValueError, match="padding"):
        RankSelectBits.from_bytes(b"\xff\x81", 9)


def _packing_matches_numpy(bits: np.ndarray) -> None:
    n = len(bits)
    packed = RankSelectBits(bits.tobytes()).to_bytes()
    assert packed == np.packbits(bits).tobytes()
    again = RankSelectBits.from_bytes(packed, n)
    assert again.to_bytes() == packed
    unpacked = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=n)
    assert [again[i] for i in range(1, n + 1)] == unpacked.tolist()


def test_packing_against_numpy_small():
    rng = np.random.default_rng(1717)
    for n in range(1, 18):
        _packing_matches_numpy(np.zeros(n, dtype=np.uint8))
        _packing_matches_numpy(np.ones(n, dtype=np.uint8))
        _packing_matches_numpy(rng.integers(0, 2, size=n, dtype=np.uint8))


def test_packing_against_numpy_large():
    _packing_matches_numpy(np.random.default_rng(17).integers(0, 2, size=100_003, dtype=np.uint8))


def test_empty_bitvector():
    bv = RankSelectBits(b"")
    assert (bv.n, bv.ones, bv.rank1(0), bv.to_bytes()) == (0, 0, 0, b"")
    assert RankSelectBits.from_bytes(b"", 0).to_bytes() == b""


def test_large_random_against_numpy():
    rng = np.random.default_rng(4242)
    bits = rng.integers(0, 2, size=1_000_000, dtype=np.uint8)
    bv = RankSelectBits(bits.tobytes())
    cum = np.concatenate(([0], np.cumsum(bits)))
    for i in (0, 1, 999_999, 1_000_000, 500_000, 123_457):
        assert bv.rank1(i) == int(cum[i])
    ones = np.flatnonzero(bits) + 1
    for k in (1, len(ones) // 2, len(ones)):
        assert bv.select1(k) == int(ones[k - 1])


def test_all_ones_keeps_no_packed_copy():
    """An all-ones vector, as each closure marker of an epsilon-free
    index is, keeps its n and counts and no copy of its packed bytes:
    the 100,000-byte buffer it is read from is freed once it is built."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bv = RankSelectBits.from_bytes(bytes(bytearray(b"\xff" * 100_000)), 800_000)
        heap = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (bv.n, bv.ones, bv[1], bv[800_000]) == (800_000, 800_000, 1, 1)
    assert heap < 1024, heap
