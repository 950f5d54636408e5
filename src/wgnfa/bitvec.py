"""Rank/select over a static bit sequence, and the narrow unsigned
integer arrays the loaded index is made of.

Positions are 1-based to match the state numbering used everywhere
else.  rank1(i) counts set bits in positions 1..i, select1(k) finds
the position of the k-th set bit and any1(lo, hi) tells whether a set
bit lies in lo..hi.  A bitvector keeps n, its count of ones and the
ascending positions of its rarer bit (the ones on a tie), each in the
smallest of 1, 2, 4 or 8 bytes that holds n, and nothing else: to_bytes
packs the bits, eight to a byte as the container holds them, from those
positions.  With the ones stored, rank1(i) is a bisect over their
positions, select1(k) is the k-th of them, and any1(lo, hi) holds when
the first of them at or past lo is at most hi.  With the zeros stored,
rank1(i) is i less the zeros up to i, select1(k) is k plus the zeros
ahead of the k-th one, found by a bisect over a second array that
holds, for each zero, the number of ones before it, and lo..hi is all
zeros when the first stored zero at or past lo is lo and the one
hi - lo further on is hi, so any1 takes one bisect where
rank1(hi) - rank1(lo - 1) takes two.  A bitvector with m rarer bits
thus takes one or two arrays of m entries.
The closure markers have at most one zero per epsilon edge, so on an
epsilon-free index both arrays are empty, both operations bisect
nothing and each marker takes under 300 bytes of heap: on the
85,230-state benchmark index the three bitvectors take 41 kB, nearly
all of it the positions of the 10,094 final states.  The price is a
bisect where a directory of n+1 running counts would answer with one
lookup: once a marker holds a thousand zeros or more, each marker
rounding costs one to two microseconds more (2-vCPU Xeon, Python 3.11).
The index samples such counts for its label sources, every 2^s-th state
with about 32 sources a block (index.rank_samples), which the matcher
counts in up to 2r times a symbol, but not for these bitvectors: the
finals are asked once per pattern, and the markers bisect nothing
unless the automaton has epsilon edges, which no benchmark workload
has.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, count
from operator import sub

# the unsigned array typecode of each item width in bytes, read off the
# platform: which of 'I' and 'L' is 4 bytes wide varies between platforms
UINT_TYPECODES = {array(c).itemsize: c for c in "BHILQ"}

# bytes.translate tables between 0/1 bytes and base-2 ASCII digits
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")
# and between 0/1 bytes and their complement
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def uint_width(vmax: int) -> int:
    """The smallest of 1, 2, 4 and 8 bytes that holds 0..vmax."""
    for w in (1, 2, 4):
        if vmax < 1 << (8 * w):
            return w
    return 8


def uint_bytes(width: int, values) -> bytes:
    """values as little-endian `width`-byte unsigned integers."""
    arr = array(UINT_TYPECODES[width], values)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tobytes()


def uint_lanes(data: bytes, width: int, new_width: int) -> bytearray:
    """The little-endian `width`-byte unsigned integers in data as
    `new_width`-byte ones, copied lane by lane with no Python int per
    value: each keeps its low bytes, so a narrower width must hold them."""
    out = bytearray(len(data) // width * new_width)
    for b in range(min(width, new_width)):
        out[b::new_width] = data[b::width]
    return out


def uint_array(width: int, data: bytes) -> array:
    """The little-endian `width`-byte unsigned integers in data, in an
    array of exactly their count (filling an empty array, as frombytes
    does, would over-allocate it by a sixteenth)."""
    out = array(UINT_TYPECODES[width], [0]) * (len(data) // width)
    memoryview(out).cast("B")[:] = data
    if sys.byteorder == "big":
        out.byteswap()
    return out


class RankSelectBits:
    __slots__ = ("n", "ones", "_zeros_stored", "_rare", "_ones_before")

    def __init__(self, bits: bytes):
        # bits holds one 0/1 byte per position
        if bits.translate(None, b"\x00\x01"):
            raise ValueError("bits must be 0 or 1")
        self.n = len(bits)
        self.ones = bits.count(1)
        # the rarer bit is stored, the ones on a tie
        zeros_stored = self._zeros_stored = 2 * self.ones > self.n
        rare_count = self.n - self.ones if zeros_stored else self.ones
        typecode = UINT_TYPECODES[uint_width(self.n)]
        rare = array(typecode)
        # none in the markers of an epsilon-free index: no scan
        if rare_count:
            # an array grown from an iterator over-allocates; its [:] copy
            # is sized exactly, and needs no list holding an int per entry
            rare.extend(compress(count(1), bits.translate(_FLIP) if zeros_stored else bits))
            rare = rare[:]
        self._rare = rare
        # for the zeros, z_i - i: the number of ones ahead of zero i
        self._ones_before = array(typecode, map(sub, rare, count(1)))[:] if zeros_stored else None

    def __getitem__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"bit position {i} out of range 1..{self.n}")
        # 1 if i is one of the rarer positions, flipped when those are zeros
        rare = self._rare
        return (bisect_right(rare, i) - bisect_left(rare, i)) ^ self._zeros_stored

    def rank1(self, i: int) -> int:
        """Number of set bits among positions 1..i (i may be 0)."""
        if not 0 <= i <= self.n:
            raise IndexError(f"rank position {i} out of range 0..{self.n}")
        if self._zeros_stored:
            # a marker of an epsilon-free index has no zero: skip the call
            zeros = self._rare
            return i - bisect_right(zeros, i) if zeros else i
        return bisect_right(self._rare, i)

    def any1(self, lo: int, hi: int) -> bool:
        """Whether a set bit lies among positions lo..hi, that is whether
        rank1(hi) - rank1(lo - 1) > 0, with the same range checks."""
        if not (1 <= lo <= self.n + 1 and 0 <= hi <= self.n):
            raise IndexError(f"interval {lo}..{hi} out of range 1..{self.n}")
        if lo > hi:
            return False
        rare = self._rare
        i = bisect_left(rare, lo)
        if self._zeros_stored:
            # lo..hi is all zeros iff the stored zeros from lo on run
            # unbroken to hi
            end = i + hi - lo
            return end >= len(rare) or rare[i] != lo or rare[end] != hi
        return i < len(rare) and rare[i] <= hi

    def select1(self, k: int) -> int:
        """Position of the k-th set bit, 1 <= k <= ones."""
        if not 1 <= k <= self.ones:
            raise IndexError(f"select argument {k} out of range 1..{self.ones}")
        if self._zeros_stored:
            # the zeros ahead of the k-th one are those with fewer than k
            # ones ahead of them
            before = self._ones_before
            return k + bisect_left(before, k) if before else k
        return self._rare[k - 1]

    def to_bytes(self) -> bytes:
        """Eight bits to a byte, the first one highest, zero-padded."""
        common = int(self._zeros_stored)
        # one 0/1 byte per position after a leading 0, which also gives
        # int() a digit when n is 0
        bits = bytearray([common]) * (self.n + 1)
        bits[0] = 0
        for p in self._rare:
            bits[p] = 1 - common
        size = (self.n + 7) // 8
        value = int(bits.translate(_TO_ASCII), 2) << (8 * size - self.n)
        return value.to_bytes(size, "big")

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "RankSelectBits":
        """The inverse of to_bytes: ValueError on a bad length or padding."""
        size = (n + 7) // 8
        if len(data) != size:
            raise ValueError("bit section has the wrong length")
        value = int.from_bytes(data, "big")
        if value & ((1 << (8 * size - n)) - 1):
            raise ValueError("bit section has a padding bit set")
        bits = format(value, f"0{8 * size}b")[:n].encode().translate(_FROM_ASCII)
        return cls(bits)
