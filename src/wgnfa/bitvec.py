"""Plain rank/select over a static bit sequence, and the narrow unsigned
integer arrays the loaded index is made of.

Positions are 1-based to match the state numbering used everywhere
else.  rank1(i) counts set bits in positions 1..i and select1(k) finds
the position of the k-th set bit.  Both are one lookup into a
precomputed directory: the running count of set bits (n+1 entries,
starting from rank1(0) = 0) and the positions of the set bits (a
leading 0, then one entry per set bit).  The bits themselves are not
kept; bit i is rank1(i) - rank1(i-1).  Each directory entry takes the
smallest of 1, 2, 4 or 8 bytes that holds n, so a bitvector over n
positions with m set bits takes n + m + 2 entries of that width.  That
is the largest part of a loaded index: on an 85,000-state index, 4
bytes an entry and 0.68 MB for a marker bitvector with every bit set,
and the three bitvectors hold about 70% of the index heap.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Sequence

import numpy as np

# the unsigned array typecode of each item width in bytes, read off the
# platform: which of 'I' and 'L' is 4 bytes wide varies between platforms
UINT_TYPECODES = {array(c).itemsize: c for c in "BHILQ"}


def uint_width(vmax: int) -> int:
    """The smallest of 1, 2, 4 and 8 bytes that holds 0..vmax."""
    for w in (1, 2, 4):
        if vmax < 1 << (8 * w):
            return w
    return 8


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
    __slots__ = ("n", "ones", "_cum", "_positions")

    def __init__(self, bits: Sequence[int] | np.ndarray | Iterable[int]):
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        arr = arr != 0
        self.n = len(arr)
        # rank and select index these once per matched symbol; an array
        # hands back Python ints where a numpy array would box a scalar
        dtype = f"<u{uint_width(self.n)}"
        cum = np.zeros(self.n + 1, dtype=dtype)
        np.cumsum(arr, dtype=dtype, out=cum[1:])
        positions = np.zeros(int(cum[-1]) + 1, dtype=dtype)
        positions[1:] = np.flatnonzero(arr) + 1
        self._cum = uint_array(cum.itemsize, cum.tobytes())
        self._positions = uint_array(cum.itemsize, positions.tobytes())
        self.ones = len(positions) - 1

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"bit position {i} out of range 1..{self.n}")
        return self._cum[i] - self._cum[i - 1]

    def rank1(self, i: int) -> int:
        """Number of set bits among positions 1..i (i may be 0)."""
        if not 0 <= i <= self.n:
            raise IndexError(f"rank position {i} out of range 0..{self.n}")
        return self._cum[i]

    def select1(self, k: int) -> int:
        """Position of the k-th set bit, 1 <= k <= ones."""
        if not 1 <= k <= self.ones:
            raise IndexError(f"select argument {k} out of range 1..{self.ones}")
        return self._positions[k]

    def to_bytes(self) -> bytes:
        cum = np.frombuffer(self._cum, dtype=self._cum.typecode)
        return np.packbits(np.diff(cum).astype(np.uint8)).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "RankSelectBits":
        if len(data) != (n + 7) // 8:
            raise ValueError("packed bit payload has the wrong length")
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n)
        return cls(bits)
