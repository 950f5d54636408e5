"""Plain rank/select over a static bit sequence, and the narrow unsigned
integer arrays the loaded index is made of.

Positions are 1-based to match the state numbering used everywhere
else.  rank1(i) counts set bits in positions 1..i and select1(k) finds
the position of the k-th set bit.  Both are one lookup into a
precomputed directory: the running count of set bits (n+1 entries,
starting from rank1(0) = 0) and the positions of the set bits (a
leading 0, then one entry per set bit).  Bit i is rank1(i) - rank1(i-1);
the bits are kept only packed, eight to a byte, as the container holds
them.  Each directory entry takes the smallest of 1, 2, 4 or 8 bytes
that holds n, so a bitvector over n positions with m set bits takes
n + m + 2 entries of that width and n/8 bytes.  That is the largest
part of a loaded index: on an 85,000-state index, 4 bytes an entry and
0.69 MB for a marker bitvector with every bit set, and the three
bitvectors hold about 70% of the index heap.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, compress, count

# the unsigned array typecode of each item width in bytes, read off the
# platform: which of 'I' and 'L' is 4 bytes wide varies between platforms
UINT_TYPECODES = {array(c).itemsize: c for c in "BHILQ"}

# bytes.translate tables between 0/1 bytes and base-2 ASCII digits
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")


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
    __slots__ = ("n", "ones", "_cum", "_positions", "_packed")

    def __init__(self, bits: bytes, *, packed: bytes | None = None):
        # bits holds one 0/1 byte per position; packed, if given, is
        # to_bytes() of these bits (from_bytes has it)
        if bits.translate(None, b"\x00\x01"):
            raise ValueError("bits must be 0 or 1")
        self.n = len(bits)
        # an array grown from an iterator over-allocates; its [:] copy is
        # sized exactly, and needs no list holding an int per entry
        typecode = UINT_TYPECODES[uint_width(self.n)]
        self._cum = array(typecode, accumulate(bits, initial=0))[:]
        positions = array(typecode, [0])
        positions.extend(compress(count(1), bits))
        self._positions = positions[:]
        self.ones = len(positions) - 1
        if packed is None:
            size = (self.n + 7) // 8
            value = int(b"0" + bits.translate(_TO_ASCII), 2) << (8 * size - self.n)
            packed = value.to_bytes(size, "big")
        self._packed = packed

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
        """Eight bits to a byte, the first one highest, zero-padded."""
        return self._packed

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "RankSelectBits":
        """The inverse of to_bytes: ValueError on a bad length or padding."""
        size = (n + 7) // 8
        if len(data) != size:
            raise ValueError("packed bits have the wrong length")
        value = int.from_bytes(data, "big")
        if value & ((1 << (8 * size - n)) - 1):
            raise ValueError("packed bits have a padding bit set")
        bits = format(value, f"0{8 * size}b")[:n].encode().translate(_FROM_ASCII)
        return cls(bits, packed=bytes(data))
