"""Plain rank/select over a static bit sequence.

Positions are 1-based to match the state numbering used everywhere
else.  rank1(i) counts set bits in positions 1..i and select1(k) finds
the position of the k-th set bit.  A cumulative-sum directory and the
positions of the set bits are precomputed as int64 arrays, so both
queries are O(1) lookups; the O(n) words of directory are irrelevant
at the scales this library targets.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

import numpy as np


def _int64_array(values: np.ndarray) -> array:
    """values in an array('q') of exactly their length (filling an empty
    one would over-allocate it by a sixteenth)."""
    out = array("q", [0]) * len(values)
    np.frombuffer(out, dtype=np.int64)[:] = values
    return out


class RankSelectBits:
    def __init__(self, bits: Sequence[int] | np.ndarray | Iterable[int]):
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        self._bits = (arr != 0).astype(np.uint8)
        self.n = int(self._bits.shape[0])
        # rank and select index these once per matched symbol; an array
        # hands back Python ints where a numpy array would box a scalar
        self._cum = _int64_array(np.cumsum(self._bits, dtype=np.int64))
        self._positions = _int64_array(np.flatnonzero(self._bits) + 1)
        self.ones = len(self._positions)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"bit position {i} out of range 1..{self.n}")
        return int(self._bits[i - 1])

    def rank1(self, i: int) -> int:
        """Number of set bits among positions 1..i (i may be 0)."""
        if not 0 <= i <= self.n:
            raise IndexError(f"rank position {i} out of range 0..{self.n}")
        if i == 0:
            return 0
        return self._cum[i - 1]

    def select1(self, k: int) -> int:
        """Position of the k-th set bit, 1 <= k <= ones."""
        if not 1 <= k <= self.ones:
            raise IndexError(f"select argument {k} out of range 1..{self.ones}")
        return self._positions[k - 1]

    def to_bytes(self) -> bytes:
        return np.packbits(self._bits).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "RankSelectBits":
        if len(data) != (n + 7) // 8:
            raise ValueError("packed bit payload has the wrong length")
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n)
        return cls(bits)
