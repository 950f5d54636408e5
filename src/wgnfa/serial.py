"""Binary container for a built index.

Layout, all integers little-endian:

  magic   "WGNE" (4 bytes)
  version 0x02   (1 byte)
  flags   1 byte, bit 0 set when the index was built with the sentinel
  6 sections, each an 8-byte payload length followed by the payload:
    1 summary        width byte w in {1,2,4,8}, then two w-byte ints:
                     states n and epsilon edge count
    2 finals         packed bits, one per state
    3 b_max markers  packed bits
    4 b_min markers  packed bits
    5 dictionary     label count, then per label (strictly increasing in
                     co-lex order): length + raw bytes
    6 postings       per dictionary entry: edge count, that many
                     ascending sources, that many ascending targets
  digest  8 bytes: blake2b (digest_size=8) of everything above

The framing around the payloads is 62 bytes.  The width w is the
smallest of 1/2/4/8 bytes that fits every integer in the file, so small
automata serialize compactly while anything up to 2^64 still
round-trips.

Only what the index cannot derive is stored.  WheelerIndex derives the
longest label and its per-label query rows from the dictionary and
postings, so none of these can disagree with the rest of the file.
Each bit section loads as a RankSelectBits that keeps only the
positions of its rarer bit, so the marker sections of an epsilon-free
file, every bit set, load to empty arrays; serialize packs the
bytes again from those positions.

Besides magic, version, flags, framing and digest, loading checks that
the bit sections are ceil(n/8) bytes with clear padding bits (so a
loaded index writes back the bytes it was read from; both are checked
once, by RankSelectBits.from_bytes), that the marker bits b_max[n] and
b_min[1] are set and the two marker sections hold no
more zero bits together than the epsilon-edge count (as for any
closure: a zero in b_max at v needs a direct epsilon edge into v from
above v, since by axiom 4 an epsilon path whose last edge climbs into
v stays below v throughout, and likewise a zero in b_min one from
below, so each edge pays for at most one zero), that dictionary labels
are non-empty, strictly increasing in co-lex order and free of the
reserved bytes 0x00 and 0x01 but for the single label 0x01, and that
every postings entry holds at least one edge with ascending sources and
targets in 1..n.  The index is a sentinel index
iff its dictionary holds the label 0x01; the flag bit must agree, and
the edge 1 -> 2 that the sentinel build adds under that label must be
the only edge at state 1.  Last, the labeled edges must keep Wheeler
axiom 3: no label co-lexicographically above label B, other than one
ending with B, enters a state below B's largest target
(WheelerIndex.breaks_axiom3: one suffix minimum over the labels'
smallest targets and one bisect per label), and the states 2..n that no
posting enters must be at most the epsilon-edge count, since each such
state needs an epsilon edge of its own (WheelerIndex.unentered_states:
one bytearray of n + 1 flags).  Axiom 4 holds by construction, since
each label pairs its ascending sources with its ascending targets.  Version 1 files, which also stored
derived tables, are rejected; rebuild them from their .gnfa source.
"""

from __future__ import annotations

import hashlib
import sys
from array import array

from .bitvec import UINT_TYPECODES, RankSelectBits, uint_array, uint_width
from .index import WheelerIndex
from .model import SENTINEL, SENTINEL_BYTES

MAGIC = b"WGNE"
VERSION = 2
FLAG_SENTINEL = 0x01
SECTION_COUNT = 6
DIGEST_SIZE = 8
# the sentinel build adds state 1 and the edge 1 -> 2 and shifts every
# other state up by one, so no other edge starts or ends at state 1
_SENTINEL_EDGE = (array("B", [1]), array("B", [2]))


class IndexFormatError(ValueError):
    """Raised for unreadable index files (magic, version, truncation,
    checksum, or inconsistent section contents)."""


def _digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=DIGEST_SIZE).digest()


def _uints(width: int, values) -> bytes:
    """values as little-endian `width`-byte unsigned integers."""
    arr = array(UINT_TYPECODES[width], values)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tobytes()


def serialize(ix: WheelerIndex) -> bytes:
    n = ix.n_states
    eps = ix.epsilon_edge_count
    labels = ix.labels
    w = uint_width(
        max(
            n,
            eps,
            len(labels),
            ix.r,
            max((len(sources) for sources, _, _ in ix.rows.values()), default=0),
        )
    )

    sec_summary = bytes([w]) + _uints(w, (n, eps))
    sec_dict = _uints(w, [len(labels)]) + b"".join(
        _uints(w, [len(rho)]) + rho for rho in labels
    )
    parts = []
    for rho in labels:
        sources, targets, _ = ix.rows[rho]
        parts += (_uints(w, [len(sources)]), _uints(w, sources), _uints(w, targets))
    sec_postings = b"".join(parts)

    body = bytearray()
    body += MAGIC
    body.append(VERSION)
    body.append(FLAG_SENTINEL if ix.sentinel_mode else 0)
    for sec in (
        sec_summary,
        ix.finals.to_bytes(),
        ix.b_max.to_bytes(),
        ix.b_min.to_bytes(),
        sec_dict,
        sec_postings,
    ):
        body += len(sec).to_bytes(8, "little")
        body += sec
    body += _digest(bytes(body))
    return bytes(body)


def _sections(data: bytes) -> tuple[int, list[bytes]]:
    """Check the header and walk the section frame.

    Returns the flags byte and the six section payloads.  The digest is
    not checked here, so a cut-off file reports as truncation and not
    as a checksum mismatch.
    """
    if len(data) < 6:
        raise IndexFormatError("truncated index file")
    if data[:4] != MAGIC:
        raise IndexFormatError("bad magic, not an index file")
    if data[4] != VERSION:
        raise IndexFormatError(f"unsupported index version {data[4]}")
    flags = data[5]
    if flags & ~FLAG_SENTINEL:
        raise IndexFormatError(f"unknown flag bits 0x{flags:02x}")

    body_end = len(data) - DIGEST_SIZE
    pos = 6
    sections = []
    for _ in range(SECTION_COUNT):
        if pos + 8 > body_end:
            raise IndexFormatError("truncated index file")
        ln = int.from_bytes(data[pos : pos + 8], "little")
        pos += 8
        if pos + ln > body_end:
            raise IndexFormatError("truncated index file")
        sections.append(data[pos : pos + ln])
        pos += ln
    if pos != body_end:
        raise IndexFormatError("trailing bytes after final section")
    return flags, sections


def payload_bits(data: bytes) -> int:
    """Summed size of the six section payloads, in bits.

    This is the content the succinct space accounting is about; the
    fixed 62 bytes of magic, version, flags, section lengths and digest
    are framing overhead on top.  Raises IndexFormatError when the
    header or the section frame is unreadable.
    """
    return 8 * sum(len(sec) for sec in _sections(data)[1])


class _Reader:
    def __init__(self, data: bytes, width: int = 1):
        self.data = data
        self.pos = 0
        self.width = width

    def take(self, k: int) -> bytes:
        if self.pos + k > len(self.data):
            raise IndexFormatError("truncated index file")
        out = self.data[self.pos : self.pos + k]
        self.pos += k
        return out

    def u(self) -> int:
        return int.from_bytes(self.take(self.width), "little")

    def finish(self, what: str) -> None:
        if self.pos != len(self.data):
            raise IndexFormatError(f"oversized {what} section")


def deserialize(data: bytes) -> WheelerIndex:
    flags, sections = _sections(data)
    if _digest(data[:-DIGEST_SIZE]) != data[-DIGEST_SIZE:]:
        raise IndexFormatError("checksum mismatch")

    rd = _Reader(sections[0])
    w = rd.take(1)[0]
    if w not in (1, 2, 4, 8):
        raise IndexFormatError(f"bad integer width {w}")
    rd.width = w
    n = rd.u()
    eps = rd.u()
    rd.finish("summary")

    bits = []
    for what, payload in zip(("finals", "b_max", "b_min"), sections[1:4]):
        try:
            bits.append(RankSelectBits.from_bytes(payload, n))
        except ValueError as exc:
            # a wrong length or a padding bit set
            raise IndexFormatError(f"{what} {exc}") from None
    finals, b_max, b_min = bits
    # any closure has a_max[n] = n and a_min[1] = 1; a zero in b_max at v
    # needs an epsilon edge into v from above v, and one in b_min an
    # epsilon edge from below, so no edge pays for two zeros
    if n < 1 or not b_max[n] or not b_min[1]:
        raise IndexFormatError("closure marker bits b_max[n] and b_min[1] must be set")
    if 2 * n - b_max.ones - b_min.ones > eps:
        raise IndexFormatError("more unmarked states than epsilon edges")

    rd = _Reader(sections[4], w)
    labels: list[bytes] = []
    prev_rev = b""
    for _ in range(rd.u()):
        rho = rd.take(rd.u())
        rev = rho[::-1]
        if not rho or rev <= prev_rev:
            raise IndexFormatError(
                "dictionary labels must be non-empty and strictly increasing in co-lex order"
            )
        if 0x00 in rho:
            raise IndexFormatError("reserved byte 0x00 in a dictionary label")
        if SENTINEL in rho and rho != SENTINEL_BYTES:
            raise IndexFormatError("reserved byte 0x01 outside the sentinel label")
        labels.append(rho)
        prev_rev = rev
    rd.finish("dictionary")

    rd = _Reader(sections[5], w)
    postings = {}
    for rho in labels:
        cnt = rd.u()
        if cnt < 1:
            raise IndexFormatError("postings entry without edges")
        sides = []
        for raw in (rd.take(cnt * w), rd.take(cnt * w)):
            arr = uint_array(w, raw)
            if (values := arr.tolist()) != sorted(values):
                raise IndexFormatError("postings not in ascending order")
            if values[0] < 1 or values[-1] > n:
                raise IndexFormatError("postings state out of range 1..n")
            sides.append(arr)
        postings[rho] = tuple(sides)
    rd.finish("postings")

    ix = WheelerIndex(
        state_count=n,
        epsilon_edge_count=eps,
        finals=finals,
        b_max=b_max,
        b_min=b_min,
        labels=tuple(labels),
        postings=postings,
    )
    if ix.sentinel_mode != bool(flags & FLAG_SENTINEL):
        raise IndexFormatError("the sentinel flag and the reserved byte 0x01 label disagree")
    if ix.sentinel_mode and (
        postings[SENTINEL_BYTES] != _SENTINEL_EDGE
        or any(1 in (postings[rho][0][0], postings[rho][1][0]) for rho in labels[1:])
    ):
        raise IndexFormatError("state 1 needs the sentinel edge 1->2 and no other edge")
    if ix.breaks_axiom3():
        raise IndexFormatError("the stored edges break Wheeler axiom 3")
    # each state but 1 needs an in-edge, and an epsilon edge enters one state
    if ix.unentered_states() > eps:
        raise IndexFormatError("more states without an incoming edge than epsilon edges")
    return ix
