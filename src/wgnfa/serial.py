"""Binary container for a built index.

Layout, all integers little-endian:

  magic   "WGNE" (4 bytes)
  version 0x06   (1 byte)
  flags   1 byte, bit 0 set when the index was built with the sentinel,
          which makes it a sentinel index and is stored nowhere else
  6 sections, each an 8-byte payload length followed by the payload:
    1 summary        width byte w in {1,2,4,8}, then two w-byte ints:
                     states n and epsilon edge count
    2 finals         packed bits, one per state
    3 b_max markers  packed bits, none when the epsilon edge count is 0
    4 b_min markers  packed bits, none when the epsilon edge count is 0
    5 dictionary     label count, then per label (strictly increasing in
                     co-lex order): length + raw bytes
    6 postings       per dictionary entry: edge count c, then its
                     sources and its targets, each side as its first
                     state and, when c > 1, a gap width byte b in
                     {4,8,16,32,64} and the c-1 gaps between consecutive
                     states, b bits each; 4-bit gaps pack two to a byte,
                     the first in the high nibble, and an odd gap count
                     leaves a last low nibble of zero
  digest  8 bytes: blake2b (digest_size=8) of everything above

The framing around the payloads is 62 bytes.  The width w is the
smallest of 1/2/4/8 bytes that fits every integer in the file but the
gaps, so small automata serialize compactly while anything up to 2^64
still round-trips.  Each postings side of more than one state has a
gap width of its own, the smallest of 4/8/16/32/64 bits that fits its
largest gap: in Wheeler order a label's targets sit close together, so
on the 85k-state benchmark trie 17 of the 20 target sides of more than
one state take 4 bits per gap, and the source sides 8 or 16, where w is
four bytes.  A side of one state has no gaps and stores no width byte,
since the edge count is read first.  Loading rebuilds the arrays the
library build makes, each of exactly c entries: the sources at the
width that holds n, and the targets as their first state and each
one's offset from it, at the narrowest width that holds the last;
serialize writes the first state and the gaps between the offsets,
the same bytes.

Only what the index cannot derive is stored.  WheelerIndex derives the
longest label and its per-label query rows from the dictionary and
postings, so none of these can disagree with the rest of the file.
Each bit section loads as a RankSelectBits that keeps only the
positions of its rarer bit; serialize packs the bytes again from those
positions.  An epsilon-free index has every marker bit set, so its file
stores both marker sections empty and loading makes them all ones; the
epsilon edge count alone decides which form a file takes, so each index
has exactly one encoding.

Besides magic, version, flags, framing and digest, loading checks that
the finals section, and with epsilon edges each marker section, is
ceil(n/8) bytes with clear padding bits (so a loaded index writes back
the bytes it was read from; both are checked once, by
RankSelectBits.from_bytes), that an epsilon-free file's marker sections
are empty, that the marker bits b_max[n] and b_min[1] are set and the
two marker sections hold no more zero bits together than the
epsilon-edge count (as for any closure: a zero in b_max at v needs a
direct epsilon edge into v from above v, since by axiom 4 an epsilon
path whose last edge climbs into v stays below v throughout, and
likewise a zero in b_min one from below, so each edge pays for at most
one zero), that dictionary labels are non-empty, strictly increasing in
co-lex order and free of the reserved bytes 0x00 and 0x01, and that
every postings entry holds at least one edge and each of its sides of
more than one state a gap width in {4,8,16,32,64}, a clear padding
nibble and states in 1..n (the states ascend by construction, since the
gaps are unsigned).  A sentinel file stores the edges a plain one does:
the sentinel loop 0x01 on state 1 is never stored, and no label holds
0x01, so the flag bit cannot disagree with the rest of the file.  Last,
the labeled edges must keep Wheeler axiom 3: no label
co-lexicographically above label B, other than one ending with B, enters
a state below B's largest target (WheelerIndex.breaks_axiom3: one bisect
per label into suffix_min, the index's one suffix minimum over the
labels' smallest targets, which the matcher's label-order bound reads
too), and the states 2..n that no posting enters must be at most the
epsilon-edge count, since each such state needs an epsilon edge of its
own (WheelerIndex.unentered_states: one bytearray of n + 1
flags).  Axiom 4 holds by construction, since each label pairs its
ascending sources with its ascending targets.  Version 1 files, which
also stored derived tables, version 2 files, which stored every posting
w bytes wide, version 3 files, which stored gap widths in bytes and
every marker section in full, version 4 files, whose sentinel was an
extra state 1 with the edge 1 -> 2 ahead of every other state, and
version 5 files, which stored the sentinel as the label 0x01 on the loop
1 -> 1, are rejected; rebuild them from their .gnfa source.
"""

from __future__ import annotations

import hashlib
from array import array
from itertools import accumulate

from .bitvec import UINT_TYPECODES, RankSelectBits, uint_array, uint_bytes, uint_lanes, uint_width
from .index import WheelerIndex, target_offsets
from .model import SENTINEL

MAGIC = b"WGNE"
VERSION = 6
FLAG_SENTINEL = 0x01
SECTION_COUNT = 6
DIGEST_SIZE = 8
# bytes.translate tables for 4-bit gaps: the gaps below 16, a gap moved
# to the high nibble, and the high and the low nibble of a packed byte
_NIBBLES = bytes(range(16))
_TO_HIGH = bytes((b << 4) & 0xFF for b in range(256))
_HIGH = bytes(b >> 4 for b in range(256))
_LOW = bytes(b & 0x0F for b in range(256))


class IndexFormatError(ValueError):
    """Raised for unreadable index files (magic, version, truncation,
    checksum, or inconsistent section contents)."""


def _digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=DIGEST_SIZE).digest()


def _side(w: int, first: int, side: array) -> bytes:
    """One ascending postings side: its first state as a `w`-byte int
    and, unless that is its only state, one byte giving the gap width
    in bits and the gaps between consecutive entries of `side` at that
    width, the smallest of 4/8/16/32/64 bits that holds every gap.
    `side` holds the side's states, or each one's offset from the
    first: the gaps are the same."""
    first = uint_bytes(w, [first])
    if len(side) == 1:
        return first
    iw = side.itemsize
    raw = uint_bytes(iw, side)
    # one subtraction over whole lanes: the side ascends, so no lane
    # borrows from the next, and each lane of the difference is a gap
    lanes = (
        int.from_bytes(raw[iw:], "little") - int.from_bytes(raw[:-iw], "little")
    ).to_bytes(len(raw) - iw, "little")
    k = len(lanes) // iw
    # the narrowest width whose higher bytes are zero in every lane
    dw = next(
        d for d in (1, 2, 4, 8) if all(lanes[b::iw].count(0) == k for b in range(d, iw))
    )
    if dw == 1:
        gaps = lanes[::iw]
        if gaps.translate(None, _NIBBLES):
            return first + b"\x08" + gaps
        # two gaps to a byte: the even-numbered ones in the high nibbles,
        # or-ed with the odd-numbered ones, zero-padded to as many bytes
        high = gaps[::2].translate(_TO_HIGH)
        low = gaps[1::2].ljust(len(high), b"\x00")
        packed = int.from_bytes(high, "big") | int.from_bytes(low, "big")
        return first + b"\x04" + packed.to_bytes(len(high), "big")
    return first + bytes([8 * dw]) + uint_lanes(lanes, iw, dw)


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
            max((len(row[0]) for row in ix.rows.values()), default=0),
        )
    )

    sec_summary = bytes([w]) + uint_bytes(w, (n, eps))
    sec_dict = uint_bytes(w, [len(labels)]) + b"".join(
        uint_bytes(w, [len(rho)]) + rho for rho in labels
    )
    parts = []
    for rho in labels:
        sources, offsets, _, base, _, _ = ix.rows[rho]
        parts += (
            uint_bytes(w, [len(sources)]),
            _side(w, sources[0], sources),
            _side(w, base, offsets),
        )
    sec_postings = b"".join(parts)
    # without epsilon edges every marker bit is set, and none is stored
    markers = (ix.b_max.to_bytes(), ix.b_min.to_bytes()) if eps else (b"", b"")

    body = bytearray()
    body += MAGIC
    body.append(VERSION)
    body.append(FLAG_SENTINEL if ix.sentinel_mode else 0)
    for sec in (sec_summary, ix.finals.to_bytes(), *markers, sec_dict, sec_postings):
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


def section_bytes(data: bytes) -> list[int]:
    """The sizes of the six section payloads, in bytes and in file
    order: summary, finals, b_max, b_min, dictionary, postings.  Raises
    IndexFormatError when the header or the section frame is unreadable."""
    return [len(sec) for sec in _sections(data)[1]]


def payload_bits(data: bytes) -> int:
    """Summed size of the six section payloads, in bits.

    This is the content the succinct space accounting is about; the
    fixed 62 bytes of magic, version, flags, section lengths and digest
    are framing overhead on top.  Raises IndexFormatError when the
    header or the section frame is unreadable.
    """
    return 8 * sum(section_bytes(data))


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

    def gaps(self, cnt: int):
        """The cnt - 1 gaps of a side of cnt states, one entry each."""
        if cnt == 1:
            return b""
        bits = self.take(1)[0]
        if bits in (8, 16, 32, 64):
            return uint_array(bits // 8, self.take((cnt - 1) * bits // 8))
        if bits != 4:
            raise IndexFormatError(f"bad postings gap width {bits}")
        packed = self.take(cnt // 2)
        gaps = bytearray(2 * len(packed))
        gaps[::2] = packed.translate(_HIGH)
        gaps[1::2] = packed.translate(_LOW)
        # an odd count of gaps leaves the last low nibble as padding
        if cnt % 2 == 0 and gaps.pop():
            raise IndexFormatError("postings padding nibble is set")
        return gaps

    def finish(self, what: str) -> None:
        if self.pos != len(self.data):
            raise IndexFormatError(f"oversized {what} section")


def _bits(what: str, payload: bytes, n: int) -> RankSelectBits:
    try:
        return RankSelectBits.from_bytes(payload, n)
    except ValueError as exc:
        # a wrong length or a padding bit set
        raise IndexFormatError(f"{what} {exc}") from None


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

    # the finals section bounds n by the file size before the all-ones
    # markers of an epsilon-free file take n bytes to make
    finals = _bits("finals", sections[1], n)
    if eps:
        b_max = _bits("b_max", sections[2], n)
        b_min = _bits("b_min", sections[3], n)
    elif sections[2] or sections[3]:
        raise IndexFormatError("an epsilon-free file stores no marker bits")
    else:
        b_max = RankSelectBits(b"\x01" * n)
        b_min = RankSelectBits(b"\x01" * n)
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
        if SENTINEL in rho:
            raise IndexFormatError("reserved byte 0x01 in a dictionary label")
        labels.append(rho)
        prev_rev = rev
    rd.finish("dictionary")

    rd = _Reader(sections[5], w)
    typecode = UINT_TYPECODES[uint_width(n)]
    postings = {}
    for rho in labels:
        cnt = rd.u()
        if cnt < 1:
            raise IndexFormatError("postings entry without edges")
        sides = []
        for _ in range(2):
            first = rd.u()
            gaps = rd.gaps(cnt)
            try:
                # an array grown from an iterator keeps spare room, and
                # its [:] copy holds exactly cnt entries
                side = array(typecode, accumulate(gaps, initial=first))[:]
            except OverflowError:
                raise IndexFormatError("postings state out of range 1..n") from None
            if first < 1 or side[-1] > n:
                raise IndexFormatError("postings state out of range 1..n")
            sides.append(side)
        sources, targets = sides
        postings[rho] = (sources, *target_offsets(targets))
    rd.finish("postings")

    ix = WheelerIndex(
        state_count=n,
        epsilon_edge_count=eps,
        finals=finals,
        b_max=b_max,
        b_min=b_min,
        sentinel_mode=bool(flags & FLAG_SENTINEL),
        labels=tuple(labels),
        postings=postings,
    )
    if ix.breaks_axiom3():
        raise IndexFormatError("the stored edges break Wheeler axiom 3")
    # each state but 1 needs an in-edge, and an epsilon edge enters one state
    if ix.unentered_states() > eps:
        raise IndexFormatError("more states without an incoming edge than epsilon edges")
    return ix
