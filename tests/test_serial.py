"""Binary round trips and corruption handling."""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgnfa.bitvec import UINT_TYPECODES, uint_width
from wgnfa.cli import _default_battery
from wgnfa.generate import GenerationParams, build_piece_trie, generate_instance, sample_patterns
from wgnfa.index import NO_ROW, build_index
from wgnfa.matcher import match_interval, match_patterns
from wgnfa.model import GeneralizedAutomaton
from wgnfa.oracle import brute_accepts, brute_match
from wgnfa.crosscheck import crosscheck_instance
from wgnfa.serial import MAGIC, VERSION, IndexFormatError, deserialize, payload_bits, serialize

from conftest import load_index, load_instance, load_sidecar_patterns, suffix_label_max


def probe_ops(ix, rng, count=200):
    """A reproducible transcript of query results across the op surface."""
    n = ix.n_states
    out = []
    labels = list(ix.labels) or [b"a"]
    for _ in range(count):
        rho = rng.choice(labels)
        j = rng.randrange(0, n + 1)
        out.append(ix.out_count(ix.rows.get(rho, NO_ROW), j))
        out.append(ix.max_prefix_with_in_at_most(ix.rows.get(rho, NO_ROW), rng.randrange(0, 3)))
        k = rng.randrange(1, ix.r + 1) if ix.r else 1
        tail = rho[-1:] if rho else b"a"
        out.append(ix.min_state_with_len_k_label_ge(k, tail * rng.randrange(1, 4)))
        out.append(suffix_label_max(ix, rho))
        out.append(ix.marker_floor(j))
        out.append(ix.marker_ceiling(j))
        lo = rng.randrange(1, n + 1)
        out.append(ix.finals_in(lo, rng.randrange(1, n + 1)))
    return out


def assert_round_trip(ix, probes=200):
    data = serialize(ix)
    again = deserialize(data)
    assert (again.epsilon_edge_count, again.r) == (ix.epsilon_edge_count, ix.r)
    assert again.sentinel_mode == ix.sentinel_mode
    assert again.labels == ix.labels
    assert again.rows == ix.rows
    assert probe_ops(again, random.Random(7)) == probe_ops(ix, random.Random(7))
    assert serialize(again) == data


def test_round_trip_samples(ten_state_index, four_state_index):
    assert_round_trip(ten_state_index)
    assert_round_trip(four_state_index)


def test_round_trip_sentinel(ten_state):
    assert_round_trip(build_index(ten_state, with_sentinel=True))


def test_header_bytes(four_state, four_state_index):
    data = serialize(four_state_index)
    assert data[:4] == b"WGNE"
    assert data[4] == 6
    assert data[5] == 0
    # the flag is all a sentinel file adds (test_sentinel_build_matches_augmented)
    assert serialize(build_index(four_state, with_sentinel=True))[5] == 1


def test_known_sizes(ten_state_index, four_state_index):
    ten = serialize(ten_state_index)
    four = serialize(four_state_index)
    assert (len(ten), payload_bits(ten)) == (125, 504)
    assert (len(four), payload_bits(four)) == (84, 176)
    # framing is the 6 header bytes, six 8-byte lengths, 8-byte digest
    assert len(ten) - payload_bits(ten) // 8 == 62
    assert len(four) - payload_bits(four) // 8 == 62


def test_bad_magic(four_state_index):
    data = bytearray(serialize(four_state_index))
    data[0] ^= 0xFF
    with pytest.raises(IndexFormatError, match="magic"):
        deserialize(bytes(data))


def test_bad_version(four_state_index):
    # version 1 to 5 files are rejected cleanly; they have to be rebuilt
    for version in (1, 2, 3, 4, 5):
        data = bytearray(serialize(four_state_index))
        data[4] = version
        with pytest.raises(IndexFormatError, match=f"unsupported index version {version}"):
            deserialize(bytes(data))


def test_unknown_flags(four_state_index):
    data = bytearray(serialize(four_state_index))
    data[5] |= 0x80
    with pytest.raises(IndexFormatError, match="flag"):
        deserialize(bytes(data))


def test_truncation(four_state_index):
    data = serialize(four_state_index)
    for cut in (3, 5, 20, len(data) // 2, len(data) - 9):
        for read in (deserialize, payload_bits):
            with pytest.raises(IndexFormatError, match="truncated"):
                read(data[:cut])


def test_checksum_mismatch(four_state_index):
    data = bytearray(serialize(four_state_index))
    data[-10] ^= 0x01  # inside the last section payload
    with pytest.raises(IndexFormatError, match="checksum"):
        deserialize(bytes(data))


def test_trailing_garbage(four_state_index):
    data = serialize(four_state_index)
    with pytest.raises(IndexFormatError, match="truncated|trailing"):
        deserialize(data + b"xx")


# every pattern of length 0..4 over the sample alphabet
BATTERY = [b""] + [
    bytes(t) for m in range(1, 5) for t in itertools.product(b"abc", repeat=m)
]


def battery_answers(ix, patterns=BATTERY):
    return [
        (res.lo, res.hi, res.count, res.accepted)
        for res in (match_interval(ix, p) for p in patterns)
    ]


def flips_and_swaps(data: bytes):
    """Every single-byte flip and every two-byte swap that changes data."""
    for pos in range(len(data)):
        bad = bytearray(data)
        bad[pos] ^= 0x01
        yield bytes(bad)
    for i, j in itertools.combinations(range(len(data)), 2):
        if data[i] != data[j]:
            bad = bytearray(data)
            bad[i], bad[j] = bad[j], bad[i]
            yield bytes(bad)


def test_corrupt_every_byte(ten_state, ten_state_index, four_state_index):
    """No flip or swap may yield a silently wrong index."""
    for ix in (four_state_index, ten_state_index, build_index(ten_state, with_sentinel=True)):
        data = serialize(ix)
        want = battery_answers(ix)
        for bad in flips_and_swaps(data):
            try:
                again = deserialize(bad)
            except IndexFormatError:
                continue
            assert battery_answers(again) == want


def test_crafted_files_with_valid_digest(ten_state, ten_state_index):
    """A corrupted body under a recomputed digest either fails to load
    with IndexFormatError or loads into an index the matcher can run on."""
    short = BATTERY[:40]  # lengths 0..3
    loaded = 0
    for ix in (ten_state_index, build_index(ten_state, with_sentinel=True)):
        body = serialize(ix)[:-8]
        for bad in flips_and_swaps(body):
            crafted = bad + hashlib.blake2b(bad, digest_size=8).digest()
            try:
                again = deserialize(crafted)
            except IndexFormatError:
                continue
            loaded += 1
            battery_answers(again, short)
    assert loaded  # the checks do not simply reject everything


def split_sections(data: bytes) -> list[bytes]:
    pos = 6
    out = []
    for _ in range(6):
        ln = int.from_bytes(data[pos : pos + 8], "little")
        out.append(data[pos + 8 : pos + 8 + ln])
        pos += 8 + ln
    return out


def frame(header: bytes, parts: list[bytes]) -> bytes:
    """The 6-byte header and six section payloads, framed and digested."""
    body = header + b"".join(len(p).to_bytes(8, "little") + p for p in parts)
    return body + hashlib.blake2b(body, digest_size=8).digest()


def reframe(data: bytes, section: int, payload: bytes) -> bytes:
    """data with one section payload replaced, framed and digested anew."""
    parts = split_sections(data)
    parts[section] = payload
    return frame(data[:6], parts)


def side_bytes(states: list[int], w: int, bits: int | None = None) -> bytes:
    """One postings side: its first state w bytes wide and, for more
    than one state, the gap width byte and the gaps between consecutive
    states at that width in bits, by default the smallest of
    4/8/16/32/64 that holds them; 4-bit gaps pack two to a byte, the
    first in the high nibble."""
    first = states[0].to_bytes(w, "little")
    gaps = [b - a for a, b in zip(states, states[1:])]
    if not gaps:
        return first
    if bits is None:
        bits = next(b for b in (4, 8, 16, 32, 64) if max(gaps) < 1 << b)
    if bits == 4:
        padded = gaps + [0] * (len(gaps) % 2)
        packed = bytes(16 * hi + lo for hi, lo in zip(padded[::2], padded[1::2]))
        return first + b"\x04" + packed
    return first + bytes([bits]) + b"".join(g.to_bytes(bits // 8, "little") for g in gaps)


def postings_bytes(entries, w: int = 1) -> bytes:
    """The postings section of (sources, targets) lists, one per label."""
    return b"".join(
        len(sources).to_bytes(w, "little") + side_bytes(sources, w) + side_bytes(targets, w)
        for sources, targets in entries
    )


def row_targets(row) -> list[int]:
    """A row's targets as states: its base added back to each offset,
    as the two prefix boundaries add it."""
    return [row[3] + v for v in row[1]]


def edge_lists(ix) -> list[tuple[list[int], list[int]]]:
    """Each dictionary label's sources and targets, in dictionary order."""
    return [(list(ix.rows[rho][0]), row_targets(ix.rows[rho])) for rho in ix.labels]


def test_load_checks(ten_state, ten_state_index):
    """Each load-time check rejects a body that carries a valid digest."""
    data = serialize(ten_state_index)
    summary, finals, _, _, dictionary, postings = split_sections(data)
    assert reframe(data, 4, dictionary) == data
    assert dictionary == b"\x06\x01a\x02ba\x02ca\x01b\x02bb\x01c"
    a, *rest = edge_lists(ten_state_index)
    assert a == ([1, 8, 9], [2, 3, 4])
    assert postings == postings_bytes([a, *rest])
    # label a: 3 edges; sources 1, width 4, gaps 7 1; targets 2, width 4, gaps 1 1
    assert postings[:7] == bytes([3, 1, 4, 0x71, 2, 4, 0x11])
    cases = [
        (0, b"\x03" + summary[1:], "width"),
        (0, summary + b"\x00", "oversized summary"),
        (1, finals[:-1], "finals bit section has the wrong length"),
        # ten states leave six padding bits in the last byte of each section
        (1, finals[:-1] + bytes([finals[-1] | 0x01]), "finals bit section has a padding bit set"),
        (4, b"\x06\x01a\x02ca\x02ba\x01b\x02bb\x01c", "co-lex"),
        (4, b"\x07\x00" + dictionary[1:], "non-empty"),
        (4, b"\x06\x01\x00" + dictionary[3:], "reserved byte 0x00"),
        (4, b"\x06\x02\x00a" + dictionary[3:], "reserved byte 0x00"),
        (4, b"\x06\x01\x01" + dictionary[3:], "reserved byte 0x01"),
        (5, b"\x00" + postings[1:], "without edges"),
        (5, postings[:2] + b"\x03" + postings[3:], "gap width 3"),
        (5, postings_bytes([([0, 8, 9], [2, 3, 4]), *rest]), "out of range"),
        (5, postings_bytes([([1, 8, 9], [2, 3, 11]), *rest]), "out of range"),
        (5, postings + b"\x00", "oversized postings"),
        # marker bits: b_max = 1100111111 and b_min all ones, 2 epsilon edges
        (2, b"\xcf\x80", "must be set"),  # b_max[10] cleared
        (3, b"\x7f\xc0", "must be set"),  # b_min[1] cleared
        (2, b"\xc7\xc0", "more unmarked"),  # b_max[5] cleared as well
        (3, b"\xf8\xc0", "more unmarked"),  # three zeros in b_min
        # the two markers' zeros add up: b_max's two plus these
        (3, b"\xfc\xc0", "more unmarked"),  # two zeros in b_min
        (3, b"\xfb\xc0", "more unmarked"),  # b_min[6] cleared
        (0, b"\x01\x0a\x01", "more unmarked"),  # one epsilon edge
        # two epsilon edges need both marker sections, none stores them
        (2, b"", "b_max bit section has the wrong length"),
        (3, b"", "b_min bit section has the wrong length"),
        (0, b"\x01\x0a\x00", "stores no marker bits"),
    ]
    for section, payload, message in cases:
        with pytest.raises(IndexFormatError, match=message):
            deserialize(reframe(data, section, payload))
    empty = data
    for section, payload in enumerate((b"\x01\x00\x00", b"", b"", b"", b"\x00", b"")):
        empty = reframe(empty, section, payload)
    with pytest.raises(IndexFormatError, match="must be set"):
        deserialize(empty)  # no states, so no marker bits

    # a sentinel file stores the plain dictionary and postings; one that
    # also stores the label 0x01 on the loop 1 -> 1, as version 5 did, is
    # refused, and so is 0x01 inside another label
    data = serialize(build_index(ten_state, with_sentinel=True))
    assert split_sections(data)[4:] == [dictionary, postings]
    assert deserialize(data).sentinel_mode
    with_loop = reframe(data, 4, b"\x07\x01\x01" + dictionary[1:])
    with_loop = reframe(with_loop, 5, postings_bytes([([1], [1]), a, *rest]))
    for crafted in (with_loop, reframe(data, 4, dictionary.replace(b"\x02ba", b"\x02\x01a"))):
        with pytest.raises(IndexFormatError, match="reserved byte 0x01 in a dictionary label"):
            deserialize(crafted)


def test_postings_gap_checks(ten_state_index):
    """Crafted gaps under a valid digest: a width byte outside
    4/8/16/32/64, a set padding nibble, gaps whose running sum passes
    n = 10 or the range of the loaded one-byte state arrays, and a width
    byte after a single-state side, which has no gaps.  Gaps stored
    wider than they need load and write back at their narrowest."""
    data = serialize(ten_state_index)
    entries = edge_lists(ten_state_index)
    assert entries[1] == ([6, 7], [3, 4])  # label ba
    assert entries[-1] == ([1], [10])  # label c

    def with_entry(i: int, entry: bytes) -> bytes:
        before, after = entries[:i], entries[i + 1 :]
        return reframe(data, 5, postings_bytes(before) + entry + postings_bytes(after))

    targets = bytes([2, 4, 0x11])  # 2, 3, 4
    assert with_entry(0, bytes([3, 1, 4, 0x71]) + targets) == data
    for dw in (0, 1, 2, 3, 5, 255):
        with pytest.raises(IndexFormatError, match=f"gap width {dw}"):
            deserialize(with_entry(0, bytes([3, 1, dw, 7, 1]) + targets))
    for bits in (8, 16, 32, 64):
        again = deserialize(with_entry(0, b"\x03" + side_bytes([1, 8, 9], 1, bits) + targets))
        assert again.rows == ten_state_index.rows
        assert serialize(again) == data
    for sources in (
        bytes([1, 4, 0x73]),  # 1, 8, 11
        bytes([1, 8, 200, 100]),  # 1, 201, 301: past one byte
        bytes([1, 16]) + (7).to_bytes(2, "little") + (65535).to_bytes(2, "little"),
        bytes([1, 64]) + (7).to_bytes(8, "little") + (2**64 - 1).to_bytes(8, "little"),
    ):
        with pytest.raises(IndexFormatError, match="out of range"):
            deserialize(with_entry(0, b"\x03" + sources + targets))

    # label ba: one gap per side, so each packed byte ends in a padding nibble
    assert with_entry(1, bytes([2, 6, 4, 0x10, 3, 4, 0x10])) == data
    for entry in (bytes([2, 6, 4, 0x11, 3, 4, 0x10]), bytes([2, 6, 4, 0x10, 3, 4, 0x1F])):
        with pytest.raises(IndexFormatError, match="padding nibble"):
            deserialize(with_entry(1, entry))

    # label c, the last: one edge 1 -> 10, so no gaps and no width bytes
    assert with_entry(5, bytes([1, 1, 10])) == data
    for entry in (bytes([1, 1, 4, 10]), bytes([1, 1, 10, 4])):
        with pytest.raises(IndexFormatError, match="oversized postings"):
            deserialize(with_entry(5, entry))


def one_label_file(n: int, postings: bytes) -> bytes:
    """A file of n states, as many epsilon edges and all marker bits
    set, whose dictionary holds the label a alone with these postings."""
    w = uint_width(n)
    bits = (n + 7) // 8
    all_set = b"\xff" * (bits - 1) + bytes([0xFF00 >> (n % 8 or 8) & 0xFF])
    parts = [
        bytes([w]) + n.to_bytes(w, "little") * 2,
        bytes(bits),
        all_set,
        all_set,
        (1).to_bytes(w, "little") * 2 + b"a",
        postings,
    ]
    return frame(MAGIC + bytes([VERSION, 0]), parts)


def test_target_gaps_checked_against_n():
    """Crafted target gaps under a valid digest, on a file of n = 300
    states whose label a enters 290 and 291: the targets load as the
    base 290 and one-byte offsets, and gaps that carry the last target
    past n are refused, whether their sum fits the one byte the
    offsets would narrow to, passes it, or passes the range of the
    two-byte state arrays they are summed in."""
    sources = (2).to_bytes(2, "little") + side_bytes([1, 1], 2)
    base = (290).to_bytes(2, "little")
    ix = deserialize(one_label_file(300, sources + base + bytes([4, 0x10])))
    assert row_targets(ix.rows[b"a"]) == [290, 291]
    assert ix.rows[b"a"][1].typecode == "B"
    for gaps in (
        bytes([8, 11]),  # 301
        bytes([16]) + (300).to_bytes(2, "little"),  # 590, past one byte
        bytes([16]) + (65535).to_bytes(2, "little"),  # within two bytes
        bytes([32]) + (65536).to_bytes(4, "little"),  # past two bytes
        bytes([64]) + (2**64 - 1).to_bytes(8, "little"),
    ):
        with pytest.raises(IndexFormatError, match="postings state out of range 1..n"):
            deserialize(one_label_file(300, sources + base + gaps))


@pytest.mark.parametrize("sentinel", [False, True])
def test_target_side_spanning_32_bits(sentinel):
    """Label a enters every state from 2 to 65,540, a target side whose
    span needs 32 bits: it loads at that width, equal to the built
    rows, and answers like the oracle."""
    m = 65_541
    edges = [(1, v, b"a") for v in range(2, m)] + [(2, m, b"b")]
    a = GeneralizedAutomaton(state_count=m, edges=tuple(edges), finals=frozenset({3, m}))
    built = build_index(a, with_sentinel=sentinel)
    ix = deserialize(serialize(built))
    assert_same_rows(built, ix)
    offsets = ix.rows[b"a"][1]
    assert offsets.itemsize == 4 and offsets[-1] == m - 3
    for pattern in (b"a", b"b", b"aa", b"ab", b"aab", b"ba"):
        res = match_interval(ix, pattern)
        assert set(range(res.lo, res.hi + 1)) == brute_match(a, pattern), pattern
        if sentinel:
            assert res.accepted == brute_accepts(a, pattern), pattern


def assert_same_rows(built, loaded):
    """The loaded rows equal the built ones, typecodes included (array
    equality compares values only): sources at the width that holds n,
    and target offsets from 0 at the narrowest width that holds their
    span."""
    assert loaded.rows == built.rows
    state_code = UINT_TYPECODES[uint_width(built.n_states)]
    for rho, (sources, offsets, _, base, _, _) in built.rows.items():
        again = loaded.rows[rho]
        assert (again[0].typecode, again[1].typecode) == (sources.typecode, offsets.typecode)
        assert sources.typecode == state_code, rho
        assert offsets[0] == 0 and offsets.itemsize == uint_width(offsets[-1]), rho


def test_build_and_load_give_identical_rows(all_corpus_names):
    """On every corpus instance and on the 85k-state benchmark trie,
    loading gives the rows the build made."""
    for name in all_corpus_names:
        built = load_index(name)
        assert_same_rows(built, deserialize(serialize(built)))
    a = build_piece_trie(random.Random(271828), 13000, 28, 2, b"abcd")
    built = build_index(a, with_sentinel=True)
    assert built.n_states > 80_000
    assert_same_rows(built, deserialize(serialize(built)))


def test_epsilon_free_file_stores_no_marker_bits():
    """An epsilon-free index stores both marker sections empty and loads
    them all set; the epsilon edge count alone decides the form, so a
    marker section beside a count of 0, or an empty one beside a count
    above 0, is refused."""
    a = GeneralizedAutomaton(
        state_count=3, edges=((1, 2, b"a"), (2, 3, b"b")), finals=frozenset({3})
    )
    data = serialize(build_index(a))
    summary, _, b_max, b_min, _, _ = split_sections(data)
    assert (summary, b_max, b_min) == (b"\x01\x03\x00", b"", b"")
    again = deserialize(data)
    assert again.b_max.ones == again.b_min.ones == 3
    assert serialize(again) == data
    all_set = b"\xe0"
    for section in (2, 3):
        with pytest.raises(IndexFormatError, match="stores no marker bits"):
            deserialize(reframe(data, section, all_set))
    one_edge = reframe(data, 0, b"\x01\x03\x01")
    with pytest.raises(IndexFormatError, match="b_max bit section has the wrong length"):
        deserialize(one_edge)
    one_edge = reframe(one_edge, 2, all_set)
    with pytest.raises(IndexFormatError, match="b_min bit section has the wrong length"):
        deserialize(one_edge)
    # with the count above 0 the sections are stored, all set or not
    one_edge = reframe(one_edge, 3, all_set)
    assert serialize(deserialize(one_edge)) == one_edge


@pytest.mark.parametrize("sentinel", [False, True])
def test_epsilon_file_round_trip(sentinel):
    """Generated instances with epsilon edges keep both marker sections
    in full, write back the bytes they were read from and answer alike
    before and after the load."""
    params = GenerationParams(epsilon_attempts=40)
    files = marker_zeros = 0
    for seed in range(20):
        a = generate_instance(seed, params)
        ix = build_index(a, with_sentinel=sentinel)
        if not ix.epsilon_edge_count:
            continue
        data = serialize(ix)
        _, finals, b_max, b_min, _, _ = split_sections(data)
        assert len(b_max) == len(b_min) == len(finals) == (ix.n_states + 7) // 8
        again = deserialize(data)
        assert serialize(again) == data
        patterns = sample_patterns(random.Random(seed), a, 60)
        assert match_patterns(again, patterns) == match_patterns(ix, patterns)
        files += 1
        marker_zeros += 2 * ix.n_states - ix.b_max.ones - ix.b_min.ones
    assert files >= 15 and marker_zeros  # the markers hold zero bits


@st.composite
def one_label_postings(draw):
    """(n, sources, targets): one label's ascending postings, with
    repeated entries and gaps at the 4-bit boundary, over n states at a
    state-width boundary."""
    n = draw(st.sampled_from([255, 256, 65535, 65536, 65537]))
    pool = draw(st.lists(st.integers(1, n), min_size=1, max_size=6)) + [1, 2, 16, 17, n]
    count = draw(st.integers(1, 30))
    side = st.lists(st.sampled_from(pool), min_size=count, max_size=count).map(sorted)
    return n, draw(side), draw(side)


@settings(max_examples=60, deadline=None)
@given(one_label_postings())
@example((255, [1, 1, 2, 255], [1, 255, 255, 255]))  # gap widths 8 and 8
@example((65535, [1, 1, 65535], [1, 300, 300]))  # 16 and 16
@example((65537, [1, 65537], [5, 5]))  # 32 and 4, one gap and a padding nibble
@example((256, [1, 2, 17, 17, 32], [2, 2, 3, 3, 18]))  # 4 and 4, four gaps
@example((256, [1, 16, 16, 17], [1, 1, 2, 17]))  # 4 and 4, three gaps
@example((65536, [7], [65536]))  # single states: no gaps and no width bytes
def test_postings_round_trip(case):
    """A file holding one label's postings loads its sources into an
    array of the state width of n and its targets' offsets from the
    first into the narrowest array that holds their span, both with no
    spare room (a [:] copy is sized exactly), and writes back the bytes
    it was read from, each side's gaps at the narrowest width (4-bit
    ones packed two to a byte)."""
    n, sources, targets = case
    w = 1 if n < 256 else 2 if n < 65536 else 4
    data = one_label_file(n, postings_bytes([(sources, targets)], w))
    ix = deserialize(data)
    row = ix.rows[b"a"]
    assert [list(row[0]), row_targets(row)] == [sources, targets]
    span = targets[-1] - targets[0]
    assert row[0].itemsize == w
    assert row[1].itemsize == (1 if span < 256 else 2 if span < 65536 else 4)
    for side in row[:2]:
        assert sys.getsizeof(side) == sys.getsizeof(side[:])
    assert serialize(ix) == data


def test_postings_take_about_a_byte_per_entry():
    """On the criterion-09 10k trie the gap-coded postings section takes
    at most 0.8 bytes per stored source or target, where the file-wide
    width w = 2 would take 2.0: a label's targets sit close together in
    Wheeler order, so their gaps take 4 bits."""
    rng = random.Random(271828)
    a = build_piece_trie(rng, n_strings=1300, max_string_len=28, max_piece_len=2, alphabet=b"abcd")
    ix = build_index(a)
    entries = sum(len(row[0]) + len(row_targets(row)) for row in ix.rows.values())
    postings = split_sections(serialize(ix))[5]
    assert len(postings) <= 0.8 * entries, (len(postings), entries, len(postings) / entries)


def test_sentinel_flag_alone_makes_a_sentinel_index(all_corpus_names):
    """The flag bit is the only record of the sentinel: a plain file
    with the flag set, under a digest of its own, is the sentinel file.
    It loads as a sentinel index that answers the plain intervals and
    the oracle's membership, so no setting of the flag gives a wrong
    answer."""
    checked = 0
    for name in all_corpus_names[::5]:
        a, patterns = load_instance(name), list(load_sidecar_patterns(name))
        data = serialize(load_index(name))
        flagged = frame(data[:5] + b"\x01", split_sections(data))
        assert flagged == serialize(load_index(name, with_sentinel=True))
        ix = deserialize(flagged)
        assert ix.sentinel_mode
        answers = match_patterns(ix, patterns)
        for p, got, want in zip(patterns, answers, match_patterns(load_index(name), patterns)):
            assert got == (*want[:3], brute_accepts(a, p)), (name, p)
            checked += 1
    assert checked > 1000, checked


def test_other_labels_may_start_or_end_at_state_1():
    """A sentinel file may hold edges that leave or enter state 1, where
    the never-stored sentinel loop sits, here 1 -> 2 'b' and 2 -> 1 'a'.
    It loads, and answers every pattern over {a, b} up to length 4 as
    the plain index does, with the membership crosscheck_instance checks
    against the brute-force oracle."""
    a = GeneralizedAutomaton(
        state_count=2, edges=((2, 1, b"a"), (1, 2, b"b")), finals=frozenset({1})
    )
    loaded = deserialize(serialize(build_index(a, with_sentinel=True)))
    assert edge_lists(loaded) == [([2], [1]), ([1], [2])]
    patterns = [bytes(p) for k in range(5) for p in itertools.product(b"ab", repeat=k)]
    assert crosscheck_instance(a, patterns) == []
    answers = match_patterns(loaded, patterns)
    for p, got, want in zip(patterns, answers, match_patterns(build_index(a), patterns)):
        assert got == (*want[:3], brute_accepts(a, p)), p
    # the accepted ones: the empty pattern, ba and baba
    assert sum(accepted for _, _, _, accepted in answers) == 3


def test_file_breaking_axiom3_refused():
    """Edges 1 -> 3 'a' and 1 -> 2 'b': 'b' sorts above 'a' and does not
    end with it, yet enters a smaller state.  The library build trusts
    the numbering, and the loaded file answered 'a' with 2..3 and 'b'
    with nothing, where the automaton reaches {3} and {2}."""
    a = GeneralizedAutomaton(
        state_count=3, edges=((1, 3, b"a"), (1, 2, b"b")), finals=frozenset({3})
    )
    with pytest.raises(IndexFormatError, match="axiom 3"):
        deserialize(serialize(build_index(a)))
    # a label ending with 'a' may enter a smaller state
    a = GeneralizedAutomaton(
        state_count=3, edges=((1, 3, b"a"), (1, 2, b"ba")), finals=frozenset({3})
    )
    assert deserialize(serialize(build_index(a))).labels == (b"a", b"ba")


def test_file_leaving_a_state_unentered_refused():
    """Edge 1 -> 3 'a' alone: no edge enters state 2, and there is no
    epsilon edge that could."""
    a = GeneralizedAutomaton(state_count=3, edges=((1, 3, b"a"),), finals=frozenset({3}))
    with pytest.raises(IndexFormatError, match="without an incoming edge"):
        deserialize(serialize(build_index(a)))
    # an epsilon edge may be a state's only way in
    a = GeneralizedAutomaton(
        state_count=3, edges=((1, 2, b"a"), (2, 3, b"")), finals=frozenset({3})
    )
    assert deserialize(serialize(build_index(a))).epsilon_edge_count == 1


def test_wide_integers_round_trip():
    rng = random.Random(99)
    a = build_piece_trie(rng, n_strings=80, max_string_len=16, max_piece_len=2, alphabet=b"abcd")
    assert a.state_count > 255
    assert_round_trip(build_index(a))


def test_payload_bits_arithmetic(four_state_index):
    data = serialize(four_state_index)
    # sum the section lengths by hand
    total = sum(len(sec) for sec in split_sections(data))
    assert payload_bits(data) == 8 * total


def at_width(data: bytes, w: int) -> bytes:
    """data with every integer of the summary, dictionary and postings
    sections rewritten w bytes wide, but the postings' gap widths and
    gaps, framed and digested anew."""
    summary, _, _, _, dictionary, postings = split_sections(data)
    w0 = summary[0]

    def widen(ints: bytes) -> bytes:
        return b"".join(
            int.from_bytes(ints[i : i + w0], "little").to_bytes(w, "little")
            for i in range(0, len(ints), w0)
        )

    # the dictionary interleaves integers (count, lengths) with label bytes
    pos, wide_dict = w0, widen(dictionary[:w0])
    while pos < len(dictionary):
        ln = int.from_bytes(dictionary[pos : pos + w0], "little")
        wide_dict += widen(dictionary[pos : pos + w0]) + dictionary[pos + w0 : pos + w0 + ln]
        pos += w0 + ln
    # each postings entry: edge count, then per side its first state
    # and, for a count above 1, the width byte and count - 1 gaps of
    # that many bits, 4-bit ones two to a byte
    pos, wide_postings = 0, b""
    while pos < len(postings):
        count = int.from_bytes(postings[pos : pos + w0], "little")
        wide_postings += widen(postings[pos : pos + w0])
        pos += w0
        for _ in range(2):
            end = pos + w0
            if count > 1:
                bits = postings[end]
                end += 1 + (count // 2 if bits == 4 else (count - 1) * bits // 8)
            wide_postings += widen(postings[pos : pos + w0]) + postings[pos + w0 : end]
            pos = end
    data = reframe(data, 0, bytes([w]) + widen(summary[1:]))
    data = reframe(data, 4, wide_dict)
    return reframe(data, 5, wide_postings)


@pytest.mark.parametrize("sentinel", [False, True])
def test_every_integer_width(ten_state, sentinel):
    """The file at any of the four widths loads, answers the oracle-check
    battery alike and writes back at the smallest width."""
    ix = build_index(ten_state, with_sentinel=sentinel)
    data = serialize(ix)
    battery = _default_battery(ten_state)
    want = battery_answers(ix, battery)
    for w in (1, 2, 4, 8):
        wide = at_width(data, w)
        assert (wide == data) == (w == 1)
        again = deserialize(wide)
        assert battery_answers(again, battery) == want
        assert serialize(again) == data


def test_loaded_index_heap_within_4x_file():
    """The criterion-09 10k trie loads into at most four heap bytes per
    file byte, measured as the benchmark measures index_heap_mib."""
    rng = random.Random(271828)
    a = build_piece_trie(rng, n_strings=1300, max_string_len=28, max_piece_len=2, alphabet=b"abcd")
    blob = serialize(build_index(a))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ix = deserialize(blob)
        heap = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ix.n_states == a.state_count
    assert heap <= 4 * len(blob), (heap, len(blob), heap / len(blob))


def test_loaded_index_heap_within_1_5x_payload():
    """The criterion-09 10k trie loads into at most 1.5 heap bytes per
    byte of its loaded postings arrays and packed bit sections, the
    payload of a container that stores postings at a fixed width (the
    gap-coded file is smaller, the heap is not): each bitvector keeps
    only the positions of its rarer bit, so the all-ones marker bits of
    this epsilon-free trie load to empty arrays and keep none of their
    packed bytes."""
    rng = random.Random(271828)
    a = build_piece_trie(rng, n_strings=1300, max_string_len=28, max_piece_len=2, alphabet=b"abcd")
    blob = serialize(build_index(a))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ix = deserialize(blob)
        heap = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ix.b_max.ones == ix.b_min.ones == ix.n_states
    payload = sum(
        side.itemsize * len(side) for row in ix.rows.values() for side in row[:2]
    ) + 3 * ((ix.n_states + 7) // 8)
    assert heap <= 1.5 * payload, (heap, payload, heap / payload)


def test_many_label_heap_within_23x_file():
    """A 3,000-string trie over abcd with pieces of up to 8 bytes has
    3,703 labels, most of them with a single edge.  On a second load in
    the process it takes at most 23 heap bytes per file byte (22.5
    measured with the rows' block-rank slots, 21.7 without; 28.7 with
    every target side at the state width, each in an array of its own,
    and the per-label tables in lists).  A full
    collection first empties CPython's free lists: the first load's
    row tuples parked there would otherwise serve about 2,000 of the
    second load's uncounted, and only until some collection ran."""
    a = build_piece_trie(random.Random(271828), 3000, 28, 8, b"abcd")
    blob = serialize(build_index(a))
    assert len(deserialize(blob).labels) == 3703
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ix = deserialize(blob)
        heap = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ix.r == 8
    assert heap <= 23 * len(blob), (heap, len(blob), heap / len(blob))


def test_long_label_heap_within_4x_file():
    """A single 10,000-byte label loads into at most four heap bytes per
    file byte: the derived tables grow with the label bytes, not with
    the number of its suffixes."""
    rng = random.Random(7)
    label = bytes(rng.choice(b"abcd") for _ in range(10_000))
    a = GeneralizedAutomaton(state_count=2, edges=((1, 2, label),), finals=frozenset({2}))
    blob = serialize(build_index(a))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ix = deserialize(blob)
        heap = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert suffix_label_max(ix, label[-5000:]) == 2
    assert suffix_label_max(ix, b"e" + label) == 0
    assert heap <= 4 * len(blob), (heap, len(blob), heap / len(blob))
