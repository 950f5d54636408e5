"""The queryable index over a Wheeler-ordered automaton.

Everything the matcher needs is a handful of counting and boundary
queries against the edge multiset, phrased against the state numbering:

* how many edges with a given label leave / enter states 1..j,
* the largest prefix of states receiving at most f copies of a label,
  and the smallest prefix receiving at least g copies,
* the first state whose length-k in-label is co-lexicographically at
  or above a query string,
* the largest state entered by a single edge whose label ends with the
  query string,
* rounding a candidate boundary down / up to the nearest closure marker,
* and a final-state count over a state interval.

All label comparisons only ever touch the last r bytes of the query
prefix (r = longest label), which keeps a matching step independent of
how much of the pattern has already been consumed.

The structures behind these are deliberately plain.  The label
dictionary keys one row per label: its ascending sources, an array of
the width that holds n; its ascending targets, as their first state
(the base) and an array of each target's offset from it; and the
label-order bound of a matching step whose chunk is that label.  Every
target of a label lies in the label's own query interval, so a label
of length k spans about n / sigma^k states, and the offsets take the
narrowest of 1, 2, 4 or 8 bytes that holds that span, not the width n
needs (on the 85k-state benchmark trie 2 bytes where the sources take
4).  Sources have no such bound and keep the state width.  The three
counting operations take such a row, not a label, so a matching step
looks each chunk up once; NO_ROW stands for a chunk the dictionary does
not hold.  Besides the rows there are rank/select bitvectors for the
finals and the two closure markers the epsilon edges add, each holding
only the positions of its rarer bit (none for a marker of an
epsilon-free automaton), and two more tables with one entry per
dictionary label, never one per edge, both arrays of the state width
with 0 for "none": per label length, the reversed labels with a suffix
minimum over each label's smallest target, whose entry just past a
label's own is that label's bound; and all reversed labels in
dictionary order with a range-maximum sparse table over each label's
largest target.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate

from .bitvec import UINT_TYPECODES, RankSelectBits, uint_array, uint_bytes, uint_lanes, uint_width
from .closure import build_closure_arrays
from .model import (
    SENTINEL,
    SENTINEL_BYTES,
    GeneralizedAutomaton,
    SentinelInLabelError,
    colex_key,
    suffix_block_end,
)


# (sources, target offsets, label-order bound, base) of one dictionary
# label: its targets are base + offset for each offset
Row = tuple[array, array, int | None, int]

# the row of a chunk the dictionary does not hold: no edges, and a
# label-order bound of 0, which no dictionary label has
NO_ROW = ((), (), 0, 0)

# the offsets of a target side of one state, which all such sides share:
# no code writes to a row's arrays
_ONE_OFFSET = array("B", [0])


def target_offsets(targets: array) -> tuple[array, int]:
    """Ascending targets, in an array of the state width, as their
    offsets from the first and that first state, the base.  The offsets
    are found by one subtraction over whole lanes (no target is below
    the base, so no lane borrows from the next) and take the narrowest
    width that holds the last, with no Python int made per target; a
    single target's offsets are the one shared array."""
    base, k = targets[0], len(targets)
    if k == 1:
        return _ONE_OFFSET, base
    iw, ow = targets.itemsize, uint_width(targets[-1] - base)
    lanes = int.from_bytes(uint_bytes(iw, targets), "little") - int.from_bytes(
        uint_bytes(iw, [base]) * k, "little"
    )
    return uint_array(ow, uint_lanes(lanes.to_bytes(k * iw, "little"), iw, ow)), base


class WheelerIndex:
    """Built via build_index() or deserialize(); states are 1..n.

    Both pass the same inputs: the state and epsilon-edge counts, the
    finals and marker bits, the dictionary (non-empty labels strictly
    increasing in co-lex order) and its postings (label -> (sources,
    offsets, base), at least one edge per label: the ascending sources
    in an array of the width that holds n, and the ascending targets as
    their first state and each one's offset from it, in the narrowest
    unsigned array that holds the last offset).  The postings are kept
    only inside `rows`, which maps each dictionary label object to
    (sources, offsets, bound, base): bound is the smallest state
    entered by a label of the same length sorting strictly above it
    (None if there is none), which is what
    min_state_with_len_k_label_ge(len(rho), x + rho) returns for any
    byte x.  out_count and the two prefix boundaries take such a row
    and add the base back.  The target sides of a single state, most of
    them on a trie with thousands of labels, share one offsets array.
    No Python object is held per edge or per state, but each label
    costs about 350 bytes of heap on top of its file bytes, so an index
    with thousands of labels loads to about twenty heap bytes per file
    byte.

    Every other table holds one entry per dictionary label, never one
    per edge.  Because the targets ascend, a label's smallest and
    largest target are base and base + offsets[-1]; a minimum or
    maximum over a block of labels is then the same as over all their
    edges.  These rows, r (the longest label) and sentinel_mode
    (whether the dictionary holds the sentinel label) are derived here
    and nowhere else.
    """

    def __init__(
        self,
        state_count: int,
        epsilon_edge_count: int,
        finals: RankSelectBits,
        b_max: RankSelectBits,
        b_min: RankSelectBits,
        labels: tuple[bytes, ...],
        postings: dict[bytes, tuple[array, array, int]],
    ):
        self.n_states = state_count
        self.epsilon_edge_count = epsilon_edge_count
        # the sentinel byte sorts below every other label byte
        self.sentinel_mode = labels[:1] == (SENTINEL_BYTES,)
        self.finals = finals
        self.b_max = b_max
        self.b_min = b_min
        self.labels = labels

        # co-lex order is the order of reversed labels, so the dictionary
        # already lists the rows sorted
        self._rev = [rho[::-1] for rho in labels]
        by_len: dict[int, tuple[list[bytes], list[bytes]]] = {}
        for rho, rev in zip(labels, self._rev):
            rhos, revs = by_len.setdefault(len(rho), ([], []))
            rhos.append(rho)
            revs.append(rev)
        typecode = UINT_TYPECODES[uint_width(state_count)]
        # per length: reversed labels and, from each row on, the smallest
        # target of that row or any later one (0 past the end)
        self._by_len = {}
        # per label: its postings and the suffix minimum just past its
        # own row, keyed by the dictionary's own label objects
        self.rows: dict[bytes, Row] = {}
        for k, (rhos, revs) in by_len.items():
            suffix_min = array(typecode, [0]) * (len(rhos) + 1)
            firsts = (postings[rho][2] for rho in reversed(rhos))
            suffix_min[-2::-1] = array(typecode, accumulate(firsts, min))
            self._by_len[k] = (revs, suffix_min)
            for rho, bound in zip(rhos, suffix_min[1:]):
                sources, offsets, base = postings[rho]
                self.rows[rho] = (sources, offsets, bound or None, base)
        # sparse table: level i holds the largest target over the 2^i
        # rows starting at each row; an array grown from an iterator
        # over-allocates, and its [:] copy is sized exactly
        lasts = (postings[rho][2] + postings[rho][1][-1] for rho in labels)
        level = array(typecode, lasts)[:]
        self._max_levels = [level]
        span = 1
        while 2 * span <= len(labels):
            level = array(typecode, map(max, level, level[span:]))[:]
            self._max_levels.append(level)
            span *= 2
        self.r = max(by_len, default=0)
        # b_max has no zero bit on every epsilon-free index
        self._floor_is_identity = b_max.ones == b_max.n

    # -- counting ----------------------------------------------------------

    def out_count(self, row: Row, j: int) -> int:
        """Edges of `row`'s label leaving states 1..j."""
        return bisect_right(row[0], j)

    # -- boundaries --------------------------------------------------------

    def max_prefix_with_in_at_most(self, row: Row, f: int) -> int:
        """Largest j with at most f edges of `row`'s label into states 1..j."""
        if f < 0:
            raise ValueError("count bound must be nonnegative")
        offsets = row[1]
        return row[3] + offsets[f] - 1 if f < len(offsets) else self.n_states

    def min_prefix_with_in_at_least(self, row: Row, g: int) -> int:
        """Smallest j with at least g edges of `row`'s label into 1..j,
        1 <= g <= mult."""
        offsets = row[1]
        if not 1 <= g <= len(offsets):
            raise ValueError(f"no prefix receives {g} of the row's {len(offsets)} edges")
        return row[3] + offsets[g - 1]

    def min_state_with_len_k_label_ge(self, k: int, alpha: bytes) -> int | None:
        """Smallest state entered by a length-k edge whose label is
        co-lexicographically >= alpha, or None if there is none.

        Only the last min(k, len(alpha)) bytes of alpha are inspected:
        when alpha is longer than k, a length-k label ties with alpha's
        tail exactly when it is a proper suffix of alpha, and a proper
        suffix sorts strictly below, so the comparison becomes strict.
        """
        row = self._by_len.get(k)
        if row is None:
            return None
        revs, suffix_min = row
        if len(alpha) > k:
            return suffix_min[bisect_right(revs, alpha[: -k - 1 : -1])] or None
        return suffix_min[bisect_left(revs, alpha[::-1])] or None

    def max_state_with_suffix_label(self, alpha: bytes) -> int:
        """Largest state entered by an edge whose label has alpha as a
        suffix; 0 if no edge label does (always so once |alpha| > r)."""
        rev = alpha[::-1]
        lo = bisect_left(self._rev, rev)
        hi = bisect_right(self._rev, suffix_block_end(rev, self.r), lo)
        if lo >= hi:
            return 0
        k = (hi - lo).bit_length() - 1
        level = self._max_levels[k]
        return max(level[lo], level[hi - (1 << k)])

    def breaks_axiom3(self) -> bool:
        """Whether the labeled edges break Wheeler axiom 3: some label
        above label B's suffix block (co-lex above B and not ending with
        it) enters a state below B's largest target."""
        rows = [self.rows[rho] for rho in self.labels]
        # from each row on, the smallest target of that row or any later one
        firsts = [row[3] for row in reversed(rows)]
        suffix_min = list(accumulate(firsts, min))[::-1] + [self.n_states + 1]
        return any(
            suffix_min[bisect_right(self._rev, suffix_block_end(rev, self.r))]
            < row[3] + row[1][-1]
            for row, rev in zip(rows, self._rev)
        )

    def unentered_states(self) -> int:
        """How many of the states 2..n no posting enters."""
        entered = bytearray(self.n_states + 1)
        for _, offsets, _, base in self.rows.values():
            # the flags of the row's own span, indexed by offset
            end = base + offsets[-1] + 1
            flags = entered[base:end]
            for v in offsets:
                flags[v] = 1
            entered[base:end] = flags
        return self.n_states - 1 - entered.count(1, 2)

    # -- markers and finals ------------------------------------------------

    def marker_floor(self, j: int) -> int:
        """Largest t <= j with b_max[t] set; 0 when there is none (j
        itself when b_max is all ones, as on every epsilon-free index)."""
        if self._floor_is_identity:
            return j
        k = self.b_max.rank1(j)
        return 0 if k == 0 else self.b_max.select1(k)

    def marker_ceiling(self, h: int) -> int:
        """Smallest t >= h with t == n or b_min[t+1] set."""
        k = self.b_min.rank1(h)
        if k == self.b_min.ones:
            return self.n_states
        return self.b_min.select1(k + 1) - 1

    def finals_in(self, lo: int, hi: int) -> bool:
        """Any final state in the interval lo..hi (empty if lo > hi)."""
        if lo > hi:
            return False
        return self.finals.rank1(hi) - self.finals.rank1(max(lo - 1, 0)) > 0


def build_index(
    a: GeneralizedAutomaton, with_sentinel: bool = False
) -> WheelerIndex:
    """Build the index, trusting the state numbering to be Wheeler.

    One pass over the edges groups the labeled ones by label and counts
    the epsilon edges, and the epsilon closure gives the marker bits.
    with_sentinel indexes the automaton with a fresh initial state
    prepended, joined by a sentinel-labeled edge, which is what
    membership queries need: every state i becomes i+1, the new state 1
    is initial, and the single new edge (1, 2, 0x01) feeds the old
    initial state.  Since the sentinel byte sorts below every allowed
    label byte and never occurs elsewhere, the shifted numbering is
    still a Wheeler order, and every nonempty query interval is the old
    interval shifted up by one.  The new state has no epsilon edges, so
    it is its own closure extremum and both its marker bits are set.

    Raises SentinelInLabelError if a label holds one of the reserved
    bytes 0x00 and 0x01, which no container could load, and
    EpsilonCycleError if the epsilon edges are cyclic.
    """
    lead = 1 if with_sentinel else 0
    n = lead + a.state_count

    per_label: dict[bytes, tuple[list[int], list[int]]] = {}
    epsilon_edge_count = 0
    for u, v, rho in a.edges:
        if not rho:
            epsilon_edge_count += 1
            continue
        srcs, tgts = per_label.setdefault(rho, ([], []))
        srcs.append(u + lead)
        tgts.append(v + lead)
    if any(0x00 in rho or SENTINEL in rho for rho in per_label):
        raise SentinelInLabelError("reserved byte 0x00 or 0x01 in a label")
    if with_sentinel:
        per_label[SENTINEL_BYTES] = ([1], [2])

    closure = build_closure_arrays(a)

    labels = tuple(sorted(per_label, key=colex_key))
    typecode = UINT_TYPECODES[uint_width(n)]
    postings = {
        rho: (array(typecode, sorted(srcs)), *target_offsets(array(typecode, sorted(tgts))))
        for rho, (srcs, tgts) in per_label.items()
    }

    finals_bits = bytearray(n)
    for q in a.finals:
        finals_bits[lead + q - 1] = 1

    return WheelerIndex(
        state_count=n,
        epsilon_edge_count=epsilon_edge_count,
        finals=RankSelectBits(bytes(finals_bits)),
        b_max=RankSelectBits(b"\x01" * lead + closure.b_max[1:]),
        b_min=RankSelectBits(b"\x01" * lead + closure.b_min[1:]),
        labels=labels,
        postings=postings,
    )
