"""The queryable index over a Wheeler-ordered automaton.

Everything the matcher needs is a handful of counting and boundary
queries against the edge multiset, phrased against the state numbering:

* how many edges with a given label leave / enter states 1..j,
* the largest prefix of states receiving at most f copies of a label,
  and the smallest prefix receiving at least g copies,
* the first state entered by a length-k label co-lexicographically at
  or above a query string (a plain scan; the matcher reads the minimum
  over all lengths off suffix_min instead),
* the largest state entered by a single edge whose label ends with the
  query string, asked with the query reversed and the position where
  the matcher's bisect for its label-order bound put it among the
  reversed labels, which is where the block of such labels starts,
* rounding a candidate boundary down / up to the nearest closure marker,
* and whether a state interval holds a final state, one bisect into
  the finals' stored positions.

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
4).  Sources have no such bound and keep the state width.  A label
with many sources also gets a sampled rank directory over them, the
only table derived per label that grows with its edges: the count of
its sources at every 2^s-th state, with blocks of about 32 sources, so
that out_count bisects one block, not all of them; at most 2E/32 + 2L
entries over all labels, and no array per state.  out_count takes such
a row, not a label, and a matching step reads the two prefix
boundaries off its targets, so it looks each chunk up once; NO_ROW
stands for a chunk the dictionary does not hold.  Besides the
rows there are rank/select bitvectors for the finals and the two
closure markers the epsilon edges add, each holding only the positions
of its rarer bit (none for a marker of an epsilon-free automaton), the
reversed labels in dictionary order, and two tables over them with one
entry per dictionary label, never one per edge, both arrays of the
state width with 0 for "none": a suffix minimum over each label's
smallest target (suffix_min), whose entry just past a label's own is
that label's bound, and a range-maximum sparse table over each label's
largest target.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate, repeat

from .bitvec import UINT_TYPECODES, RankSelectBits, uint_array, uint_bytes, uint_lanes, uint_width
from .closure import build_closure_arrays
from .model import SENTINEL, GeneralizedAutomaton, SentinelInLabelError, colex_key, suffix_block_end


# (sources, target offsets, label-order bound, base, shift, samples) of
# one dictionary label: its targets are base + offset for each offset,
# and samples[b] counts the sources at most b << shift, or is None
Row = tuple[array, array, int | None, int, int, array | None]

# a label with fewer sources than this keeps a whole-array bisect
_SAMPLED_MIN = 256
# a sampled label's blocks hold about this many of its sources each
_BLOCK_SOURCES = 32

# the row of a chunk the dictionary does not hold: no edges, and no
# label-order bound (None), which a dictionary label always has
NO_ROW = ((), (), None, 0, 0, None)

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


def rank_samples(sources: array, n: int) -> tuple[int, array | None]:
    """The shift and the block counts that narrow out_count's bisect
    over a label's ascending sources, states 1..n.

    A block is 2^shift states wide, chosen so that it holds about
    _BLOCK_SOURCES of the label's m sources on average (over half that
    and at most that, unless one state averages more), and samples[b]
    counts the sources at most b << shift for b in 0..(n >> shift) + 1,
    one bisect each at C level: at most m / 16 + 2 entries, in the
    narrowest array that holds m.  A label with fewer than _SAMPLED_MIN
    sources gets (0, None) and no array: a bisect over its few sources
    costs less than reading two samples."""
    m = len(sources)
    if m < _SAMPLED_MIN:
        return 0, None
    shift = max(0, (_BLOCK_SOURCES * n // m).bit_length() - 1)
    cuts = range(0, ((n >> shift) + 2) << shift, 1 << shift)
    # an array grown from an iterator over-allocates; its [:] copy does not
    samples = array(UINT_TYPECODES[uint_width(m)], map(bisect_right, repeat(sources), cuts))
    return shift, samples[:]


class WheelerIndex:
    """Built via build_index() or deserialize(); states are 1..n.

    Both pass the same inputs: the state and epsilon-edge counts, the
    finals and marker bits, sentinel_mode (whether membership queries
    may run, for which the index stores nothing else), the dictionary
    (non-empty labels strictly increasing in co-lex order) and its
    postings (label -> (sources, offsets, base), at least one edge per
    label: the ascending sources in an array of the width that holds n,
    and the ascending targets as their first state and each one's offset
    from it, in the narrowest unsigned array that holds the last
    offset).  The postings are kept only inside `rows`, which maps each
    dictionary label object to (sources, offsets, bound, base, shift,
    samples): bound is the smallest state entered by any label sorting
    co-lexicographically above it (0 if there is none), suffix_min's
    entry just past the label's own, and shift and samples are
    rank_samples' block table over the sources.  out_count takes such a
    row, and so do the two prefix boundaries, which the matcher reads
    off the row itself.  The target sides of a single state, most of them
    on a trie with thousands of labels, share one offsets array, and a
    label with too few sources for a block table holds None for its
    samples.  No Python object is held per edge or per state, but each
    label costs about 360 bytes of heap on top of its file bytes, so an
    index with thousands of labels loads to about twenty heap bytes per
    file byte.

    Every other table holds one entry per dictionary label, never one
    per edge: revs holds the reversed labels in dictionary order, and
    suffix_min, one entry longer, from each label on the smallest state
    entered by that label or a later one (0 past the end), which serves
    both the matcher's label-order bound and breaks_axiom3.  Because the
    targets ascend, a label's smallest and largest target are base and
    base + offsets[-1]; a minimum or maximum over a block of labels is
    then the same as over all their edges.  These rows and r (the
    longest label) are derived here and nowhere else.
    """

    def __init__(
        self,
        state_count: int,
        epsilon_edge_count: int,
        finals: RankSelectBits,
        b_max: RankSelectBits,
        b_min: RankSelectBits,
        sentinel_mode: bool,
        labels: tuple[bytes, ...],
        postings: dict[bytes, tuple[array, array, int]],
    ):
        self.n_states = state_count
        self.epsilon_edge_count = epsilon_edge_count
        self.sentinel_mode = sentinel_mode
        self.finals = finals
        self.b_max = b_max
        self.b_min = b_min
        self.labels = labels

        # co-lex order is the order of reversed labels, so the dictionary
        # already lists the rows sorted
        self.revs = [rho[::-1] for rho in labels]
        typecode = UINT_TYPECODES[uint_width(state_count)]
        # from each label on, the smallest target of that label or any
        # later one (0 past the end)
        self.suffix_min = suffix_min = array(typecode, [0]) * (len(labels) + 1)
        firsts = (postings[rho][2] for rho in reversed(labels))
        suffix_min[-2::-1] = array(typecode, accumulate(firsts, min))
        # per label: its postings and the suffix minimum just past its
        # own row, keyed by the dictionary's own label objects
        self.rows: dict[bytes, Row] = {}
        for rho, bound in zip(labels, suffix_min[1:]):
            sources, offsets, base = postings[rho]
            self.rows[rho] = (sources, offsets, bound, base, *rank_samples(sources, state_count))
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
        self.r = max(map(len, labels), default=0)
        # suffix_block_end(rev, r) is rev followed by this pad
        self._block_pad = suffix_block_end(b"", self.r)
        # b_max has no zero bit on every epsilon-free index
        self._floor_is_identity = b_max.ones == b_max.n

    # -- counting ----------------------------------------------------------

    def out_count(self, row: Row, j: int) -> int:
        """Edges of `row`'s label leaving states 1..j, for 0 <= j <= n.

        Counted by a bisect over the sources in j's block alone, between
        the row's two block counts around j (rank_samples); a row
        without a block table bisects all of its sources."""
        sources, _, _, _, shift, samples = row
        if samples is None:
            return bisect_right(sources, j)
        b = j >> shift
        return bisect_right(sources, j, samples[b], samples[b + 1])

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

        A plain scan over the labels, the reference for the matcher,
        which reads the minimum over all k off suffix_min."""
        rev = alpha[::-1]
        return min(
            (self.rows[rho][3] for rho, back in zip(self.labels, self.revs)
             if len(rho) == k and back >= rev),
            default=None,
        )

    def max_state_with_suffix_label(self, rev: bytes, lo: int) -> int:
        """Largest state entered by an edge whose label has alpha as a
        suffix; 0 if no edge label does (always so once |alpha| > r).

        Asked with rev, alpha reversed, and lo = bisect_left(revs, rev),
        where the block of labels ending with alpha starts: the matcher
        bisects there once for its label-order bound as well, so only
        the block end is bisected here, against rev padded as in
        suffix_block_end."""
        hi = bisect_right(self.revs, rev + self._block_pad, lo)
        if lo >= hi:
            return 0
        k = (hi - lo).bit_length() - 1
        level = self._max_levels[k]
        a, b = level[lo], level[hi - (1 << k)]
        return a if a > b else b

    def breaks_axiom3(self) -> bool:
        """Whether the labeled edges break Wheeler axiom 3: some label
        above label B's suffix block (co-lex above B and not ending with
        it) enters a state below B's largest target, which is a
        suffix_min entry past that block other than the 0 past the end."""
        rows = [self.rows[rho] for rho in self.labels]
        return any(
            0 < self.suffix_min[bisect_right(self.revs, suffix_block_end(rev, self.r))]
            < row[3] + row[1][-1]
            for row, rev in zip(rows, self.revs)
        )

    def unentered_states(self) -> int:
        """How many of the states 2..n no posting enters."""
        entered = bytearray(self.n_states + 1)
        for _, offsets, _, base, _, _ in self.rows.values():
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
        """Any final state in the interval lo..hi: False if lo > hi, read
        from 1 if lo < 1, IndexError if a non-empty one ends below 0 or
        past n.  One bisect into the finals' stored positions."""
        if lo > hi:
            return False
        return self.finals.any1(max(lo, 1), hi)


def build_index(
    a: GeneralizedAutomaton, with_sentinel: bool = False
) -> WheelerIndex:
    """Build the index, trusting the state numbering to be Wheeler.

    One pass over the edges groups the labeled ones by label and counts
    the epsilon edges, and the epsilon closure, handed the ones that are
    not self-loops, gives the marker bits.
    with_sentinel sets sentinel_mode, which lets membership queries run,
    and changes nothing else: the loop 0x01 on state 1 that membership
    reasons about is never stored (see the matcher's module docstring).

    Raises SentinelInLabelError if a label holds one of the reserved
    bytes 0x00 and 0x01, which no container could load, and
    EpsilonCycleError if the epsilon edges are cyclic.
    """
    n = a.state_count

    per_label: dict[bytes, tuple[list[int], list[int]]] = {}
    epsilon_edge_count = 0
    eps = []  # the epsilon edges the closure folds: all but self-loops
    for u, v, rho in a.edges:
        if not rho:
            epsilon_edge_count += 1
            if u != v:
                eps.append((u, v))
            continue
        # setdefault would build a row's lists and tuple on every edge
        sides = per_label.get(rho)
        if sides is None:
            sides = per_label[rho] = ([], [])
        srcs, tgts = sides
        srcs.append(u)
        tgts.append(v)
    if any(0x00 in rho or SENTINEL in rho for rho in per_label):
        raise SentinelInLabelError("reserved byte 0x00 or 0x01 in a label")

    closure = build_closure_arrays(a, eps)

    labels = tuple(sorted(per_label, key=colex_key))
    typecode = UINT_TYPECODES[uint_width(n)]
    postings = {
        rho: (array(typecode, sorted(srcs)), *target_offsets(array(typecode, sorted(tgts))))
        for rho, (srcs, tgts) in per_label.items()
    }

    finals_bits = bytearray(n)
    for q in a.finals:
        finals_bits[q - 1] = 1

    return WheelerIndex(
        state_count=n,
        epsilon_edge_count=epsilon_edge_count,
        finals=RankSelectBits(bytes(finals_bits)),
        b_max=RankSelectBits(closure.b_max[1:]),
        b_min=RankSelectBits(closure.b_min[1:]),
        sentinel_mode=with_sentinel,
        labels=labels,
        postings=postings,
    )
