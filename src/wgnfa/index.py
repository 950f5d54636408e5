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
dictionary keys one row per label: its ascending source and target
arrays of narrow unsigned integers, searched with bisect, and the
label-order bound of a matching step whose chunk is that label.  The
three counting operations take such a row, not a label, so a matching
step looks each chunk up once; NO_ROW stands for a chunk the dictionary
does not hold.  Besides the rows there are rank/select bitvectors for
the finals and the two closure markers the epsilon edges add, each
holding its packed bits and the positions of its rarer bit (none for a
marker of an epsilon-free automaton), and two more tables with one
entry per dictionary label, never one per edge: per label length, the
reversed labels with a suffix minimum over each label's smallest
target, whose entry just past a label's own is that label's bound; and
all reversed labels in dictionary order with a range-maximum sparse
table over each label's largest target.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate

from .bitvec import UINT_TYPECODES, RankSelectBits, uint_width
from .closure import build_closure_arrays
from .model import (
    SENTINEL,
    SENTINEL_BYTES,
    GeneralizedAutomaton,
    SentinelInLabelError,
    colex_key,
    suffix_block_end,
)


# (sources, targets, label-order bound) of one dictionary label
Row = tuple[array, array, int | None]

# the row of a chunk the dictionary does not hold: no edges, and a
# label-order bound of 0, which no dictionary label has
NO_ROW = ((), (), 0)


class WheelerIndex:
    """Built via build_index() or deserialize(); states are 1..n.

    Both pass the same inputs: the state and epsilon-edge counts, the
    finals and marker bits, the dictionary (non-empty labels strictly
    increasing in co-lex order) and its postings (label -> (sources,
    targets), at least one edge per label, both ascending arrays of
    unsigned integers).  The postings are kept only inside `rows`,
    which maps each dictionary label object to (sources, targets,
    bound): bound is the smallest state entered by a label of the same
    length sorting strictly above it (None if there is none), which is
    what min_state_with_len_k_label_ge(len(rho), x + rho) returns for
    any byte x.  out_count and the two prefix boundaries take such a
    row.  No Python object is held per edge or per state, but each
    label costs about 510 bytes of heap on top of its file bytes, so
    an index with thousands of labels loads to twenty or more heap
    bytes per file byte.

    Every other table holds one row per dictionary label, never one per
    edge.  Because the targets ascend, a label's smallest and largest
    target are targets[0] and targets[-1]; a minimum or maximum over a
    block of labels is then the same as over all their edges.  These
    rows, r (the longest label) and sentinel_mode (whether the
    dictionary holds the sentinel label) are derived here and nowhere
    else.
    """

    def __init__(
        self,
        state_count: int,
        epsilon_edge_count: int,
        finals: RankSelectBits,
        b_max: RankSelectBits,
        b_min: RankSelectBits,
        labels: tuple[bytes, ...],
        postings: dict[bytes, tuple[array, array]],
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
        # per length: reversed labels and, from each row on, the smallest
        # target of that row or any later one (None past the end)
        self._by_len = {}
        # per label: its postings and the suffix minimum just past its
        # own row, keyed by the dictionary's own label objects
        self.rows: dict[bytes, Row] = {}
        for k, (rhos, revs) in by_len.items():
            firsts = [postings[rho][1][0] for rho in reversed(rhos)]
            suffix_min = list(accumulate(firsts, min))[::-1] + [None]
            self._by_len[k] = (revs, suffix_min)
            for rho, bound in zip(rhos, suffix_min[1:]):
                self.rows[rho] = (*postings[rho], bound)
        # sparse table: level i holds the largest target over the 2^i
        # rows starting at each row
        level = [postings[rho][1][-1] for rho in labels]
        self._max_levels = [level]
        span = 1
        while 2 * span <= len(labels):
            level = list(map(max, level, level[span:]))
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
        targets = row[1]
        return targets[f] - 1 if f < len(targets) else self.n_states

    def min_prefix_with_in_at_least(self, row: Row, g: int) -> int:
        """Smallest j with at least g edges of `row`'s label into 1..j,
        1 <= g <= mult."""
        targets = row[1]
        if not 1 <= g <= len(targets):
            raise ValueError(f"no prefix receives {g} of the row's {len(targets)} edges")
        return targets[g - 1]

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
            return suffix_min[bisect_right(revs, alpha[: -k - 1 : -1])]
        return suffix_min[bisect_left(revs, alpha[::-1])]

    def max_state_with_suffix_label(self, alpha: bytes) -> int:
        """Largest state entered by an edge whose label has alpha as a
        suffix; 0 if no edge label does (always so once |alpha| > r)."""
        if len(alpha) > self.r:
            return 0
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
        # from each row on, the smallest target of that row or any later one
        firsts = [self.rows[rho][1][0] for rho in reversed(self.labels)]
        suffix_min = list(accumulate(firsts, min))[::-1] + [self.n_states + 1]
        return any(
            suffix_min[bisect_right(self._rev, suffix_block_end(rev, self.r))]
            < self.rows[rho][1][-1]
            for rho, rev in zip(self.labels, self._rev)
        )

    def unentered_states(self) -> int:
        """How many of the states 2..n no posting enters."""
        entered = bytearray(self.n_states + 1)
        for _, targets, _ in self.rows.values():
            for v in targets:
                entered[v] = 1
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
        rho: (array(typecode, sorted(srcs)), array(typecode, sorted(tgts)))
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
