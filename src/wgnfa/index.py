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

The structures behind these are deliberately plain.  Besides the label
dictionary and its postings (per-label ascending source and target
arrays of narrow unsigned integers, searched with bisect) there are
rank/select bitvectors for the finals and the two closure markers the
epsilon edges add, each holding its packed bits and the positions of
its rarer bit (none for a marker of an epsilon-free automaton), and two
derived tables with one row per dictionary label, never one per edge:
per label length, the reversed labels with a suffix minimum over each
label's smallest target; and all reversed labels in dictionary order
with a range-maximum sparse table over each label's largest target.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate

from .bitvec import UINT_TYPECODES, RankSelectBits, uint_width
from .closure import build_closure_arrays, build_marker_bits
from .model import (
    SENTINEL,
    SENTINEL_BYTES,
    GeneralizedAutomaton,
    SentinelInLabelError,
    colex_key,
    suffix_range_upper,
)


# the postings of a label the dictionary does not hold
_NO_EDGES = ((), ())


class WheelerIndex:
    """Built via build_index() or deserialize(); states are 1..n.

    Both pass the same inputs: the state and epsilon-edge counts, the
    finals and marker bits, the dictionary (non-empty labels strictly
    increasing in co-lex order) and its postings (label -> (sources,
    targets), at least one edge per label, both ascending arrays of
    unsigned integers).  No Python object is held per edge or per
    state.

    Every other table holds one row per dictionary label, never one per
    edge.  Because the targets ascend, a label's smallest and largest
    target are targets[0] and targets[-1]; a minimum or maximum over a
    block of labels is then the same as over all their edges.  These
    rows and r, the longest label, are derived here and nowhere else.
    """

    def __init__(
        self,
        state_count: int,
        epsilon_edge_count: int,
        sentinel_mode: bool,
        finals: RankSelectBits,
        b_max: RankSelectBits,
        b_min: RankSelectBits,
        labels: tuple[bytes, ...],
        postings: dict[bytes, tuple[array, array]],
    ):
        self.n_states = state_count
        self.epsilon_edge_count = epsilon_edge_count
        self.sentinel_mode = sentinel_mode
        self.finals = finals
        self.b_max = b_max
        self.b_min = b_min
        self.labels = labels
        self.postings = postings

        # co-lex order is the order of reversed labels, so the dictionary
        # already lists the rows sorted
        self._rev = [rho[::-1] for rho in labels]
        by_len: dict[int, tuple[list[bytes], list[int]]] = {}
        for rho, rev in zip(labels, self._rev):
            revs, firsts = by_len.setdefault(len(rho), ([], []))
            revs.append(rev)
            firsts.append(postings[rho][1][0])
        # per length: reversed labels and, from each row on, the smallest
        # target of that row or any later one (None past the end)
        self._by_len = {
            k: (revs, list(accumulate(reversed(firsts), min))[::-1] + [None])
            for k, (revs, firsts) in by_len.items()
        }
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

    # -- counting ----------------------------------------------------------

    def out_count(self, label: bytes, j: int) -> int:
        """Edges labeled `label` leaving states 1..j."""
        return bisect_right(self.postings.get(label, _NO_EDGES)[0], j)

    # -- boundaries --------------------------------------------------------

    def max_prefix_with_in_at_most(self, label: bytes, f: int) -> int:
        """Largest j with at most f edges labeled `label` into states 1..j."""
        if f < 0:
            raise ValueError("count bound must be nonnegative")
        targets = self.postings.get(label, _NO_EDGES)[1]
        return targets[f] - 1 if f < len(targets) else self.n_states

    def min_prefix_with_in_at_least(self, label: bytes, g: int) -> int:
        """Smallest j with at least g `label` edges into 1..j, 1 <= g <= mult."""
        targets = self.postings.get(label, _NO_EDGES)[1]
        if not 1 <= g <= len(targets):
            raise ValueError(f"no prefix receives {g} edges labeled {label!r}")
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
        upper = suffix_range_upper(rev)
        hi = len(self._rev) if upper is None else bisect_left(self._rev, upper)
        if lo >= hi:
            return 0
        k = (hi - lo).bit_length() - 1
        level = self._max_levels[k]
        return max(level[lo], level[hi - (1 << k)])

    # -- markers and finals ------------------------------------------------

    def marker_floor(self, j: int) -> int:
        """Largest t <= j with b_max[t] set; 0 when there is none."""
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
    for u, v, rho in a.labeled_edges:
        srcs, tgts = per_label.setdefault(rho, ([], []))
        srcs.append(u + lead)
        tgts.append(v + lead)
    if any(0x00 in rho or SENTINEL in rho for rho in per_label):
        raise SentinelInLabelError("reserved byte 0x00 or 0x01 in a label")
    if with_sentinel:
        per_label[SENTINEL_BYTES] = ([1], [2])

    markers = build_marker_bits(build_closure_arrays(a))

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
        epsilon_edge_count=len(a.epsilon_edges),
        sentinel_mode=with_sentinel,
        finals=RankSelectBits(bytes(finals_bits)),
        b_max=RankSelectBits(b"\x01" * lead + markers.b_max[1:]),
        b_min=RankSelectBits(b"\x01" * lead + markers.b_min[1:]),
        labels=labels,
        postings=postings,
    )
