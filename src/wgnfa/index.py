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

The structures behind these are deliberately plain: per-label sorted
source and target arrays searched with bisect, per-length rows sorted
by reversed label with a suffix-minimum array, one global edge table
sorted the same way with a sparse table for range-maximum, and
rank/select bitvectors for finals and closure markers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .bitvec import RankSelectBits
from .closure import build_closure_arrays, build_marker_bits
from .model import (
    AutomatonSummary,
    GeneralizedAutomaton,
    augment_with_sentinel,
    colex_key,
    suffix_range_upper,
)


@dataclass(frozen=True)
class LabelPostings:
    sources: tuple[int, ...]  # ascending, one entry per edge
    targets: tuple[int, ...]


class _LengthTable:
    """Rows (reversed label, target) for labels of one fixed length,
    sorted lexicographically by reversed label, then target."""

    def __init__(self, rev_labels: list[bytes], targets: list[int]):
        self.rev_labels = rev_labels
        self.targets = targets
        # suffix_min[i] = smallest target among rows i.., 0 when empty
        suffix = [0] * (len(targets) + 1)
        for i in range(len(targets) - 1, -1, -1):
            t = targets[i]
            nxt = suffix[i + 1]
            suffix[i] = t if nxt == 0 or t < nxt else nxt
        self.suffix_min = suffix


class _ColexTable:
    """All labeled edges sorted by (reversed label, target), with a
    sparse table answering range-maximum over the targets."""

    def __init__(self, rev_labels: list[bytes], targets: list[int]):
        self.rev_labels = rev_labels
        self.targets = targets
        levels = []
        if targets:
            cur = np.asarray(targets, dtype=np.int64)
            levels.append(cur)
            span = 1
            while 2 * span <= len(targets):
                cur = np.maximum(cur[: len(cur) - span], cur[span:])
                levels.append(cur)
                span *= 2
        self._levels = levels

    def range_max(self, lo: int, hi: int) -> int:
        """Maximum target among rows lo..hi-1 (0-based, hi exclusive)."""
        if lo >= hi:
            return 0
        k = (hi - lo).bit_length() - 1
        lvl = self._levels[k]
        return int(max(lvl[lo], lvl[hi - (1 << k)]))


class WheelerIndex:
    """Built via build_index() or deserialize(); states are 1..n.

    Both pass the same inputs: the state and epsilon-edge counts, the
    finals and marker bits, the dictionary (non-empty labels strictly
    increasing in co-lex order) and its postings (at least one edge per
    label, ascending sources and targets).  The summary and the length
    and co-lex edge tables are derived here and nowhere else.
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
        postings: dict[bytes, LabelPostings],
    ):
        self.sentinel_mode = sentinel_mode
        self.finals = finals
        self.b_max = b_max
        self.b_min = b_min
        self.labels = labels
        self.postings = postings

        # co-lex order is the order of reversed labels, so walking the
        # dictionary emits rows already sorted by (reversed label, target)
        by_len: dict[int, tuple[list[bytes], list[int]]] = {}
        all_rev: list[bytes] = []
        all_targets: list[int] = []
        symbols: set[int] = set()
        symbol_total = 0
        for rho in labels:
            targets = postings[rho].targets
            rows = [rho[::-1]] * len(targets)  # one shared reversed label
            revs, tgts = by_len.setdefault(len(rho), ([], []))
            revs += rows
            tgts += targets
            all_rev += rows
            all_targets += targets
            symbols.update(rho)
            symbol_total += len(rho) * len(targets)
        self._by_len = {k: _LengthTable(*cols) for k, cols in by_len.items()}
        self._colex = _ColexTable(all_rev, all_targets)
        self.summary = AutomatonSummary(
            state_count=state_count,
            edge_count=len(all_targets) + epsilon_edge_count,
            label_symbol_total=symbol_total,
            alphabet_size=len(symbols),
            max_label_len=max(by_len, default=0),
            epsilon_edge_count=epsilon_edge_count,
        )

    @property
    def n_states(self) -> int:
        return self.summary.state_count

    @property
    def r(self) -> int:
        return self.summary.max_label_len

    # -- counting ----------------------------------------------------------

    def out_count(self, label: bytes, j: int) -> int:
        """Edges labeled `label` leaving states 1..j."""
        p = self.postings.get(label)
        if p is None:
            return 0
        return bisect_right(p.sources, j)

    def in_count(self, label: bytes, j: int) -> int:
        """Edges labeled `label` entering states 1..j."""
        p = self.postings.get(label)
        if p is None:
            return 0
        return bisect_right(p.targets, j)

    # -- boundaries --------------------------------------------------------

    def max_prefix_with_in_at_most(self, label: bytes, f: int) -> int:
        """Largest j with in_count(label, j) <= f."""
        if f < 0:
            raise ValueError("count bound must be nonnegative")
        p = self.postings.get(label)
        if p is None or f >= len(p.targets):
            return self.n_states
        return p.targets[f] - 1

    def min_prefix_with_in_at_least(self, label: bytes, g: int) -> int:
        """Smallest j with in_count(label, j) >= g, for 1 <= g <= mult."""
        p = self.postings.get(label)
        if p is None or not 1 <= g <= len(p.targets):
            raise ValueError(f"no prefix receives {g} edges labeled {label!r}")
        return p.targets[g - 1]

    def min_state_with_len_k_label_ge(self, k: int, alpha: bytes) -> int | None:
        """Smallest state entered by a length-k edge whose label is
        co-lexicographically >= alpha, or None if there is none.

        Only the last min(k, len(alpha)) bytes of alpha are inspected:
        when alpha is longer than k, a length-k label ties with alpha's
        tail exactly when it is a proper suffix of alpha, and a proper
        suffix sorts strictly below, so the comparison becomes strict.
        """
        tab = self._by_len.get(k)
        if tab is None:
            return None
        if len(alpha) > k:
            i = bisect_right(tab.rev_labels, alpha[-k:][::-1])
        else:
            i = bisect_left(tab.rev_labels, alpha[::-1])
        hit = tab.suffix_min[i]
        return hit if hit else None

    def max_state_with_suffix_label(self, alpha: bytes) -> int:
        """Largest state entered by an edge whose label has alpha as a
        suffix; 0 if no edge label does (always so once |alpha| > r)."""
        if len(alpha) > self.r:
            return 0
        rev = alpha[::-1]
        ct = self._colex
        lo = bisect_left(ct.rev_labels, rev)
        upper = suffix_range_upper(rev)
        hi = len(ct.rev_labels) if upper is None else bisect_left(ct.rev_labels, upper)
        return ct.range_max(lo, hi)

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

    with_sentinel first augments the automaton with a fresh initial
    state and a sentinel edge, which is what membership queries need.
    Raises EpsilonCycleError if the epsilon edges are cyclic.
    """
    if with_sentinel:
        a = augment_with_sentinel(a)
    n = a.state_count
    closure = build_closure_arrays(a)
    markers = build_marker_bits(closure)

    per_label: dict[bytes, tuple[list[int], list[int]]] = {}
    for u, v, rho in a.labeled_edges:
        srcs, tgts = per_label.setdefault(rho, ([], []))
        srcs.append(u)
        tgts.append(v)

    labels = tuple(sorted(per_label, key=colex_key))
    postings = {
        rho: LabelPostings(tuple(sorted(srcs)), tuple(sorted(tgts)))
        for rho, (srcs, tgts) in per_label.items()
    }

    finals_bits = np.zeros(n, dtype=np.uint8)
    for q in a.finals:
        finals_bits[q - 1] = 1

    return WheelerIndex(
        state_count=n,
        epsilon_edge_count=len(a.epsilon_edges),
        sentinel_mode=with_sentinel,
        finals=RankSelectBits(finals_bits),
        b_max=RankSelectBits(markers.b_max[1:]),
        b_min=RankSelectBits(markers.b_min[1:]),
        labels=labels,
        postings=postings,
    )
