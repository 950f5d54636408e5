"""Subpath queries against the index.

For a pattern alpha the answer is one interval of states: everything
reachable by some string ending in alpha.  The interval is pinned down
by two counters per pattern prefix,

  c[l] = number of states whose incoming strings all sort strictly
         below the length-l prefix (they form the prefix Q[1..c]),
  d[l] = c[l] plus the size of the suffixed block, i.e. the states
         with at least one incoming string ending in the prefix.

c and d are advanced one pattern symbol at a time, both in one loop
(run_steps).  The lower bound combines, for each chunk length k up to
r, a cap on how many length-k edges may enter the candidate block
(counted out of the interval already known for the l-k prefix) with a
co-lexicographic cap on the labels themselves, then rounds down to a
closure marker.  The upper bound is pushed up past forced edge targets
and suffix-labeled edges; when nothing forces it past c[l] the suffixed
block is empty and d[l] = c[l], otherwise the boundary rounds up to the
next closure marker.  The loop keeps a per-symbol StepRecord of these
internals only when asked to trace; interval and membership queries
run it without, and `wgnfa query --trace` runs it again with them.

Indexes built with the sentinel carry one extra lead state, so reported
intervals are shifted back down; membership (accepts) runs the same
recursion on sentinel-prefixed input and checks for final states,
without translating.

Since c[l] and d[l] depend only on the first l pattern symbols (the
closure markers only round them), a batch of patterns is matched as
one walk (match_patterns): sorted, each pattern resuming from its
predecessor's counter lists cut back to their longest common prefix,
so only the symbols past it run the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .index import WheelerIndex
from .model import SENTINEL, SENTINEL_BYTES, escape_label


class SentinelInPatternError(ValueError):
    """Patterns may not contain the reserved byte 0x01."""


@dataclass
class StepRecord:
    ell: int
    f: dict[int, int]
    g: dict[int, int]
    j_star: int
    i_star: int
    h_star: int
    t_star: int
    c: int
    d: int


@dataclass
class MatchTrace:
    pattern: bytes
    r: int
    c: list[int]
    d: list[int]
    steps: list[StepRecord]  # empty unless run with trace
    ops: int  # index operations issued

    def dump_tsv(self) -> str:
        """One row per consumed symbol: l, prefix, f_1..f_r, g_1..g_r,
        j*, i*, h*, t*, c[l], d[l].  Dashes mark inapplicable entries."""
        rows = []
        for rec in self.steps:
            cols = [str(rec.ell), escape_label(self.pattern[: rec.ell])]
            cols += [str(rec.f[k]) if k in rec.f else "-" for k in range(1, self.r + 1)]
            cols += [str(rec.g[k]) if k in rec.g else "-" for k in range(1, self.r + 1)]
            cols += [
                str(rec.j_star),
                str(rec.i_star),
                str(rec.h_star),
                str(rec.t_star),
                str(rec.c),
                str(rec.d),
            ]
            rows.append("\t".join(cols))
        return "\n".join(rows)


@dataclass(frozen=True)
class QueryResult:
    lo: int
    hi: int
    count: int
    accepted: bool | None
    trace: MatchTrace


def run_steps(
    ix: WheelerIndex, pattern: bytes, trace: bool = True, resume: MatchTrace | None = None
) -> MatchTrace:
    """The raw recursion, in index numbering and with no translation.

    Each symbol advances both boundaries.  For every chunk length k up
    to min(r, l-1), f_k counts the chunk's edges leaving the strict
    interval for the l-k cut and g_k those leaving the wider one.  The
    strictly-below boundary c[l] is the tightest j that receives no
    more than f_k chunk edges and no length-k edge whose label sorts at
    or above the current prefix, rounded down to a closure marker.  The
    at-or-suffixed boundary d[l] must reach the g_k-th smallest chunk
    target wherever g_k > f_k, and any edge whose whole label ends with
    the prefix; if neither pushes it past c[l] the suffixed block is
    empty and d[l] = c[l], otherwise it rounds up to the next marker.

    Only with `trace` is a StepRecord kept per symbol; the counters and
    the `ops` total are the same either way.

    c[l] and d[l] depend only on the first l symbols, so an untraced run
    may `resume` the untraced trace of an earlier pattern: its lists are
    cut back to the prefix the two patterns share, only the symbols past
    it are run, and `resume` itself is returned, updated in place, with
    `ops` counting the steps actually run.  A traced run starts fresh.
    """
    out_count = ix.out_count
    max_prefix_with_in_at_most = ix.max_prefix_with_in_at_most
    min_prefix_with_in_at_least = ix.min_prefix_with_in_at_least
    min_state_with_len_k_label_ge = ix.min_state_with_len_k_label_ge
    max_state_with_suffix_label = ix.max_state_with_suffix_label
    marker_floor = ix.marker_floor
    marker_ceiling = ix.marker_ceiling
    n, r = ix.n_states, ix.r
    lengths = range(1, r + 1)
    keep = 0
    if resume is None or trace:
        out = MatchTrace(pattern=pattern, r=r, c=[0], d=[n], steps=[], ops=0)
    else:
        out = resume
        last = min(len(out.pattern), len(pattern))
        while keep < last and out.pattern[keep] == pattern[keep]:
            keep += 1
        del out.c[keep + 1 :], out.d[keep + 1 :]
    c, d, steps = out.c, out.d, out.steps
    ops = 0
    for ell in range(keep + 1, len(pattern) + 1):
        j = n
        forced = 0
        if trace:
            f: dict[int, int] = {}
            g: dict[int, int] = {}
        for k in lengths if ell > r else range(1, ell):
            chunk = pattern[ell - k : ell]
            fk = out_count(chunk, c[ell - k])
            bound = max_prefix_with_in_at_most(chunk, fk)
            if bound < j:
                j = bound
            gk = out_count(chunk, d[ell - k])
            ops += 3
            if gk > fk:
                pos = min_prefix_with_in_at_least(chunk, gk)
                ops += 1
                if pos > forced:
                    forced = pos
            if trace:
                f[k] = fk
                g[k] = gk
        # every label comparison looks at most r bytes back, and one extra
        # byte keeps the longer-than-k strictness decisions identical, so a
        # bounded tail stands in for the whole prefix at O(r) per step; a
        # tail longer than r can never be a label suffix
        prefix = pattern[ell - r - 1 : ell] if ell > r else pattern[:ell]
        for k in lengths:
            hit = min_state_with_len_k_label_ge(k, prefix)
            if hit is not None and hit - 1 < j:
                j = hit - 1
        t = marker_floor(j)
        i_star = max_state_with_suffix_label(prefix)
        ops += r + 2
        h = i_star if i_star > forced else forced
        if h <= t:
            h = top = t
        else:
            top = marker_ceiling(h)
            ops += 1
        c.append(t)
        d.append(top)
        if trace:
            steps.append(StepRecord(ell, f, g, j, i_star, h, t, c=t, d=top))
    out.pattern, out.ops = pattern, ops
    return out


def match_interval(
    ix: WheelerIndex, pattern: bytes, resume: tuple[MatchTrace, MatchTrace] | None = None
) -> QueryResult:
    """States reachable by some string ending in `pattern`.

    On a sentinel index the reported interval is translated back to the
    original numbering and `accepted` reports exact membership; on a
    plain index `accepted` is None.  The empty pattern consumes no
    symbol, so it answers (1, n) without touching the index.  `resume`
    holds the untraced traces of an earlier pattern, one for the
    interval and one for membership, which run_steps then continues.
    """
    if SENTINEL in pattern:
        raise SentinelInPatternError("pattern contains the reserved byte 0x01")
    walk, sentinel_walk = resume or (None, None)
    trace = run_steps(ix, pattern, trace=False, resume=walk)
    lo, hi = trace.c[-1] + 1, trace.d[-1]
    if ix.sentinel_mode:
        lo, hi = max(lo - 1, 1), hi - 1
    count = max(0, hi - lo + 1)
    accepted = accepts(ix, pattern, sentinel_walk) if ix.sentinel_mode else None
    return QueryResult(lo=lo, hi=hi, count=count, accepted=accepted, trace=trace)


def match_patterns(
    ix: WheelerIndex, patterns: list[bytes]
) -> list[tuple[int, int, int, bool | None]]:
    """(lo, hi, count, accepted) of match_interval for each pattern, in
    input order, as plain tuples: the walk reuses its counter lists.

    The patterns are matched in sorted order, each resuming from the
    one before, so a prefix shared by neighbours is run once.
    """
    walk = (run_steps(ix, b"", trace=False), run_steps(ix, b"", trace=False))
    answers: list = [None] * len(patterns)
    for i in sorted(range(len(patterns)), key=patterns.__getitem__):
        res = match_interval(ix, patterns[i], walk)
        answers[i] = (res.lo, res.hi, res.count, res.accepted)
    return answers


def accepts(ix: WheelerIndex, pattern: bytes, resume: MatchTrace | None = None) -> bool:
    """Exact membership of `pattern` in the automaton's language.

    Requires a sentinel index: the recursion runs on the pattern with
    the sentinel prepended, whose suffixed block is exactly the set of
    states whose incoming strings equal the pattern, and acceptance is
    a final-state check on that block.  `resume` is an untraced trace
    of an earlier sentinel-prefixed pattern, continued as in run_steps.
    """
    if not ix.sentinel_mode:
        raise ValueError("membership needs an index built with the sentinel")
    if SENTINEL in pattern:
        raise SentinelInPatternError("pattern contains the reserved byte 0x01")
    trace = run_steps(ix, SENTINEL_BYTES + pattern, trace=False, resume=resume)
    return ix.finals_in(trace.c[-1] + 1, trace.d[-1])
