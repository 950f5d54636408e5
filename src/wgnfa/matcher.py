"""Subpath queries against the index.

For a pattern alpha the answer is one interval of states: everything
reachable by some string ending in alpha.  The interval is pinned down
by two counters per pattern prefix,

  c[l] = number of states whose incoming strings all sort strictly
         below the length-l prefix (they form the prefix Q[1..c]),
  d[l] = c[l] plus the size of the suffixed block, i.e. the states
         with at least one incoming string ending in the prefix.

c and d are advanced one pattern symbol at a time, both in one loop
(run_steps), which looks each chunk's row up in the index once per
chunk length, passes that row to the edge count and reads the two
prefix boundaries off its targets.  The lower bound combines, for each
chunk length k up to r, a cap on how many length-k edges may enter the
candidate block (counted out of the interval already known for the l-k
prefix) with one co-lexicographic cap on the labels themselves, one
entry of the index's suffix_min (the length-r chunk's row holds it
when that chunk is a label, and one bisect finds it otherwise), then
rounds down to a closure marker.  The upper bound is pushed up past
forced edge targets and suffix-labeled edges; when nothing forces it
past c[l] the suffixed block is empty and d[l] = c[l], otherwise the
boundary rounds up to the next closure marker.  The loop keeps a
per-symbol StepRecord of these internals only when asked to trace;
interval queries run it without, and `wgnfa query --trace` runs it
again with them.

Indexes built with the sentinel carry one extra lead state, so reported
intervals are shifted back down.  Membership of P is the recursion on
0x01.P, whose suffixed block is exactly the states P enters from the
initial state.  Every string entering a state other than 1 starts with
0x01, which no label but the sentinel's holds, so no state is entered
by a string co-lexicographically in [alpha, 0x01.alpha): c(0x01.alpha)
= c(alpha) for nonempty alpha (1 for the empty one, state 1 being the
one state the empty string enters), and no label ends with 0x01.alpha,
so i* is 0 past the sentinel.  accepts thus reuses P's own c and runs
only the upper counter e[l] = d(0x01.P[:l]), with g_k > f_k read as
the chunk's g_k-th source lying above the cut.  match_interval runs
accepts only when the pattern's own block (c[m]+1..d[m], index
numbering) holds a final state: every state the pattern reaches from
the initial state lies inside it, so a block without one answers False.

Since c[l] and d[l] depend only on the first l pattern symbols (the
closure markers only round them), a batch of patterns is matched as
one walk (match_patterns): sorted, each pattern resuming from its
predecessor's counter lists cut back to their longest common prefix,
so only the symbols past it run the recursion.  A pattern equal to
the one before it reuses that answer and runs nothing.  The walk also
keeps e, cut back with c and d, so a pattern that runs accepts resumes
e from the prefix it shares with the last one that did.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .index import NO_ROW, WheelerIndex
from .model import SENTINEL, escape_label


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
    ops: int  # the recursion's index queries, a g_k taken from f_k included
    # e[0..] of the sentinel walk as far as accepts ran it (see accepts)
    e: list[int] = field(default_factory=list)

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


@dataclass(slots=True)
class QueryResult:
    lo: int
    hi: int
    count: int
    accepted: bool | None
    trace: MatchTrace


def _step_queries(r: int, steps: int) -> int:
    """Index queries steps 1..`steps` make whatever the data: 3 min(r, l-1) + r + 2 at l."""
    q = min(r, steps)
    return 3 * (q * (q - 1) // 2 + r * (steps - q)) + (r + 2) * steps


def run_steps(
    ix: WheelerIndex, pattern: bytes, trace: bool = True, resume: MatchTrace | None = None
) -> MatchTrace:
    """The raw recursion, in index numbering and with no translation.

    Each symbol advances both boundaries.  For every chunk length k up
    to min(r, l-1), f_k counts the chunk's edges leaving the strict
    interval for the l-k cut and g_k those leaving the wider one.  The
    strictly-below boundary c[l] is the tightest j that receives no
    more than f_k edges of any chunk and no edge whose label sorts at
    or above the current prefix, rounded down to a closure marker.  The
    at-or-suffixed boundary d[l] must reach the g_k-th smallest chunk
    target wherever g_k > f_k, and any edge whose whole label ends with
    the prefix; if neither pushes it past c[l] the suffixed block is
    empty and d[l] = c[l], otherwise it rounds up to the next marker.

    Each chunk's row is looked up once (NO_ROW when the chunk is not a
    dictionary label) and passed to out_count; the two prefix boundaries
    are read off its targets, the (f_k+1)-th less one (n when there is
    none) and the g_k-th.  The paper bounds j by r label-order queries,
    one per label length (min_state_with_len_k_label_ge); their minimum
    is one entry of ix.suffix_min.  Past r every label is shorter than
    the prefix, so it sorts at or above the prefix exactly when its
    reversal sorts strictly above the last r bytes reversed: the
    length-r chunk's row holds that entry when the chunk is a label,
    and a bisect_right finds it otherwise.  Within the first r symbols
    a bisect_left of the reversed prefix finds it, and the suffix query
    asks with the reversed prefix and that bisect's position, where the
    block of labels ending with the prefix starts; past r no prefix is
    a label suffix and i* is 0.

    When the l-k cuts coincide the block between them is empty and g_k
    is f_k, so out_count is asked once for that chunk.  `ops` counts
    the recursion's index queries all the same, each answer read off a
    row or taken from f_k, the r label-order queries that one entry
    answers, the suffix query past r and a marker floor that returns its
    argument as the query it stands for, so it stays a function of the
    pattern and the index.  It is counted once per run: the
    3 min(r, l-1) + r + 2 queries every step l makes, plus one per
    g_k > f_k and one per marker ceiling, which the loop counts.

    Only with `trace` is a StepRecord kept per symbol; the counters and
    the `ops` total are the same either way.

    c[l] and d[l] depend only on the first l symbols, so an untraced run
    may `resume` the untraced trace of an earlier pattern: its lists are
    cut back to the prefix the two patterns share, only the symbols past
    it are run, and `resume` itself is returned, updated in place, with
    `ops` counting the steps actually run.  A traced run starts fresh.
    """
    out_count = ix.out_count
    max_state_with_suffix_label = ix.max_state_with_suffix_label
    marker_floor = ix.marker_floor
    marker_ceiling = ix.marker_ceiling
    rows_get = ix.rows.get
    revs, suffix_min = ix.revs, ix.suffix_min
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
        del out.c[keep + 1 :], out.d[keep + 1 :], out.e[keep + 1 :]
    c, d, steps = out.c, out.d, out.steps
    ops = _step_queries(r, len(pattern))
    if keep:
        ops -= _step_queries(r, keep)
    for ell in range(keep + 1, len(pattern) + 1):
        j = n
        forced = 0
        hit = None
        if trace:
            f: dict[int, int] = {}
            g: dict[int, int] = {}
        for k in lengths if ell > r else range(1, ell):
            i = ell - k
            row = rows_get(pattern[i:ell], NO_ROW)
            cut = c[i]
            fk = out_count(row, cut)
            _, offsets, hit, base = row
            # the largest prefix that receives at most f_k of the chunk's edges
            if fk < len(offsets):
                bound = base + offsets[fk] - 1
                if bound < j:
                    j = bound
            gk = fk if d[i] == cut else out_count(row, d[i])
            # the smallest prefix that receives g_k of them
            if gk > fk:
                ops += 1
                pos = base + offsets[gk - 1]
                if pos > forced:
                    forced = pos
            if trace:
                f[k], g[k] = fk, gk
        # the smallest state a label co-lex at or above the prefix enters;
        # only within the first r symbols may a label end with the prefix
        i_star = 0
        if ell > r:
            if hit is None:
                hit = suffix_min[bisect_right(revs, pattern[ell - 1 : ell - r - 1 : -1])]
        else:
            # one bisect of the reversed prefix starts both the bound and
            # the block of labels ending with the prefix
            rev = pattern[ell - 1 :: -1]
            lo = bisect_left(revs, rev)
            hit = suffix_min[lo]
            i_star = max_state_with_suffix_label(rev, lo)
        if 0 < hit <= j:
            j = hit - 1
        t = marker_floor(j)
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
    ix: WheelerIndex, pattern: bytes, resume: MatchTrace | None = None
) -> QueryResult:
    """States reachable by some string ending in `pattern`.

    On a sentinel index the reported interval is translated back to the
    original numbering and `accepted` reports exact membership; on a
    plain index `accepted` is None.  Membership runs accepts on this
    pattern's walk only when its block, before translation, holds a
    final state, since every state the pattern reaches from the initial
    state lies in it; otherwise `accepted` is False.  The empty pattern
    consumes no symbol, so its interval is (1, n) without a step.
    `resume` is the untraced walk of an earlier pattern, which run_steps
    continues and accepts extends (see the module docstring).
    """
    if SENTINEL in pattern:
        raise SentinelInPatternError("pattern contains the reserved byte 0x01")
    trace = run_steps(ix, pattern, trace=False, resume=resume)
    lo, hi = trace.c[-1] + 1, trace.d[-1]
    accepted = None
    if ix.sentinel_mode:
        accepted = ix.finals_in(lo, hi) and accepts(ix, pattern, trace)
        lo, hi = max(lo - 1, 1), hi - 1
    count = max(0, hi - lo + 1)
    return QueryResult(lo=lo, hi=hi, count=count, accepted=accepted, trace=trace)


def match_patterns(
    ix: WheelerIndex, patterns: list[bytes]
) -> list[tuple[int, int, int, bool | None]]:
    """(lo, hi, count, accepted) of match_interval for each pattern, in
    input order, as plain tuples: the walk reuses its counter lists.

    The patterns are matched in sorted order, each resuming from the
    one before, so a prefix shared by neighbours is run once.  Sorting
    puts a repeated pattern right after its twin, and it reuses that
    answer's tuple: match_interval runs once per distinct pattern.  On
    a sentinel index accepts runs only for the distinct patterns whose
    block holds a final state, each resuming e from the last such
    pattern before it.
    """
    walk = run_steps(ix, b"", trace=False)
    answers: list = [None] * len(patterns)
    prev = answer = None
    for i in sorted(range(len(patterns)), key=patterns.__getitem__):
        pattern = patterns[i]
        if pattern != prev:
            res = match_interval(ix, pattern, walk)
            answer = (res.lo, res.hi, res.count, res.accepted)
            prev = pattern
        answers[i] = answer
    return answers


def accepts(ix: WheelerIndex, pattern: bytes, resume: MatchTrace | None = None) -> bool:
    """Exact membership of `pattern` in the automaton's language.

    Requires a sentinel index: acceptance is a final-state check on the
    suffixed block of 0x01.pattern, whose upper counters e run on top
    of the pattern's own lower counters c (see the module docstring).
    `resume` is the untraced walk of `pattern`, run (or continued) first
    when absent or of another pattern.  It keeps e, which run_steps cuts
    back with c and d, so only the symbols e does not yet cover are run.
    """
    if not ix.sentinel_mode:
        raise ValueError("membership needs an index built with the sentinel")
    if SENTINEL in pattern:
        raise SentinelInPatternError("pattern contains the reserved byte 0x01")
    if resume is None or resume.pattern != pattern:
        resume = run_steps(ix, pattern, trace=False, resume=resume)
    out_count, rows_get, marker_ceiling = ix.out_count, ix.rows.get, ix.marker_ceiling
    r, c, e = ix.r, resume.c, resume.e
    if not e:
        e.append(marker_ceiling(2))
    for ell in range(len(e), len(pattern) + 1):
        forced = 0
        for i in range(ell - r if ell > r else 0, ell):
            cut = c[i] if i else 1  # c(0x01.P[:i])
            top = e[i]
            if top != cut:
                row = rows_get(pattern[i:ell], NO_ROW)
                g = out_count(row, top)
                if g and row[0][g - 1] > cut:
                    pos = row[3] + row[1][g - 1]
                    if pos > forced:
                        forced = pos
        e.append(c[ell] if forced <= c[ell] else marker_ceiling(forced))
    return ix.finals_in((c[-1] if pattern else 1) + 1, e[-1])
