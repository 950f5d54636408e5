"""Agreement checks between the index path and the brute-force path.

Every pattern is pushed through both, the index path as `wgnfa query`
runs it (match_patterns, a sorted walk that resumes shared prefixes);
besides raw equality this also asserts the structural facts the whole
design rests on, namely that the matching states always form one
contiguous block placed directly after the strictly-below block, and
that intervals on a sentinel index are the plain intervals shifted by
the extra lead state.
"""

from __future__ import annotations

from .closure import build_closure_arrays
from .index import build_index
from .matcher import match_patterns
from .model import GeneralizedAutomaton, escape_label
from .oracle import (
    ShapeViolation,
    brute_accepts,
    brute_below_count,
    brute_closure,
    brute_match,
)


def crosscheck_instance(a: GeneralizedAutomaton, patterns: list[bytes]) -> list[str]:
    """Returns divergence descriptions; an empty list means agreement."""
    problems: list[str] = []
    ix = build_index(a)
    ixs = build_index(a, with_sentinel=True)
    n = a.state_count

    arrays = build_closure_arrays(a)
    ref_max, ref_min = brute_closure(a)
    if arrays.a_max != ref_max:
        problems.append("closure a_max disagrees with brute-force search")
    if arrays.a_min != ref_min:
        problems.append("closure a_min disagrees with brute-force search")

    answers = zip(patterns, match_patterns(ix, patterns), match_patterns(ixs, patterns))
    for p, (lo, hi, _, _), (lo_s, hi_s, _, accepted) in answers:
        tag = escape_label(p)
        if p == b"" and (lo, hi) != (1, n):
            problems.append(f"{tag}: empty pattern gave {lo}..{hi}, not 1..{n}")
            continue

        expected = brute_match(a, p)
        try:
            below = brute_below_count(a, p)
        except ShapeViolation as exc:
            problems.append(f"{tag}: {exc}")
            continue

        block = list(range(below + 1, below + 1 + len(expected)))
        if sorted(expected) != block:
            problems.append(
                f"{tag}: oracle states {sorted(expected)} are not the block "
                f"{below + 1}..{below + len(expected)}"
            )
            continue
        if list(range(lo, hi + 1)) != block:
            problems.append(
                f"{tag}: interval {lo}..{hi} but oracle block "
                f"{below + 1}..{below + len(expected)}"
            )

        if (lo_s, hi_s) != (lo, hi):
            problems.append(
                f"{tag}: sentinel interval {lo_s}..{hi_s} differs from plain {lo}..{hi}"
            )
        if accepted != brute_accepts(a, p):
            problems.append(f"{tag}: membership {accepted} vs brute {not accepted}")
    return problems
