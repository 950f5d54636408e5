"""String-labeled automata in Wheeler order.

An automaton here is a GNFA whose edges carry arbitrary byte strings,
including the empty string.  States are identified with the integers
1..n and the numbering itself is the claimed Wheeler order: state 1 is
initial, and the four Wheeler axioms are stated against this numbering.
The order on labels is co-lexicographic: strings are compared from the
right, and a proper suffix sorts before every string it is a suffix of.

Byte 0x01 is reserved as the sentinel used for membership queries and
may not appear in input labels; byte 0x00 is reserved for framing in
the serialized index and is likewise rejected.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable

SENTINEL = 0x01
SENTINEL_BYTES = bytes([SENTINEL])
EPSILON = b""

Edge = tuple[int, int, bytes]


class GnfaFormatError(ValueError):
    """Raised for malformed automaton text (bad syntax or bad values)."""


class SentinelInLabelError(GnfaFormatError):
    """Raised when a label uses one of the reserved bytes 0x00 / 0x01."""


def colex_key(x: bytes) -> bytes:
    """Sort key realizing the co-lexicographic order.

    Reading right to left, the first differing byte decides; if one
    string is exhausted first it is the smaller one.  Equivalently,
    compare the reversed strings lexicographically.
    """
    return x[::-1]


@dataclass(frozen=True)
class GeneralizedAutomaton:
    """A string-labeled automaton with states pre-numbered 1..n.

    The numbering is the (claimed) Wheeler order; nothing here checks
    the axioms, see validate().  Parallel edges and repeated triples
    are allowed, so `edges` is a multiset in tuple form.
    """

    state_count: int
    edges: tuple[Edge, ...]
    finals: frozenset[int]
    initial: int = 1

    def __post_init__(self) -> None:
        n = self.state_count
        if n < 1:
            raise GnfaFormatError("automaton needs at least one state")
        if not 1 <= self.initial <= n:
            raise GnfaFormatError(f"initial state {self.initial} out of range 1..{n}")
        for u, v, rho in self.edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GnfaFormatError(f"edge ({u},{v}) out of range 1..{n}")
        for q in self.finals:
            if not 1 <= q <= n:
                raise GnfaFormatError(f"final state {q} out of range 1..{n}")

    @cached_property
    def max_label_len(self) -> int:
        return max((len(rho) for _, _, rho in self.edges), default=0)

    @cached_property
    def epsilon_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e[2] == EPSILON)

    @cached_property
    def labeled_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e[2] != EPSILON)


# ---------------------------------------------------------------------------
# Text format
#
#   gnfa 1
#   states <n>
#   initial 1
#   final <q> [<q> ...]
#   edge <src> <dst> <label>
#
# '#' starts a comment line, blank lines are skipped, '@e' denotes the
# empty label, and arbitrary bytes can be written as \xNN escapes
# (write a literal backslash as \x5c).

_ESCAPE_RE = re.compile(r"\\x([0-9a-fA-F]{2})|\\(.?)")


def _unescape(token: str) -> bytes:
    out = bytearray()
    pos = 0
    while pos < len(token):
        ch = token[pos]
        if ch == "\\":
            m = _ESCAPE_RE.match(token, pos)
            if m is None or m.group(1) is None:
                raise GnfaFormatError(f"bad escape in {token!r}")
            out.append(int(m.group(1), 16))
            pos = m.end()
        else:
            b = ord(ch)
            if b > 0xFF:
                raise GnfaFormatError(f"non byte character in {token!r}")
            out.append(b)
            pos += 1
    return bytes(out)


def unescape_token(token: str) -> bytes:
    """Decode one whitespace-free label token into raw bytes."""
    if token == "@e":
        return EPSILON
    return _unescape(token)


def parse_patterns(data: bytes) -> list[bytes]:
    """Pattern files: one pattern per LF-terminated line, \\xNN escapes
    allowed, an empty line is the empty pattern."""
    text = data.decode("latin-1")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [_unescape(line) for line in lines]


def escape_label(label: bytes) -> str:
    """Inverse of unescape_token; printable bytes pass through."""
    if label == EPSILON:
        return "@e"
    parts = []
    for b in label:
        if 0x21 <= b <= 0x7E and b != 0x5C:
            parts.append(chr(b))
        else:
            parts.append(f"\\x{b:02x}")
    return "".join(parts)


def _check_label_bytes(label: bytes, lineno: int) -> None:
    if SENTINEL in label:
        raise SentinelInLabelError(f"line {lineno}: reserved sentinel byte 0x01 in label")
    if 0x00 in label:
        raise SentinelInLabelError(f"line {lineno}: reserved framing byte 0x00 in label")


def parse_gnfa(text: str | bytes) -> GeneralizedAutomaton:
    """Parse the line-oriented text format into an automaton.

    Raises GnfaFormatError with a line number for malformed input,
    out-of-range states, reserved bytes in labels, or an initial state
    other than 1.
    """
    if isinstance(text, bytes):
        text = text.decode("latin-1")

    state_count: int | None = None
    initial: int | None = None
    finals: set[int] = set()
    edges: list[Edge] = []
    saw_header = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if not saw_header:
            if fields != ["gnfa", "1"]:
                raise GnfaFormatError(f"line {lineno}: expected header 'gnfa 1'")
            saw_header = True
            continue
        kind = fields[0]
        try:
            if kind == "states":
                (state_count,) = map(int, fields[1:])
            elif kind == "initial":
                (initial,) = map(int, fields[1:])
            elif kind == "final":
                finals.update(map(int, fields[1:]))
            elif kind == "edge":
                if len(fields) != 4:
                    raise ValueError
                u, v = int(fields[1]), int(fields[2])
                rho = unescape_token(fields[3])
                _check_label_bytes(rho, lineno)
                edges.append((u, v, rho))
            else:
                raise GnfaFormatError(f"line {lineno}: unknown directive {kind!r}")
        except GnfaFormatError:
            raise
        except ValueError:
            raise GnfaFormatError(f"line {lineno}: malformed {kind!r} line") from None

    if not saw_header:
        raise GnfaFormatError("missing 'gnfa 1' header")
    if state_count is None:
        raise GnfaFormatError("missing 'states' line")
    if initial is None:
        raise GnfaFormatError("missing 'initial' line")
    if initial != 1:
        raise GnfaFormatError(f"initial state must be 1, got {initial}")
    try:
        return GeneralizedAutomaton(
            state_count=state_count,
            edges=tuple(edges),
            finals=frozenset(finals),
            initial=initial,
        )
    except GnfaFormatError as exc:
        raise GnfaFormatError(str(exc)) from None


def format_gnfa(a: GeneralizedAutomaton, comment: str | None = None) -> str:
    """Render an automaton back into the text format."""
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}" if row else "#")
    lines.append("gnfa 1")
    lines.append(f"states {a.state_count}")
    lines.append(f"initial {a.initial}")
    if a.finals:
        lines.append("final " + " ".join(str(q) for q in sorted(a.finals)))
    for u, v, rho in a.edges:
        lines.append(f"edge {u} {v} {escape_label(rho)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ValidationReport:
    reachable_ok: bool
    coreachable_ok: bool
    axiom2_ok: bool
    axiom3_ok: bool
    axiom4_ok: bool
    axiom3_witness: tuple[Edge, Edge] | None
    axiom4_witness: tuple[Edge, Edge] | None
    # "skipped" (depth 0), "passed-bounded", or "failed"
    axiom1_verdict: str
    axiom1_depth: int
    axiom1_witness: tuple[int, int, bytes, bytes] | None

    @property
    def ok(self) -> bool:
        return (
            self.reachable_ok
            and self.coreachable_ok
            and self.axiom2_ok
            and self.axiom3_ok
            and self.axiom4_ok
            and self.axiom1_verdict != "failed"
        )

    def lines(self) -> list[str]:
        out = [
            f"reachable\t{'ok' if self.reachable_ok else 'FAIL'}",
            f"coreachable\t{'ok' if self.coreachable_ok else 'FAIL'}",
            f"axiom2\t{'ok' if self.axiom2_ok else 'FAIL'}",
        ]
        if self.axiom3_ok:
            out.append("axiom3\tok")
        else:
            e1, e2 = self.axiom3_witness  # type: ignore[misc]
            out.append(f"axiom3\tFAIL\t{_edge_str(e1)}\t{_edge_str(e2)}")
        if self.axiom4_ok:
            out.append("axiom4\tok")
        else:
            e1, e2 = self.axiom4_witness  # type: ignore[misc]
            out.append(f"axiom4\tFAIL\t{_edge_str(e1)}\t{_edge_str(e2)}")
        if self.axiom1_verdict == "skipped":
            out.append("axiom1\tskipped")
        elif self.axiom1_verdict == "passed-bounded":
            out.append(f"axiom1\tok\tdepth={self.axiom1_depth}")
        else:
            u, v, alpha, beta = self.axiom1_witness  # type: ignore[misc]
            out.append(
                f"axiom1\tFAIL\tstates {u}<{v}\t"
                f"{escape_label(alpha)} !< {escape_label(beta)}"
            )
        return out


def _edge_str(e: Edge) -> str:
    return f"({e[0]},{e[1]},{escape_label(e[2])})"


def _reachable_from(n: int, adj: list[list[int]], start: Iterable[int]) -> set[int]:
    seen = set(start)
    todo = deque(seen)
    while todo:
        u = todo.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def incoming_strings(
    a: GeneralizedAutomaton, max_len: int, budget: int | None = None
) -> list[set[bytes]] | None:
    """All strings of length <= max_len read from the initial state.

    Returns a list indexed by state (entry 0 unused).  Walks are
    deduplicated on (state, string) pairs, so epsilon cycles terminate.
    With a budget, gives up and returns None once more than that many
    pairs have been enumerated; callers that want complete sets use
    this to bail out of instances with too many distinct walks.
    """
    out_adj: list[list[tuple[int, bytes]]] = [[] for _ in range(a.state_count + 1)]
    for u, v, rho in a.edges:
        out_adj[u].append((v, rho))
    found: list[set[bytes]] = [set() for _ in range(a.state_count + 1)]
    found[a.initial].add(EPSILON)
    total = 1
    todo = deque([(a.initial, EPSILON)])
    while todo:
        u, alpha = todo.popleft()
        for v, rho in out_adj[u]:
            beta = alpha + rho
            if len(beta) > max_len or beta in found[v]:
                continue
            found[v].add(beta)
            total += 1
            if budget is not None and total > budget:
                return None
            todo.append((v, beta))
    return found


def axiom1_over_sets(
    inc: list[set[bytes]],
) -> tuple[str, tuple[int, int, bytes, bytes] | None]:
    """Pairwise order check over given per-state incoming-string sets.

    For states u < v with sets X, Y and Z = X & Y, the required pair
    comparisons reduce to two max/min conditions: every string of X
    outside Z must precede all of Y, and every string of Z must precede
    all of Y outside Z.  Pairs drawn entirely from Z are exempt, which
    is what lets distinct states share incoming strings.
    """
    maxed = [max(s, key=colex_key) if s else None for s in inc]
    mined = [min(s, key=colex_key) if s else None for s in inc]
    n = len(inc) - 1
    for u in range(1, n + 1):
        X = inc[u]
        for v in range(u + 1, n + 1):
            Y = inc[v]
            if not X or not Y:
                continue
            Z = X & Y
            if not Z:
                hi, lo = maxed[u], mined[v]
                if colex_key(hi) >= colex_key(lo):  # type: ignore[arg-type]
                    return "failed", (u, v, hi, lo)  # type: ignore[return-value]
                continue
            XmZ = X - Z
            if XmZ:
                hi = max(XmZ, key=colex_key)
                lo = mined[v]
                if colex_key(hi) >= colex_key(lo):  # type: ignore[arg-type]
                    return "failed", (u, v, hi, lo)  # type: ignore[return-value]
            YmZ = Y - Z
            if YmZ:
                hi = max(Z, key=colex_key)
                lo = min(YmZ, key=colex_key)
                if colex_key(hi) >= colex_key(lo):
                    return "failed", (u, v, hi, lo)
    return "passed-bounded", None


def suffix_range_upper(rev: bytes) -> bytes | None:
    """Smallest string above every string that starts with rev.

    In reversed-label order the labels ending in a given string form
    one contiguous block; this is where that block ends.  Returns None
    when the block extends to the end of the order (rev is empty or all
    0xff).
    """
    trimmed = rev.rstrip(b"\xff")
    if not trimmed:
        return None
    return trimmed[:-1] + bytes([trimmed[-1] + 1])


def _first_axiom34_violation(
    edges: Iterable[Edge],
) -> tuple[int, tuple[Edge, Edge] | None]:
    """The first pair (i, j) of the stable by-target edge order with
    target i < target j that breaks axiom 3 or 4, as (axiom, pair);
    (0, None) when no pair does.

    Edge i breaks axiom 3 against j iff rev(label i) is at least
    suffix_range_upper(rev(label j)): label i is co-lex above label j
    and does not end with it.  It breaks axiom 4 iff the labels are
    equal and i has the larger source.  The prefix maximum of reversed
    labels and, per label, the running maximum source are monotone, so
    bisecting them below j's target group gives every j its smallest
    partner i.  A scan from the smallest of those finds its first j.
    """
    by_target = sorted(edges, key=lambda e: e[1])
    m = len(by_target)
    targets = [v for _, v, _ in by_target]
    revs = [rho[::-1] for _, _, rho in by_target]
    uppers = [suffix_range_upper(rev) for rev in revs]
    prefix_max = list(accumulate(revs, max))
    positions: dict[bytes, list[int]] = {}
    for j, (_, _, rho) in enumerate(by_target):
        positions.setdefault(rho, []).append(j)
    max_source = {
        rho: list(accumulate((by_target[j][0] for j in pos), max))
        for rho, pos in positions.items()
    }

    first = m  # smallest i of any violating pair so far
    for j, (src, v, rho) in enumerate(by_target):
        hi = min(first, bisect_left(targets, v))  # candidates i < hi
        if uppers[j] is not None:
            i = bisect_left(prefix_max, uppers[j], 0, hi)
            if i < hi:
                first = hi = i
        pos = positions[rho]
        below = bisect_left(pos, hi)
        k = bisect_right(max_source[rho], src, 0, below)
        if k < below:
            first = pos[k]

    if first == m:
        return 0, None
    e1 = by_target[first]
    for j in range(first + 1, m):
        e2 = by_target[j]
        if e2[1] == e1[1]:
            continue
        if uppers[j] is not None and revs[first] >= uppers[j]:
            return 3, (e1, e2)
        if e2[2] == e1[2] and e1[0] > e2[0]:
            return 4, (e1, e2)
    raise AssertionError("bisection found a pair the scan does not")


def validate(a: GeneralizedAutomaton, axiom1_depth: int = 0) -> ValidationReport:
    """Check structural requirements and the Wheeler axioms.

    Axioms 2, 3 and 4 are decided exactly.  Axiom 1 quantifies over the
    (possibly infinite) incoming-string sets, so it is only probed up to
    string length `axiom1_depth`; depth 0 skips it.  A bounded pass is
    reported as "passed-bounded", a failure is definitive.

    Axioms 3 and 4 take one pass over the E edges sorted by target:
    O(E log E) comparisons of labels of at most r bytes plus O(E·r)
    byte work, on every input, failing ones included.  At most one
    witness pair is reported.  Ordering the edges stably by target,
    it is the pair (i, j) with the smallest i, then the smallest j,
    among pairs with target i < target j that break axiom 3 or 4;
    only the axiom that pair breaks is marked failed.  Reachability
    is linear, and the axiom-1 probe costs what its depth allows.
    """
    n = a.state_count
    fwd: list[list[int]] = [[] for _ in range(n + 1)]
    rev: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v, _ in a.edges:
        fwd[u].append(v)
        rev[v].append(u)
    reach = _reachable_from(n, fwd, [a.initial])
    coreach = _reachable_from(n, rev, a.finals)
    reachable_ok = len(reach) == n
    coreachable_ok = len(coreach) == n

    axiom2_ok = a.initial == 1

    axiom, pair = _first_axiom34_violation(a.edges)

    if axiom1_depth > 0:
        inc = incoming_strings(a, axiom1_depth)
        assert inc is not None
        axiom1_verdict, axiom1_witness = axiom1_over_sets(inc)
    else:
        axiom1_verdict, axiom1_witness = "skipped", None

    return ValidationReport(
        reachable_ok=reachable_ok,
        coreachable_ok=coreachable_ok,
        axiom2_ok=axiom2_ok,
        axiom3_ok=axiom != 3,
        axiom4_ok=axiom != 4,
        axiom3_witness=pair if axiom == 3 else None,
        axiom4_witness=pair if axiom == 4 else None,
        axiom1_verdict=axiom1_verdict,
        axiom1_depth=axiom1_depth if axiom1_depth > 0 else 0,
        axiom1_witness=axiom1_witness,
    )
