"""String-labeled automata in Wheeler order.

An automaton here is a GNFA whose edges carry arbitrary byte strings,
including the empty string.  States are identified with the integers
1..n and the numbering itself is the claimed Wheeler order: state 1 is
the initial state by construction, which is axiom 2, and the other three
Wheeler axioms are stated against this numbering.
The order on labels is co-lexicographic: strings are compared from the
right, and a proper suffix sorts before every string it is a suffix of.

Byte 0x01 is reserved as the sentinel used for membership queries and
may not appear in input labels; byte 0x00 is reserved for framing in
the serialized index and is likewise rejected.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable

SENTINEL = 0x01
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

    The numbering is the (claimed) Wheeler order and state 1 is the
    initial state; nothing here checks the axioms, see validate().
    Parallel edges and repeated triples are allowed, so `edges` is a
    multiset in tuple form.
    """

    state_count: int
    edges: tuple[Edge, ...]
    finals: frozenset[int]

    def __post_init__(self) -> None:
        n = self.state_count
        if n < 1:
            raise GnfaFormatError("automaton needs at least one state")
        for u, v, rho in self.edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GnfaFormatError(f"edge ({u},{v}) out of range 1..{n}")
        for q in self.finals:
            if not 1 <= q <= n:
                raise GnfaFormatError(f"final state {q} out of range 1..{n}")

    @cached_property
    def max_label_len(self) -> int:
        return max((len(rho) for _, _, rho in self.edges), default=0)


# ---------------------------------------------------------------------------
# Text format
#
#   gnfa 1
#   states <n>
#   initial 1
#   final <q> [<q> ...]
#   edge <src> <dst> <label>
#
# '#' starts a comment line and blank lines are skipped.  A label token
# is its own bytes but for '@e', the empty label, and \xNN, the byte NN;
# any other backslash is an error.  Labels are written with bytes
# 0x21-0x7e but the backslash as themselves, every other byte as \xNN,
# and the label '@e' as \x40e.  Lines end at LF and fields are split at
# ASCII whitespace alone (space, tab, CR, VT, FF, as bytes.split()
# does), so CRLF files parse like LF ones and every other raw byte, 0x85
# and 0xa0 included, is token content.

_ESCAPE_RE = re.compile(rb"\\(?:x([0-9a-fA-F]{2}))?")
_UNPRINTED_RE = re.compile(rb"[^\x21-\x5b\x5d-\x7e]")
# the labels spelled other than byte by byte
_SPELLED = {EPSILON: "@e", b"@e": r"\x40e"}


def _escaped_byte(m: re.Match) -> bytes:
    if m[1] is None:
        raise GnfaFormatError(f"bad escape in {m.string!r}")
    return bytes((int(m[1], 16),))


def _unescape(text: bytes) -> bytes:
    return _ESCAPE_RE.sub(_escaped_byte, text) if b"\\" in text else text


def unescape_token(token: bytes) -> bytes:
    """Decode one whitespace-free label token into raw bytes."""
    return EPSILON if token == b"@e" else _unescape(token)


def parse_patterns(data: bytes) -> list[bytes]:
    """Pattern files: one pattern per LF-terminated line, \\xNN escapes
    allowed, an empty line is the empty pattern."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    return [_unescape(line) for line in lines]


def escape_label(label: bytes) -> str:
    """Inverse of unescape_token, in the text format's spelling."""
    if label.isalnum():
        return label.decode("ascii")
    if label in _SPELLED:
        return _SPELLED[label]
    return _UNPRINTED_RE.sub(lambda m: b"\\x%02x" % ord(m[0]), label).decode("ascii")


def _check_label_bytes(label: bytes, lineno: int) -> None:
    if SENTINEL in label:
        raise SentinelInLabelError(f"line {lineno}: reserved sentinel byte 0x01 in label")
    if 0x00 in label:
        raise SentinelInLabelError(f"line {lineno}: reserved framing byte 0x00 in label")


def parse_gnfa(text: str | bytes) -> GeneralizedAutomaton:
    """Parse the line-oriented text format into an automaton.

    A str is read as latin-1 bytes.  Raises GnfaFormatError for
    malformed input, reserved bytes in labels (SentinelInLabelError),
    out-of-range states or an initial state other than 1.  The message
    names the line for a malformed line, an unknown directive or a bad
    label; out-of-range states, which GeneralizedAutomaton checks, a
    wrong initial state and missing lines come without one.
    """
    if isinstance(text, str):
        try:
            text = text.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise GnfaFormatError(f"non byte character {exc.object[exc.start]!r}") from None

    state_count: int | None = None
    initial: int | None = None
    finals: set[int] = set()
    edges: list[Edge] = []
    labels: dict[bytes, bytes] = {}  # token -> its decoded, checked label
    saw_header = False

    for lineno, raw in enumerate(text.split(b"\n"), start=1):
        fields = raw.split()
        if not fields:
            continue
        kind = fields[0]
        try:
            # nearly every line is an edge; the states come before the
            # label, and a token's first line is the one a bad label names
            if kind == b"edge" and saw_header:
                _, u, v, token = fields
                u, v = int(u), int(v)
                rho = labels.get(token)
                if rho is None:
                    rho = unescape_token(token)
                    _check_label_bytes(rho, lineno)
                    labels[token] = rho
                edges.append((u, v, rho))
            elif kind.startswith(b"#"):
                continue
            elif not saw_header:
                if fields != [b"gnfa", b"1"]:
                    raise GnfaFormatError(f"line {lineno}: expected header 'gnfa 1'")
                saw_header = True
            elif kind == b"states":
                (state_count,) = map(int, fields[1:])
            elif kind == b"initial":
                (initial,) = map(int, fields[1:])
            elif kind == b"final":
                finals.update(map(int, fields[1:]))
            else:
                name = kind.decode("latin-1")
                raise GnfaFormatError(f"line {lineno}: unknown directive {name!r}")
        except GnfaFormatError:
            raise
        except ValueError:
            name = kind.decode("latin-1")
            raise GnfaFormatError(f"line {lineno}: malformed {name!r} line") from None

    if not saw_header:
        raise GnfaFormatError("missing 'gnfa 1' header")
    if state_count is None:
        raise GnfaFormatError("missing 'states' line")
    if initial is None:
        raise GnfaFormatError("missing 'initial' line")
    if initial != 1:
        raise GnfaFormatError(f"initial state must be 1, got {initial}")
    return GeneralizedAutomaton(
        state_count=state_count, edges=tuple(edges), finals=frozenset(finals)
    )


def format_gnfa(a: GeneralizedAutomaton) -> str:
    """Render an automaton back into the text format."""
    lines = ["gnfa 1", f"states {a.state_count}", "initial 1"]
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
            and self.axiom3_ok
            and self.axiom4_ok
            and self.axiom1_verdict != "failed"
        )

    def lines(self) -> list[str]:
        out = [
            f"reachable\t{'ok' if self.reachable_ok else 'FAIL'}",
            f"coreachable\t{'ok' if self.coreachable_ok else 'FAIL'}",
            # state 1 is the initial state by construction
            "axiom2\tok",
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


def _reachable_from(adj: list[list[int]], start: Iterable[int]) -> set[int]:
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
    found[1].add(EPSILON)
    total = 1
    todo = deque([(1, EPSILON)])
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


def suffix_block_end(rev: bytes, r: int) -> bytes:
    """End of the block of reversed labels of at most r bytes that start
    with rev: such a label starts with rev iff rev <= it <= this end."""
    return rev + b"\xff" * r


def _first_axiom34_violation(
    edges: Iterable[Edge],
) -> tuple[int, tuple[Edge, Edge] | None]:
    """The first pair (i, j) of the stable by-target edge order with
    target i < target j that breaks axiom 3 or 4, as (axiom, pair);
    (0, None) when no pair does.

    Edge i breaks axiom 3 against j iff rev(label i) is above
    suffix_block_end(rev(label j), r), r the longest label: label i is
    co-lex above label j and does not end with it.  (Strictly above: r
    0xff bytes end with the empty label and equal its block end.)  It
    breaks axiom 4 iff the labels are equal and i has the larger source.
    So i breaks one of them against some edge into a larger target iff
    it does against the least block end over those edges, or against
    the least source among those of its label.  One right-to-left walk
    keeps both, folding each target group in once it is passed; the last
    edge found to break them is the smallest i, and a forward scan from
    it finds its first j.
    """
    by_target = sorted(edges, key=itemgetter(1))
    m = len(by_target)
    labels = {rho for _, _, rho in by_target}
    r = max(map(len, labels), default=0)
    keys = {rho: (rho[::-1], suffix_block_end(rho[::-1], r)) for rho in labels}
    least_end = b"\xff" * (r + 1)  # above every block end
    least_src: dict[bytes, int] = {}
    first = m
    group_target, hi = None, m  # of the group walked last, not yet folded in
    for i in range(m - 1, -1, -1):
        src, v, rho = by_target[i]
        if v != group_target:
            for k in range(i + 1, hi):
                src_k, _, rho_k = by_target[k]
                end = keys[rho_k][1]
                if end < least_end:
                    least_end = end
                if src_k < least_src.get(rho_k, src_k + 1):
                    least_src[rho_k] = src_k
            group_target, hi = v, i + 1
        if keys[rho][0] > least_end or src > least_src.get(rho, src):
            first = i

    if first == m:
        return 0, None
    e1 = by_target[first]
    rev = keys[e1[2]][0]
    for j in range(first + 1, m):
        e2 = by_target[j]
        if e2[1] == e1[1]:
            continue
        if rev > keys[e2[2]][1]:
            return 3, (e1, e2)
        if e2[2] == e1[2] and e1[0] > e2[0]:
            return 4, (e1, e2)
    raise AssertionError("the walk found an edge the scan does not")


def validate(a: GeneralizedAutomaton, axiom1_depth: int = 0) -> ValidationReport:
    """Check structural requirements and the Wheeler axioms.

    Axioms 3 and 4 are decided exactly, and axiom 2 holds by
    construction (state 1 is initial).  Axiom 1 quantifies over the
    (possibly infinite) incoming-string sets, so it is only probed up to
    string length `axiom1_depth`; depth 0 skips it.  A bounded pass is
    reported as "passed-bounded", a failure is definitive.

    Axioms 3 and 4 take one stable sort of the E edges by target, then
    O(E) comparisons of strings of at most 2r bytes, on every input,
    failing ones included.  At most one witness pair is reported:
    ordering the edges stably by target, the pair (i, j) with the
    smallest i, then the smallest j, among pairs with target i <
    target j that break axiom 3 or 4; only the axiom that pair breaks
    is marked failed.  Reachability is linear, and the axiom-1 probe
    costs what its depth allows.
    """
    n = a.state_count
    fwd: list[list[int]] = [[] for _ in range(n + 1)]
    rev: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v, _ in a.edges:
        fwd[u].append(v)
        rev[v].append(u)
    reach = _reachable_from(fwd, [1])
    coreach = _reachable_from(rev, a.finals)
    reachable_ok = len(reach) == n
    coreachable_ok = len(coreach) == n

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
        axiom3_ok=axiom != 3,
        axiom4_ok=axiom != 4,
        axiom3_witness=pair if axiom == 3 else None,
        axiom4_witness=pair if axiom == 4 else None,
        axiom1_verdict=axiom1_verdict,
        axiom1_depth=axiom1_depth if axiom1_depth > 0 else 0,
        axiom1_witness=axiom1_witness,
    )
