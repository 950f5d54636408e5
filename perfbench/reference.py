"""Expected query answers for piece-trie inputs, computed without the index.

In a piece trie every state is entered by exactly one string, which a
walk from state 1 spells out.  For a nonempty pattern p the answer the
program must give is then plain string work:

* the interval is the block of states whose string ends in p, and since
  states are numbered by the co-lex order of their strings that block
  starts right after the states whose string sorts strictly below p;
* membership holds exactly when some final state's string equals p.

The module imports nothing from the program, so a defect in the index
or matcher cannot hide in the reference.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Answer:
    lo: int
    hi: int
    count: int
    accepted: bool | None  # None on an index built without the sentinel


def _prefix_upper(rev: bytes) -> bytes | None:
    """Smallest byte string above every string that starts with rev."""
    trimmed = rev.rstrip(b"\xff")
    if not trimmed:
        return None
    return trimmed[:-1] + bytes([trimmed[-1] + 1])


class PieceTrieReference:
    """Answers for one piece trie given as (n, edges, finals, initial=1)."""

    def __init__(self, n: int, edges, finals, sentinel: bool):
        self.strings = incoming_strings(n, edges)
        rev = [s[::-1] for s in self.strings[1:]]
        if any(rev[i] >= rev[i + 1] for i in range(len(rev) - 1)):
            raise ValueError("states are not numbered in co-lex order of their strings")
        self._rev = rev
        self._finals = {self.strings[q] for q in finals}
        self.sentinel = sentinel

    def answer(self, pattern: bytes) -> Answer:
        if not pattern:
            raise ValueError("the reference covers nonempty patterns only")
        rp = pattern[::-1]
        below = bisect_left(self._rev, rp)
        upper = _prefix_upper(rp)
        end = len(self._rev) if upper is None else bisect_left(self._rev, upper)
        accepted = (pattern in self._finals) if self.sentinel else None
        return Answer(lo=below + 1, hi=end, count=end - below, accepted=accepted)


def incoming_strings(n: int, edges) -> list[bytes]:
    """The one string entering each state (entry 0 unused).

    Raises ValueError when a state is unreachable or entered by two
    different strings, i.e. when the input is not a piece trie.
    """
    out_adj: list[list[tuple[int, bytes]]] = [[] for _ in range(n + 1)]
    for u, v, rho in edges:
        out_adj[u].append((v, rho))
    strings: list[bytes | None] = [None] * (n + 1)
    strings[1] = b""
    todo = deque([1])
    while todo:
        u = todo.popleft()
        for v, rho in out_adj[u]:
            s = strings[u] + rho
            if strings[v] is None:
                strings[v] = s
                todo.append(v)
            elif strings[v] != s:
                raise ValueError(f"state {v} is entered by two strings")
    if any(s is None for s in strings[1:]):
        raise ValueError("some state is unreachable from state 1")
    strings[0] = b""
    return strings  # type: ignore[return-value]


def tsv_line(pattern: bytes, ans: Answer) -> str:
    """The row `wgnfa query` prints for this answer (patterns are printable)."""
    states = ",".join(map(str, range(ans.lo, ans.hi + 1)))
    acc = "-" if ans.accepted is None else ("1" if ans.accepted else "0")
    return f"{pattern.decode('ascii')}\t{ans.lo}\t{ans.hi}\t{ans.count}\t{states}\t{acc}"


def count_wrong_lines(expected: list[str], got: list[str]) -> int:
    """Rows that differ, plus rows missing from or added to the output."""
    wrong = sum(1 for e, g in zip(expected, got) if e != g)
    return wrong + abs(len(expected) - len(got))
