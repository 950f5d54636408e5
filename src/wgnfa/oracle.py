"""Brute-force reference answers for everything the index computes.

Nothing here touches the index machinery.  String labels are expanded
into chains of single-symbol edges and every question is answered by
explicit graph search, so these routines are slow but obviously
correct, and the fast path is tested against them.

The one non-obvious piece is brute_below_count: it counts states whose
incoming strings all sort strictly below a query string.  Incoming
strings are compared co-lexicographically, i.e. from the right, which
is exactly the order in which a backward walk from a state towards the
initial state spells them out.  So the walk is run on the product of
the expanded automaton with a small comparator automaton that consumes
symbols right-to-left and settles whether the spelled string ends up
below, equal to, or above the query.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .model import EPSILON, GeneralizedAutomaton


class ShapeViolation(AssertionError):
    """The strictly-below states do not form a prefix of the numbering,
    so the claimed Wheeler order is wrong for this instance."""


class _Expansion:
    """Character-level view of an automaton.

    Nodes 1..n_orig are the original states; every label of length
    L > 1 contributes L-1 fresh interior nodes numbered above n_orig.
    """

    def __init__(self, a: GeneralizedAutomaton):
        self.n_orig = a.state_count
        nodes = a.state_count
        sym_edges: list[tuple[int, int, int]] = []
        eps_edges: list[tuple[int, int]] = []
        for u, v, rho in a.edges:
            if rho == EPSILON:
                eps_edges.append((u, v))
            elif len(rho) == 1:
                sym_edges.append((u, v, rho[0]))
            else:
                prev = u
                for b in rho[:-1]:
                    nodes += 1
                    sym_edges.append((prev, nodes, b))
                    prev = nodes
                sym_edges.append((prev, v, rho[-1]))
        self.n_nodes = nodes
        self.sym_edges = sym_edges
        self.eps_edges = eps_edges
        self.by_sym: list[dict[int, list[int]]] = [dict() for _ in range(nodes + 1)]
        self.eps_fwd: list[list[int]] = [[] for _ in range(nodes + 1)]
        for xs, xd, sym in sym_edges:
            self.by_sym[xs].setdefault(sym, []).append(xd)
        for xs, xd in eps_edges:
            self.eps_fwd[xs].append(xd)

    def eps_close(self, states: set[int]) -> set[int]:
        out = set(states)
        todo = deque(states)
        while todo:
            x = todo.popleft()
            for y in self.eps_fwd[x]:
                if y not in out:
                    out.add(y)
                    todo.append(y)
        return out

    def advance(self, states: set[int], sym: int) -> set[int]:
        out: set[int] = set()
        for x in states:
            hits = self.by_sym[x].get(sym)
            if hits:
                out.update(hits)
        return self.eps_close(out)


@lru_cache(maxsize=512)
def _expand(a: GeneralizedAutomaton) -> _Expansion:
    return _Expansion(a)


def brute_match(a: GeneralizedAutomaton, alpha: bytes) -> set[int]:
    """Original states reachable by a path whose string ends in alpha.

    A matching suffix may begin in the middle of a label, so the sweep
    starts from every expanded node (all of them lie on some path from
    the initial state, given the standing reachability assumption).
    """
    exp = _expand(a)
    live = set(range(1, exp.n_nodes + 1))
    for sym in alpha:
        live = exp.advance(live, sym)
        if not live:
            break
    return {x for x in live if x <= exp.n_orig}


def brute_below_count(a: GeneralizedAutomaton, alpha: bytes) -> int:
    """Number of states whose incoming strings all sort strictly below
    alpha; raises ShapeViolation if those states are not 1..c.
    """
    if alpha == EPSILON:
        return 0
    exp = _expand(a)
    m = len(alpha)
    rev = alpha[::-1]
    GT, LT = m + 1, m + 2
    width = m + 3

    delta = []
    for q in range(m):
        pivot = rev[q]
        delta.append([q + 1 if x == pivot else (GT if x > pivot else LT) for x in range(256)])
    delta.append([GT] * 256)  # q == m: extra symbols make it a proper suffix
    delta.append([GT] * 256)
    delta.append([LT] * 256)

    # product node (x, q) encoded as x*width + q; edges point opposite
    # to the backward walk so one forward BFS from the accepting nodes
    # finds every (x, q) from which acceptance is reachable
    size = (exp.n_nodes + 1) * width
    rev_adj: list[list[int]] = [[] for _ in range(size)]
    for xs, xd, sym in exp.sym_edges:
        base_d = xd * width
        base_s = xs * width
        for q in range(width):
            rev_adj[base_s + delta[q][sym]].append(base_d + q)
    for xs, xd in exp.eps_edges:
        base_d = xd * width
        base_s = xs * width
        for q in range(width):
            rev_adj[base_s + q].append(base_d + q)

    seen = bytearray(size)
    todo = deque()
    for q in (m, GT):
        node = width + q  # (x, q) at x = 1, the initial state
        seen[node] = 1
        todo.append(node)
    while todo:
        cur = todo.popleft()
        for nxt in rev_adj[cur]:
            if not seen[nxt]:
                seen[nxt] = 1
                todo.append(nxt)

    below = [u for u in range(1, a.state_count + 1) if not seen[u * width]]
    if below != list(range(1, len(below) + 1)):
        raise ShapeViolation(
            f"strictly-below states {below} are not a prefix of the order"
        )
    return len(below)


def brute_closure(a: GeneralizedAutomaton) -> tuple[list[int], list[int]]:
    """(a_max, a_min) by direct backward search, cycle-tolerant.

    1-based lists with entry 0 unused, like the fast construction.
    """
    n = a.state_count
    eps_in: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v, rho in a.edges:
        if rho == EPSILON:
            eps_in[v].append(u)
    a_max = [0] * (n + 1)
    a_min = [0] * (n + 1)
    for i in range(1, n + 1):
        seen = {i}
        todo = deque([i])
        while todo:
            x = todo.popleft()
            for y in eps_in[x]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        a_max[i] = max(seen)
        a_min[i] = min(seen)
    return a_max, a_min


def brute_accepts(a: GeneralizedAutomaton, alpha: bytes) -> bool:
    """Membership by plain subset simulation on the expansion."""
    exp = _expand(a)
    live = exp.eps_close({1})
    for sym in alpha:
        live = exp.advance(live, sym)
        if not live:
            return False
    return any(x <= exp.n_orig and x in a.finals for x in live)
