"""Closure arrays over the empty-labeled edges.

For each state i (in Wheeler numbering), a_max[i] is the largest state
from which i can be reached by a possibly empty chain of epsilon edges,
and a_min[i] the smallest.  Both satisfy a one-step recurrence over the
direct epsilon predecessors, so folding them along the epsilon edges in
topological order (Kahn's algorithm) computes them in one pass over the
edges.  A state that no epsilon edge enters is its own extremum both
ways, so the fold keeps its lists only up to the largest state an
epsilon edge touches, and an automaton without epsilon edges costs it
nothing per state.

In a valid Wheeler numbering the epsilon edges cannot form a cycle
through two or more distinct states, which is what makes the recurrence
well founded: the largest state m on such a cycle has a predecessor
x < m and a successor w < m on it, so the epsilon edges x -> m and
m -> w break axiom 4.  States the fold never releases lie on such a
cycle or are reached from one, and EpsilonCycleError names one.  Epsilon
self-loops are harmless and are ignored.

The same pass yields the two marker bitvectors, which are all the
index adds for the epsilon edges: b_max / b_min flag the fixpoints
a_max[i] == i resp. a_min[i] == i.  Interval endpoints of query
prefixes always sit on such markers, which is how the matcher rounds
candidate boundaries.  The index reads only the markers; the full
a_max / a_min lists are built on first read, for the closure dump and
the brute-force comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

from .model import GeneralizedAutomaton


class EpsilonCycleError(ValueError):
    """An epsilon cycle through at least two distinct states."""

    def __init__(self, u: int, v: int):
        super().__init__(f"epsilon cycle through states {u} and {v}")
        self.u = u
        self.v = v


@dataclass(frozen=True)
class EpsilonClosureArrays:
    """1-based arrays; index 0 is unused padding.

    fold_max / fold_min are the fold's extrema for states 0..top, top the
    largest state an epsilon edge touches; 0 stands for the state itself,
    which is also the extremum of every state above top.
    """

    fold_max: list[int]
    fold_min: list[int]
    b_max: bytes  # one 0/1 byte per state, 1 iff a_max[i] == i
    b_min: bytes  # likewise for a_min
    edge_visits: int  # non-self-loop epsilon edges folded, each once

    @cached_property
    def a_max(self) -> list[int]:
        return self._extrema(self.fold_max)

    @cached_property
    def a_min(self) -> list[int]:
        return self._extrema(self.fold_min)

    def _extrema(self, fold: list[int]) -> list[int]:
        return [x or i for i, x in enumerate(fold)] + list(range(len(fold), len(self.b_max)))


def build_closure_arrays(a: GeneralizedAutomaton) -> EpsilonClosureArrays:
    """One topological fold over the epsilon edges, carrying max and min.

    A state is released once all its epsilon predecessors are, and then
    passes its extrema along each of its out-edges, so every epsilon edge
    is examined exactly once and the pass is linear in the edges.  A
    state that no epsilon edge enters keeps a_max[i] = a_min[i] = i, so
    each marker starts as all ones and only the edges' targets are
    compared.  The cost is one O(E) filter for the epsilon edges, an
    O(epsilon) fold over lists that end at the largest state an epsilon
    edge touches, and two n-byte markers; a_max and a_min are expanded
    to n + 1 entries only when read.

    If states remain unreleased, raises EpsilonCycleError(u, v) for the
    first repeat on the walk that starts at the smallest unreleased state
    and steps to each state's first unreleased predecessor in input
    order.  validate() already rejects such an automaton, as it breaks
    axiom 4; this check serves callers that skip validation.
    """
    n = a.state_count
    eps = [(u, v) for u, v, rho in a.edges if not rho and u != v]
    top = max(chain.from_iterable(eps), default=0)
    pending = [0] * (top + 1)  # unreleased epsilon predecessors per state
    offs = [0] * (top + 2)
    a_max = [0] * (top + 1)  # 0: the state is its own extremum
    a_min = [0] * (top + 1)
    for u, v in eps:
        pending[v] += 1
        offs[u] += 1
        a_max[u] = a_min[u] = u
        a_max[v] = a_min[v] = v
    # counting sort by source: offs[u] ends u's block, and placing each
    # edge moves it back, so u's successors end up in offs[u]..offs[u+1]
    offs = list(accumulate(offs))
    succ = [0] * len(eps)
    for u, v in eps:
        offs[u] -= 1
        succ[offs[u]] = v

    todo = list({u for u, _ in eps if not pending[u]})
    visits = 0
    while todo:
        u = todo.pop()
        hi = a_max[u]
        lo = a_min[u]
        out = succ[offs[u] : offs[u + 1]]
        visits += len(out)
        for v in out:
            if hi > a_max[v]:
                a_max[v] = hi
            if lo < a_min[v]:
                a_min[v] = lo
            pending[v] -= 1
            if not pending[v]:
                todo.append(v)

    if visits < len(eps):
        # a state is unreleased iff one of its predecessors is, so the
        # keys here are exactly the unreleased states
        first: dict[int, int] = {}
        for u, v in eps:
            if pending[u]:
                first.setdefault(v, u)
        node = min(first)
        path = {node}
        while (pred := first[node]) not in path:
            path.add(pred)
            node = pred
        raise EpsilonCycleError(pred, node)

    def fixpoints(ext: list[int]) -> bytes:
        bits = bytearray(b"\x00" + b"\x01" * n)
        for v in succ:
            bits[v] = ext[v] == v
        return bytes(bits)

    return EpsilonClosureArrays(
        fold_max=a_max,
        fold_min=a_min,
        b_max=fixpoints(a_max),
        b_min=fixpoints(a_min),
        edge_visits=visits,
    )
