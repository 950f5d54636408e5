"""Closure arrays over the empty-labeled edges.

For each state i (in Wheeler numbering), a_max[i] is the largest state
from which i can be reached by a possibly empty chain of epsilon edges,
and a_min[i] the smallest.  Both satisfy a one-step recurrence over the
direct epsilon predecessors, so a single depth-first sweep that follows
epsilon edges backwards computes them in one pass over the edges.

In a valid Wheeler numbering the epsilon edges cannot form a cycle
through two or more distinct states, which is what makes the recurrence
well founded.  The sweep detects any such cycle (a gray state re-entered
through a non-self-loop epsilon edge) and raises EpsilonCycleError.
Epsilon self-loops are harmless and are ignored.

The marker bitvectors b_max / b_min flag the fixpoints a_max[i] == i
resp. a_min[i] == i; interval endpoints of query prefixes always sit on
such markers, which is how the matcher rounds candidate boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count, islice
from operator import eq

from .model import EPSILON, GeneralizedAutomaton


class EpsilonCycleError(ValueError):
    """An epsilon cycle through at least two distinct states."""

    def __init__(self, u: int, v: int):
        super().__init__(f"epsilon cycle through states {u} and {v}")
        self.u = u
        self.v = v


@dataclass(frozen=True)
class EpsilonClosureArrays:
    """1-based arrays; index 0 is unused padding."""

    a_max: list[int]
    a_min: list[int]
    edge_visits: int  # epsilon edges examined during the sweep


@dataclass(frozen=True)
class MarkerBits:
    b_max: bytes  # one 0/1 byte per state, length n+1, entry 0 unused
    b_min: bytes


def build_closure_arrays(a: GeneralizedAutomaton) -> EpsilonClosureArrays:
    """One backward DFS over the epsilon edges, folding max and min.

    States are started in increasing order but the result does not
    depend on that; each epsilon edge is examined exactly once, so the
    sweep is linear in the number of edges.
    """
    n = a.state_count
    srcs = []
    tgts = []
    for u, v, rho in a.edges:
        if rho == EPSILON and u != v:
            srcs.append(u)
            tgts.append(v)

    # group predecessor lists by target in one flat array with a counting
    # sort; it is stable, so the sweep meets each state's predecessors in
    # input order and reports the same cycle for the same input
    offs = [0] * (n + 2)
    for v in tgts:
        offs[v + 1] += 1
    offs = list(accumulate(offs))
    fill = offs[:]
    flat = [0] * len(srcs)
    for u, v in zip(srcs, tgts):
        flat[fill[v]] = u
        fill[v] += 1

    a_max = list(range(n + 1))
    a_min = list(range(n + 1))
    color = bytearray(n + 1)  # 0 white, 1 gray, 2 black
    visits = 0

    for start in range(1, n + 1):
        # a state without epsilon predecessors is its own extremum, and a
        # sweep that meets it as a predecessor pushes, pops and folds it
        if color[start] or offs[start] == offs[start + 1]:
            continue
        color[start] = 1
        nodes = [start]
        ptrs = [offs[start]]
        while nodes:
            node = nodes[-1]
            ptr = ptrs[-1]
            end = offs[node + 1]
            descended = False
            while ptr < end:
                j = flat[ptr]
                ptr += 1
                visits += 1
                cj = color[j]
                if cj == 2:
                    if a_max[j] > a_max[node]:
                        a_max[node] = a_max[j]
                    if a_min[j] < a_min[node]:
                        a_min[node] = a_min[j]
                elif cj == 0:
                    ptrs[-1] = ptr
                    color[j] = 1
                    nodes.append(j)
                    ptrs.append(offs[j])
                    descended = True
                    break
                else:
                    raise EpsilonCycleError(j, node)
            if descended:
                continue
            color[node] = 2
            nodes.pop()
            ptrs.pop()
            if nodes:
                parent = nodes[-1]
                if a_max[node] > a_max[parent]:
                    a_max[parent] = a_max[node]
                if a_min[node] < a_min[parent]:
                    a_min[parent] = a_min[node]

    return EpsilonClosureArrays(a_max=a_max, a_min=a_min, edge_visits=visits)


def build_marker_bits(closure: EpsilonClosureArrays) -> MarkerBits:
    """Bit i set iff state i is its own closure extremum."""

    def fixpoints(a: list[int]) -> bytes:
        return b"\x00" + bytes(map(eq, islice(a, 1, None), count(1)))

    return MarkerBits(b_max=fixpoints(closure.a_max), b_min=fixpoints(closure.a_min))
