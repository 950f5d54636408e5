"""Random Wheeler-ordered instances for testing.

The base shape is a piece trie: sample a handful of strings over a
small alphabet, cut each into pieces of bounded length, and create one
node per distinct string prefix that appears at a cut.  Shared prefixes
collapse across strings, so the result is a DAG whose nodes each have
exactly one incoming string, and numbering nodes by the co-lex order of
those strings is a Wheeler order by construction.

On top of that the generator optionally roughens the instance: it may
duplicate an edge (parallel edges change nothing order-wise), merge a
run of order-adjacent sinks into one state (their incoming strings stay
a contiguous co-lex block), and it tries a few random epsilon edges,
keeping each one only if the full validation still passes.  Everything
is driven by one seed, so instances are reproducible.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .model import (
    EPSILON,
    GeneralizedAutomaton,
    axiom1_over_sets,
    colex_key,
    incoming_strings,
    validate,
)
from .oracle import ShapeViolation, brute_below_count

ALPHABET_POOL = b"abcd"
# chances of the roughening steps, and the tries drawn per instance
EXTRA_FINAL_PROB = 0.25
MERGE_LEAF_PROB = 0.5
DUPLICATE_EDGE_PROB = 0.2
MAX_RETRIES = 40


class GenerationError(RuntimeError):
    pass


def wheeler_exact(a: GeneralizedAutomaton, budget: int = 30000) -> bool:
    """Exact Wheeler test for small instances with finite walk sets.

    Axioms 2-4 are decided exactly by validate() anyway; axiom 1 is
    checked here on the complete incoming-string sets, which exist
    whenever no cycle spells a nonempty string.  A walk longer than
    (n-1)*r certifies such a cycle, and instances with one (or with
    more than `budget` distinct walks) are rejected outright.  A
    depth-bounded axiom 1 pass is not good enough for the generator:
    a stray epsilon edge can look fine on short strings and only break
    the order beyond the probe depth.
    """
    rep = validate(a, 0)
    if not rep.ok:
        return False
    r = max(1, a.max_label_len)
    cutoff = (a.state_count - 1) * r
    inc = incoming_strings(a, cutoff + r, budget=budget)
    if inc is None:
        return False
    for walks in inc[1:]:
        for w in walks:
            if len(w) > cutoff:
                return False
    return axiom1_over_sets(inc)[0] != "failed"


@dataclass(frozen=True)
class GenerationParams:
    n_strings: int = 6
    max_string_len: int = 9
    max_piece_len: int = 2
    alphabet_size: int = 3
    epsilon_attempts: int = 8
    min_states: int = 3
    max_states: int = 30


def build_piece_trie(
    rng: random.Random,
    n_strings: int,
    max_string_len: int,
    max_piece_len: int,
    alphabet: bytes,
) -> GeneralizedAutomaton:
    """The raw trie DAG, Wheeler-numbered, all sinks final.

    Used directly for large benchmark inputs, which are Wheeler by
    construction and need no screening.
    """
    node_keys = {b""}
    edge_set: set[tuple[bytes, bytes, bytes]] = set()
    for _ in range(n_strings):
        length = rng.randint(1, max_string_len)
        s = bytes(rng.choice(alphabet) for _ in range(length))
        pos = 0
        while pos < length:
            step = rng.randint(1, min(max_piece_len, length - pos))
            piece = s[pos : pos + step]
            edge_set.add((s[:pos], s[: pos + step], piece))
            node_keys.add(s[: pos + step])
            pos += step

    ordered = sorted(node_keys, key=colex_key)
    ids = {key: i for i, key in enumerate(ordered, start=1)}
    edges = tuple(
        (ids[a], ids[b], piece)
        for a, b, piece in sorted(edge_set, key=lambda t: (ids[t[0]], ids[t[1]], t[2]))
    )
    has_out = {ids[a] for a, _, _ in edge_set}
    sinks = frozenset(i for key, i in ids.items() if i not in has_out)
    return GeneralizedAutomaton(state_count=len(ordered), edges=edges, finals=sinks)


def _merge_sink_run(
    a: GeneralizedAutomaton, rng: random.Random
) -> GeneralizedAutomaton | None:
    """Collapse one run of order-consecutive sinks into a single state."""
    has_out = {u for u, _, _ in a.edges}
    sink = [False] * (a.state_count + 1)
    for q in range(1, a.state_count + 1):
        sink[q] = q not in has_out
    runs = []
    q = 1
    while q <= a.state_count:
        if sink[q]:
            start = q
            while q + 1 <= a.state_count and sink[q + 1]:
                q += 1
            if q > start:
                runs.append((start, q))
        q += 1
    if not runs:
        return None
    lo, hi = rng.choice(runs)
    # retarget everything in the run onto its first member, drop the rest
    remap = {}
    nxt = 0
    for q in range(1, a.state_count + 1):
        if lo < q <= hi:
            remap[q] = remap[lo]
        else:
            nxt += 1
            remap[q] = nxt
    edges = tuple((remap[u], remap[v], rho) for u, v, rho in a.edges)
    finals = frozenset(remap[q] for q in a.finals)
    return GeneralizedAutomaton(
        state_count=a.state_count - (hi - lo), edges=edges, finals=finals
    )


def generate_instance(
    seed: int, params: GenerationParams = GenerationParams()
) -> GeneralizedAutomaton:
    """One reproducible valid instance; raises GenerationError if the
    size window cannot be hit within the retry budget."""
    rng = random.Random(seed)
    alphabet = ALPHABET_POOL[: params.alphabet_size]
    for _ in range(MAX_RETRIES):
        a = build_piece_trie(
            rng,
            params.n_strings,
            params.max_string_len,
            params.max_piece_len,
            alphabet,
        )
        if not params.min_states <= a.state_count <= params.max_states:
            continue

        if rng.random() < MERGE_LEAF_PROB:
            merged = _merge_sink_run(a, rng)
            if merged is not None and wheeler_exact(merged):
                a = merged

        finals = set(a.finals)
        for q in range(1, a.state_count + 1):
            if q not in finals and rng.random() < EXTRA_FINAL_PROB:
                finals.add(q)
        a = GeneralizedAutomaton(
            state_count=a.state_count, edges=a.edges, finals=frozenset(finals)
        )

        if a.edges and rng.random() < DUPLICATE_EDGE_PROB:
            dup = rng.choice(a.edges)
            a = GeneralizedAutomaton(
                state_count=a.state_count, edges=a.edges + (dup,), finals=a.finals
            )

        for _ in range(params.epsilon_attempts):
            u = rng.randint(1, a.state_count)
            v = rng.randint(1, a.state_count)
            if u == v:
                continue
            cand = GeneralizedAutomaton(
                state_count=a.state_count,
                edges=a.edges + ((u, v, EPSILON),),
                finals=a.finals,
            )
            if wheeler_exact(cand):
                a = cand

        if not wheeler_exact(a):
            continue
        try:
            for probe in _probe_patterns(rng, a, alphabet):
                brute_below_count(a, probe)
        except ShapeViolation:
            continue
        return a
    raise GenerationError(f"no instance within limits for seed {seed}")


def _probe_patterns(
    rng: random.Random, a: GeneralizedAutomaton, alphabet: bytes
) -> list[bytes]:
    out = [bytes([rng.choice(alphabet)]) for _ in range(2)]
    out += [bytes(rng.choice(alphabet) for _ in range(rng.randint(2, 5))) for _ in range(4)]
    labels = [rho for _, _, rho in a.edges if rho]
    if labels:
        rho = rng.choice(labels)
        out.append(rho)
        out.append(rho + bytes([rng.choice(alphabet)]))
    return out


def sample_patterns(
    rng: random.Random, a: GeneralizedAutomaton, count: int, max_len: int = 10
) -> list[bytes]:
    """Query workload for an instance: random strings over its label
    alphabet mixed with substrings of strings it actually spells, plus
    the empty pattern."""
    symbols = sorted({b for _, _, rho in a.edges for b in rho})
    if not symbols:
        return [b""] * count
    spelled = _spell_some_strings(a, limit=40)
    out: list[bytes] = [b""]
    while len(out) < count:
        roll = rng.random()
        if roll < 0.45 and spelled:
            base = rng.choice(spelled)
            if base:
                i = rng.randrange(len(base))
                j = rng.randint(i + 1, len(base))
                out.append(base[i:j][:max_len])
                continue
        length = rng.randint(0, max_len)
        out.append(bytes(rng.choice(symbols) for _ in range(length)))
    return out[:count]


def _spell_some_strings(a: GeneralizedAutomaton, limit: int) -> list[bytes]:
    adj: list[list[tuple[int, bytes]]] = [[] for _ in range(a.state_count + 1)]
    for u, v, rho in a.edges:
        adj[u].append((v, rho))
    found: list[bytes] = []
    seen: set[tuple[int, bytes]] = set()
    todo = deque([(1, b"")])
    while todo and len(found) < limit:
        u, s = todo.popleft()
        for v, rho in adj[u]:
            t = s + rho
            if len(t) > 14 or (v, t) in seen:
                continue
            seen.add((v, t))
            if t:
                found.append(t)
            todo.append((v, t))
    return found
