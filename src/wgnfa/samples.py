"""Two small hand-built Wheeler instances used across tests and docs.

Both are already numbered in Wheeler order.  The ten-state one has
labels up to length two, a pair of epsilon edges out of a middle state,
and enough label sharing to exercise every boundary rule; the
four-state one is the smallest instance where the upper boundary is
forced past the lower one by an out-count surplus, which is the case
the matcher has to distinguish from an empty suffixed block.
"""

from __future__ import annotations

from .model import GeneralizedAutomaton


def ten_state_sample() -> GeneralizedAutomaton:
    edges = (
        (1, 2, b"a"),
        (1, 6, b"b"),
        (1, 7, b"b"),
        (1, 8, b"bb"),
        (1, 9, b"bb"),
        (1, 10, b"c"),
        (2, 5, b"ca"),
        (5, 3, b""),
        (5, 4, b""),
        (6, 3, b"ba"),
        (7, 4, b"ba"),
        (8, 3, b"a"),
        (9, 4, b"a"),
        (10, 5, b"ca"),
    )
    return GeneralizedAutomaton(state_count=10, edges=edges, finals=frozenset({3, 4}))


def four_state_sample() -> GeneralizedAutomaton:
    edges = (
        (1, 3, b"b"),
        (3, 2, b"a"),
        (3, 4, b""),
        (3, 4, b"c"),
    )
    return GeneralizedAutomaton(state_count=4, edges=edges, finals=frozenset({2, 4}))
