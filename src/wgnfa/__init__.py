"""Succinct-style index and exact matcher for string-labeled automata
whose states are numbered in Wheeler order.

Every name is imported from its home module (`wgnfa.model`,
`wgnfa.index`, `wgnfa.matcher`, ...).  The package root re-exports only
the piece-trie generator and the text writer, which the benchmark's
self-test (`perfbench/test_perfbench.py`) imports from here.  The
generator is resolved on first use, so commands that never generate an
automaton do not import `wgnfa.generate`.
"""

from .model import format_gnfa

__all__ = ["build_piece_trie", "format_gnfa"]


def __getattr__(name: str):
    if name == "build_piece_trie":
        from .generate import build_piece_trie

        return build_piece_trie
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
