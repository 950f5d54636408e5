"""Succinct-style index and exact matcher for string-labeled automata
whose states are numbered in Wheeler order.

Every name is imported from its home module (`wgnfa.model`,
`wgnfa.index`, `wgnfa.matcher`, ...).  The package root re-exports only
the piece-trie generator and the text writer, which the benchmark's
self-test (`perfbench/test_perfbench.py`) imports from here.
"""

from .generate import build_piece_trie
from .model import format_gnfa

__all__ = ["build_piece_trie", "format_gnfa"]
