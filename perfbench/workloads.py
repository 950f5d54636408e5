"""The benchmark's workloads, as plain data (no program imports).

Every workload is a seeded piece trie from `wgnfa.generate.build_piece_trie`
with strings of length 1..28 over `abcd`, cut into pieces of at most two
symbols (so r = 2), plus pattern files.  The trie's edge count is held
within `edge_window` of the count at seed 271828: seeds whose trie falls
outside are redrawn (see child.pick_trie_seed), so that run-to-run
spread measures the program and not the size of the draw.  Validation
is quadratic in the edge count, so build-3k uses the narrowest window.
"""

from __future__ import annotations

from dataclasses import dataclass

SHORT_COUNT = 2000  # patterns of length 1..SHORT_MAX_LEN, half spelled by the trie
SHORT_MAX_LEN = 12
LONG_COUNT = 8  # uniform random patterns of LONG_LEN symbols
LONG_LEN = 16384


@dataclass(frozen=True)
class Workload:
    name: str
    n_strings: int
    target_edges: int  # edges of the trie at seed 271828
    edge_window: float  # accepted relative deviation from target_edges
    sentinel: bool  # index built with --sentinel (membership answers)
    focus: str  # "build": time `wgnfa build`; "query": time `wgnfa query`
    long_patterns: bool  # query file holds the long patterns, not the short set
    setup_reps: int
    why: str


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="build-3k",
            n_strings=400,
            target_edges=3371,
            edge_window=0.005,
            sentinel=True,
            focus="build",
            long_patterns=False,
            setup_reps=5,
            why=(
                "wgnfa build --sentinel on a 3.3k-state trie: the O(E^2) axiom-3/4 loop "
                "in model.validate is ~90% of it, so near-linear validation shows here "
                "and nowhere else"
            ),
        ),
        Workload(
            name="query-batch-85k",
            n_strings=13000,
            target_edges=88808,
            edge_window=0.01,
            sentinel=True,
            focus="query",
            long_patterns=False,
            setup_reps=3,
            why=(
                "2,000 short patterns on an 85k-state sentinel index far larger than the "
                "CPU caches; time splits between deserialize, matching and TSV output"
            ),
        ),
        Workload(
            name="query-long-10k",
            n_strings=1300,
            target_edges=10227,
            edge_window=0.01,
            sentinel=False,
            focus="query",
            long_patterns=True,
            setup_reps=3,
            why=(
                "8 patterns of 16,384 symbols on the 10k criterion-09 trie: per-symbol "
                "matcher and index cost is nearly all; per-pattern and output work should not move it"
            ),
        ),
    ]
}
