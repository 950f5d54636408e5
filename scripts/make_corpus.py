#!/usr/bin/env python3
"""Regenerate the committed corpus/ directory.

Deterministic: every instance and pattern file is a pure function of
the seeds below, so rerunning this script reproduces the corpus byte
for byte.  The layout is

  corpus/<name>.gnfa        valid instances (two hand-built samples
                            plus 200 generated ones)
  corpus/<name>.patterns    100 query patterns each, lengths 0..10,
                            one per line, empty line = empty pattern
  corpus/invalid/*.gnfa     20 instances with an epsilon cycle, kept
                            apart because they must be rejected
  corpus/MANIFEST.tsv       one row per valid instance

Every fourth generated instance is confined to at most 8 states over a
two-letter alphabet so exhaustive sweeps stay cheap; the rest roam up
to 30 states, alphabets of 2..4 letters and labels up to length 3.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from wgnfa.generate import GenerationParams, generate_instance, sample_patterns
from wgnfa.model import EPSILON, GeneralizedAutomaton, escape_label, format_gnfa
from wgnfa.samples import four_state_sample, ten_state_sample

N_GENERATED = 200
N_CYCLIC = 20


def params_for(i: int) -> GenerationParams:
    if i % 4 == 0:
        return GenerationParams(
            n_strings=2 + (i // 4) % 2,
            max_string_len=3 + (i // 8) % 3,
            max_piece_len=2,
            alphabet_size=2,
            min_states=3,
            max_states=8,
            epsilon_attempts=6,
        )
    return GenerationParams(
        n_strings=4 + i % 5,
        max_string_len=6 + i % 5,
        max_piece_len=1 + i % 3,
        alphabet_size=2 + i % 3,
        min_states=9,
        max_states=30,
    )


def pattern_lines(patterns: list[bytes]) -> str:
    return "".join((escape_label(p) if p else "") + "\n" for p in patterns)


def make_cyclic(seed: int) -> GeneralizedAutomaton:
    """A structurally fine instance with one epsilon cycle planted."""
    rng = random.Random(seed)
    base = generate_instance(
        seed,
        GenerationParams(n_strings=3, max_string_len=5, min_states=4, max_states=12),
    )
    k = min(base.state_count, 2 + seed % 4)
    ring = rng.sample(range(1, base.state_count + 1), k)
    extra = tuple(
        (ring[i], ring[(i + 1) % k], EPSILON) for i in range(k)
    )
    return GeneralizedAutomaton(
        state_count=base.state_count,
        edges=base.edges + extra,
        finals=base.finals,
        initial=1,
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent / "corpus"))
    args = ap.parse_args()
    out = Path(args.out)
    (out / "invalid").mkdir(parents=True, exist_ok=True)

    rows = []

    def emit(name: str, a: GeneralizedAutomaton, pattern_seed: int) -> None:
        (out / f"{name}.gnfa").write_text(format_gnfa(a))
        pats = sample_patterns(random.Random(pattern_seed), a, count=100, max_len=10)
        (out / f"{name}.patterns").write_text(pattern_lines(pats))
        sigma = len({b for _, _, rho in a.edges for b in rho})
        rows.append(
            f"{name}\t{a.state_count}\t{len(a.edges)}\t{len(a.epsilon_edges)}"
            f"\t{a.max_label_len}\t{sigma}\t{len(a.finals)}"
        )

    emit("ten-state", ten_state_sample(), 77001)
    emit("four-state", four_state_sample(), 77002)
    for i in range(N_GENERATED):
        a = generate_instance(1000 + i, params_for(i))
        emit(f"g{i:03d}", a, 5000 + i)

    for i in range(N_CYCLIC):
        a = make_cyclic(9000 + i)
        (out / "invalid" / f"eps-cycle-{i:02d}.gnfa").write_text(format_gnfa(a))

    header = "name\tstates\tedges\teps_edges\tr\tsigma\tfinals\n"
    (out / "MANIFEST.tsv").write_text(header + "".join(r + "\n" for r in rows))
    print(f"wrote {len(rows)} instances and {N_CYCLIC} cyclic fixtures to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
