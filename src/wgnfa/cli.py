"""Command line front end.

Exit codes: 0 on success, 1 when validation fails or the fast and
brute-force paths diverge, 2 for usage errors, 3 for I/O and format
problems.  All tabular output is TSV on stdout; diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import random
import sys
import zlib
from pathlib import Path
from typing import Callable

from .closure import EpsilonCycleError, build_closure_arrays
from .crosscheck import crosscheck_instance
from .index import build_index
# match_interval stays bound here: perfbench's self-test checks that its
# tracer wraps the name in this module
from .matcher import SentinelInPatternError, match_interval, match_patterns, run_steps
from .model import (
    GeneralizedAutomaton,
    GnfaFormatError,
    escape_label,
    format_gnfa,
    parse_gnfa,
    parse_patterns,
    validate,
)
from .serial import IndexFormatError, deserialize, payload_bits, section_bytes, serialize


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _load_gnfa(path: str) -> GeneralizedAutomaton:
    return parse_gnfa(_read_bytes(path))


def cmd_build(args: argparse.Namespace) -> int:
    a = _load_gnfa(args.gnfa)
    rep = validate(a, args.axiom1_depth)
    if not rep.ok:
        for line in rep.lines():
            print(line, file=sys.stderr)
        return 1
    ix = build_index(a, with_sentinel=args.sentinel)
    Path(args.output).write_bytes(serialize(ix))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    a = _load_gnfa(args.gnfa)
    rep = validate(a, args.axiom1_depth)
    for line in rep.lines():
        print(line)
    # every epsilon cycle breaks axiom 3 or 4, so only then can there be
    # one, and rep.ok is already false
    try:
        if not (rep.axiom3_ok and rep.axiom4_ok):
            build_closure_arrays(a)
        print("epsilon\tok")
    except EpsilonCycleError as exc:
        print(f"epsilon\tFAIL\t{exc}")
    return 0 if rep.ok else 1


def cmd_closure(args: argparse.Namespace) -> int:
    a = _load_gnfa(args.gnfa)
    cl = build_closure_arrays(a)
    for i in range(1, a.state_count + 1):
        print(f"{i}\t{cl.a_max[i]}\t{cl.a_min[i]}\t{cl.b_max[i]}\t{cl.b_min[i]}")
    return 0


def _state_offset(q: int) -> int:
    """Where state q starts in the text "1,2,...,n,".

    The q-1 states before it take a comma each and w digits each, w the
    digit count of q, less one digit for each of them below 10, 100,
    ..., 10**(w-1): (10**w - 10) // 9 - (w - 1) digits in all.
    """
    width = len(str(q))
    return (width + 1) * (q - 1) - (10**width - 10) // 9 + width - 1


def state_column(n: int) -> Callable[[int, int], str]:
    """The comma-joined states lo..hi of 1..n, as slices of one text.

    The text is built once.  The thousand states p000..p999 of a
    thousands prefix p are one str.join of the suffixes "000,".."999,"
    with str(p), so that no list of n strings is ever held; states
    1..999 and the last, partial thousand are formatted by one "%d,"
    template each.  A row, which cmd_query writes with its slice in one
    write, then costs time in proportion to the bytes it prints; a
    repeated pattern reuses its neighbour's answer, and its row is cut
    again from the same text.  An empty interval (lo > hi) gives "", and
    a non-empty one outside 1..n raises ValueError.
    """
    full = (n + 1) // 1000  # the thousands below full * 1000 are complete
    head = range(1, min(n, 999) + 1)
    tail = range(max(full, 1) * 1000, n + 1)
    suffixes = ["", *(f"{i:03d}," for i in range(1000))]
    text = "".join([
        "%d," * len(head) % tuple(head),
        *(str(p).join(suffixes) for p in range(1, full)),
        "%d," * len(tail) % tuple(tail),
    ])

    def states(lo: int, hi: int) -> str:
        if lo > hi:
            return ""
        if lo < 1 or hi > n:
            raise ValueError(f"state interval {lo}..{hi} outside 1..{n}")
        return text[_state_offset(lo) : _state_offset(hi + 1) - 1]

    return states


def cmd_query(args: argparse.Namespace) -> int:
    ix = deserialize(_read_bytes(args.index))
    patterns = parse_patterns(_read_bytes(args.patterns))
    answers = match_patterns(ix, patterns)
    states = state_column(ix.n_states - (1 if ix.sentinel_mode else 0))
    write = sys.stdout.write  # print would write each newline separately
    for p, (lo, hi, count, accepted) in zip(patterns, answers):
        if args.trace and p:
            write(run_steps(ix, p).dump_tsv() + "\n")
        acc = "-" if accepted is None else ("1" if accepted else "0")
        write(f"{escape_label(p)}\t{lo}\t{hi}\t{count}\t{states(lo, hi)}\t{acc}\n")
    return 0


def _default_battery(a: GeneralizedAutomaton) -> list[bytes]:
    symbols = sorted({b for _, _, rho in a.edges for b in rho})
    out: list[bytes] = [b""]
    layer = [b""]
    for _ in range(3):
        layer = [p + bytes([s]) for p in layer for s in symbols]
        out.extend(layer)
    rng = random.Random(zlib.crc32(format_gnfa(a).encode()))
    for _ in range(30):
        length = rng.randint(4, 8)
        if symbols:
            out.append(bytes(rng.choice(symbols) for _ in range(length)))
    return out


def cmd_oracle_check(args: argparse.Namespace) -> int:
    a = _load_gnfa(args.gnfa)
    if args.patterns:
        patterns = parse_patterns(_read_bytes(args.patterns))
    else:
        patterns = _default_battery(a)
    problems = crosscheck_instance(a, patterns)
    if problems:
        for msg in problems:
            print(f"divergence\t{msg}")
        return 1
    print(f"ok\t{len(patterns)}\tpatterns")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    a = _load_gnfa(args.gnfa)
    blob = serialize(build_index(a))
    label_symbols = sum(len(rho) for _, _, rho in a.edges)
    bound = 64 * (label_symbols + len(a.edges) + a.state_count)
    bits = payload_bits(blob)
    print(f"space.payload_bits\t{bits}")
    print(f"space.bound_bits\t{bound}")
    print(f"space.within_bound\t{1 if bits <= bound else 0}")
    print(f"space.file_bytes\t{len(blob)}")
    print(f"space.section_bytes\t{','.join(map(str, section_bytes(blob)))}")
    return 0


def _depth(text: str) -> int:
    depth = int(text)
    if depth < 0:
        raise argparse.ArgumentTypeError(f"depth must be 0 or more, not {depth}")
    return depth


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wgnfa",
        description="Index and query string-labeled automata in Wheeler order.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="validate, index and serialize an automaton")
    b.add_argument("gnfa")
    b.add_argument("-o", "--output", required=True)
    b.add_argument("--sentinel", action="store_true", help="support membership queries")
    b.add_argument("--axiom1-depth", type=_depth, default=0)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("validate", help="check structure and the order axioms")
    v.add_argument("gnfa")
    v.add_argument("--axiom1-depth", type=_depth, default=0)
    v.set_defaults(func=cmd_validate)

    q = sub.add_parser("query", help="run patterns against a serialized index")
    q.add_argument("index")
    q.add_argument("--patterns", default="-", help="pattern file, '-' for stdin")
    q.add_argument("--trace", action="store_true", help="dump per-step internals")
    q.set_defaults(func=cmd_query)

    c = sub.add_parser("closure", help="dump the epsilon closure arrays")
    c.add_argument("gnfa")
    c.set_defaults(func=cmd_closure)

    o = sub.add_parser("oracle-check", help="compare against brute force")
    o.add_argument("gnfa")
    o.add_argument("--patterns")
    o.set_defaults(func=cmd_oracle_check)

    be = sub.add_parser("bench", help="report the index size against its space bound")
    be.add_argument("gnfa")
    be.set_defaults(func=cmd_bench)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EpsilonCycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GnfaFormatError, IndexFormatError, SentinelInPatternError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
