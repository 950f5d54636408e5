"""One phase of a benchmark run, in its own process.

    python3 perfbench/child.py setup|measure --work DIR --workload NAME
        --seed N --seconds S --trace 0|1

`setup` draws the inputs from the seed, writes them to DIR and times
that several times; on the query workloads it also builds the index
with the library (`wgnfa build` would run the quadratic validation on
85k edges).  It then computes the expected answers with
`reference.py`, cross-checks a sample of them against the brute-force
oracle, and writes DIR/setup.json.

`measure` runs `wgnfa.cli.main` in-process with stdout captured, in a
closed loop for the given seconds, checks every output, and then takes
the per-pattern latency and index heap in separate passes.  It writes
DIR/measure.json.  Running it in a fresh process keeps set-up out of its
peak RSS, which never goes down within a process.

With --trace 1 both phases also record spans (see tracing.py): the
measure phase runs each operation untraced and then traced, so that
the difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import reference
from reference import Answer, PieceTrieReference
from speed import SpeedProbe
from tracing import Tracer
from workloads import LONG_COUNT, LONG_LEN, SHORT_COUNT, SHORT_MAX_LEN, WORKLOADS

ORACLE_SAMPLE = 24  # patterns per set cross-checked with wgnfa.oracle
MAX_PICK_ATTEMPTS = 200
LATENCY_BLOCK = 25  # match_interval calls between two speed probes
LATENCY_PASSES = 5  # over the probe set; each metric is the median over passes
LIB_BUILD_SECONDS = 2  # library builds timed on the query workloads, at least 3


def _import_program(src: Path):
    sys.path.insert(0, str(src))
    import wgnfa

    if Path(wgnfa.__file__).resolve().parent != (src / "wgnfa").resolve():
        raise SystemExit(f"imported wgnfa from {wgnfa.__file__}, not from {src}")
    import wgnfa.cli  # noqa: F401  (loaded before tracing wraps names in it)

    return wgnfa


def _trie(wl, seed):
    from wgnfa import generate

    return generate.build_piece_trie(
        random.Random(seed),
        n_strings=wl.n_strings,
        max_string_len=28,
        max_piece_len=2,
        alphabet=b"abcd",
    )


def pick_trie_seed(wl, seed: int):
    """The run seed, or the first redraw whose trie size is in the window."""
    lo = wl.target_edges * (1 - wl.edge_window)
    hi = wl.target_edges * (1 + wl.edge_window)
    for attempt in range(MAX_PICK_ATTEMPTS):
        trie_seed = seed if attempt == 0 else f"{seed}/{attempt}"
        if lo <= len(_trie(wl, trie_seed).edges) <= hi:
            return trie_seed
    raise RuntimeError(f"no trie within the edge window for seed {seed}")


def short_patterns(rng: random.Random, strings: list[bytes], finals) -> list[bytes]:
    """Lengths 1..SHORT_MAX_LEN; even rows are substrings of strings the
    trie spells (taken from final states), odd rows uniform over abcd."""
    spelled = [strings[q] for q in sorted(finals)]
    out = []
    for i in range(SHORT_COUNT):
        length = rng.randint(1, SHORT_MAX_LEN)
        if i % 2 == 0:
            s = rng.choice(spelled)
            length = min(length, len(s))
            start = rng.randint(0, len(s) - length)
            out.append(s[start : start + length])
        else:
            out.append(bytes(rng.choice(b"abcd") for _ in range(length)))
    return out


def long_patterns(rng: random.Random) -> list[bytes]:
    return [bytes(rng.choice(b"abcd") for _ in range(LONG_LEN)) for _ in range(LONG_COUNT)]


def _write_patterns(path: Path, patterns: list[bytes]) -> None:
    path.write_bytes(b"".join(p + b"\n" for p in patterns))


def _read_patterns(path: Path) -> list[bytes]:
    return path.read_bytes().split(b"\n")[:-1]


def _answer_rows(answers: list[Answer]) -> list[list]:
    return [[a.lo, a.hi, a.count, a.accepted] for a in answers]


def _expected_digest(patterns, answers) -> str:
    h = hashlib.blake2b()
    for p, a in zip(patterns, answers):
        h.update((reference.tsv_line(p, a) + "\n").encode("ascii"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up


def set_up_once(wl, seed: int, trie_seed, work: Path):
    """Draw and write the inputs; on query workloads also build the index.

    Returns the automaton, the query patterns and the probe patterns.
    """
    from wgnfa import index, model, serial

    a = _trie(wl, trie_seed)
    gnfa = work / "input.gnfa"
    gnfa.write_text(model.format_gnfa(a))
    strings = reference.incoming_strings(a.state_count, a.edges)
    probes = short_patterns(random.Random(f"{seed}/patterns"), strings, a.finals)
    queries = long_patterns(random.Random(f"{seed}/long")) if wl.long_patterns else probes
    _write_patterns(work / "probes.txt", probes)
    _write_patterns(work / "queries.txt", queries)
    if wl.focus == "query":
        b = model.parse_gnfa(gnfa.read_bytes())
        ix = index.build_index(b, with_sentinel=wl.sentinel)
        (work / "index.wgx").write_bytes(serial.serialize(ix))
    return a, queries, probes


def oracle_disagreements(a, ref: PieceTrieReference, patterns) -> list[str]:
    """Compare the reference with wgnfa.oracle on the given patterns."""
    from wgnfa import oracle

    out = []
    for p in patterns:
        ans = ref.answer(p)
        if oracle.brute_match(a, p) != set(range(ans.lo, ans.hi + 1)):
            out.append(f"oracle interval differs for {p[:40]!r}")
        if ref.sentinel and oracle.brute_accepts(a, p) != ans.accepted:
            out.append(f"oracle membership differs for {p[:40]!r}")
    return out


def phase_setup(args, wl, work: Path) -> dict:
    trie_seed = pick_trie_seed(wl, args.seed)
    tracer = Tracer() if args.trace else None
    probe = SpeedProbe()
    setup_times, episodes = [], []

    def once():
        with tracer.root("setup") if tracer else contextlib.nullcontext():
            return set_up_once(wl, args.seed, trie_seed, work)

    with tracer.installed() if tracer else contextlib.nullcontext():
        for _ in range(wl.setup_reps):
            raw, scaled, (a, queries, probes) = probe.time_call(once, sample=not tracer)
            setup_times.append((raw, scaled))
    if tracer:
        tracer.dump(str(work / "spans-setup.jsonl"))
        episodes = tracer.episodes()
        for ep, (raw, scaled) in zip(episodes, setup_times):
            ep["wall_s"] = raw

    ref = PieceTrieReference(a.state_count, a.edges, a.finals, wl.sentinel)
    query_ans = [ref.answer(p) for p in queries]
    probe_ans = [ref.answer(p) for p in probes]
    digest = _expected_digest(queries, query_ans)
    sample = queries[:ORACLE_SAMPLE] + ([] if queries is probes else probes[:ORACLE_SAMPLE])
    problems = oracle_disagreements(a, ref, sample)
    return {
        "trie_seed": trie_seed,
        "states": a.state_count,
        "edges": len(a.edges),
        "setup_times": setup_times,
        "episodes": episodes,
        "query_answers": _answer_rows(query_ans),
        "probe_answers": _answer_rows(probe_ans),
        "query_digest": digest,
        "oracle_checked": len(sample),
        "oracle_problems": problems,
    }


# ---------------------------------------------------------------------------
# measurement


class HashSink:
    """Stands in for stdout: hashes and counts what the CLI prints."""

    def __init__(self):
        self.hash = hashlib.blake2b()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.hash.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass


class Checker:
    """Counts answers checked and answers wrong (or lost to a bad exit)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


class Measurement:
    def __init__(self, wl, work: Path, setup: dict, wgnfa):
        self.wl = wl
        self.work = work
        self.setup = setup
        self.cli = wgnfa.cli
        self.check = Checker()
        self.queries = _read_patterns(work / "queries.txt")
        self.probes = _read_patterns(work / "probes.txt")
        self.build_bytes: bytes | None = None
        self.output_bytes: dict[str, int] = {}
        self.probe = SpeedProbe()
        self.times: dict[str, list[tuple[float, float]]] = {}  # kind -> (raw, scaled)

    def _timed(self, kind: str, tracer, fn):
        """fn() as one episode; traced calls are not sampled by the probe,
        whose handler would otherwise land in some layer's self time."""

        def call():
            with tracer.root(kind) if tracer else contextlib.nullcontext():
                return fn()

        raw, scaled, result = self.probe.time_call(call, sample=tracer is None)
        key = f"traced_{kind}" if tracer else kind
        self.times.setdefault(key, []).append((raw, scaled))
        return result

    def _cli(self, argv: list[str], sink) -> int | None:
        """cli.main with stdout captured; None when it raised."""
        try:
            with contextlib.redirect_stdout(sink):
                return self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            return None

    def query(self, tracer=None):
        """`wgnfa query` over the query file; its output must match the
        reference byte for byte (compared by digest)."""
        sink = HashSink()
        argv = ["query", str(self.index_path()), "--patterns", str(self.work / "queries.txt")]
        rc = self._timed("query", tracer, lambda: self._cli(argv, sink))
        answers = self.setup["query_answers"]
        self.check.attempted += len(answers)
        self.output_bytes["query"] = sink.bytes
        if rc != 0:
            self.check.fail(len(answers), f"query exited with {rc}")
        elif sink.hash.hexdigest() != self.setup["query_digest"]:
            capture = io.StringIO()
            self._cli(argv, capture)
            expected = [reference.tsv_line(p, Answer(*row)) for p, row in zip(self.queries, answers)]
            wrong = reference.count_wrong_lines(expected, capture.getvalue().splitlines())
            self.check.fail(max(wrong, 1), f"query output differs on {wrong} rows")

    def build(self, tracer=None):
        out = self.work / "built.wgx"
        argv = ["build", str(self.work / "input.gnfa"), "-o", str(out), "--sentinel"]
        rc = self._timed("build", tracer, lambda: self._cli(argv, HashSink()))
        self.check.attempted += 1
        self.output_bytes["build"] = 0
        if rc != 0:
            self.check.fail(1, f"build exited with {rc}")
        else:
            data = out.read_bytes()
            if self.build_bytes is None:
                self.build_bytes = data
            elif data != self.build_bytes:
                self.check.fail(1, "build output differs between runs")

    def index_path(self) -> Path:
        return self.work / ("built.wgx" if self.wl.focus == "build" else "index.wgx")

    def latency_pass(self, wgnfa) -> list[float]:
        """Scaled time per match_interval call over the probe set, answers
        checked.  Blocks of LATENCY_BLOCK calls are bracketed by speed
        probes; no probe runs inside a call."""
        ix = wgnfa.serial.deserialize(self.index_path().read_bytes())
        match = wgnfa.matcher.match_interval
        clock = time.perf_counter
        spans = []
        rows = list(zip(self.probes, self.setup["probe_answers"]))
        for i, (p, row) in enumerate(rows):
            if i % LATENCY_BLOCK == 0:
                self.probe.probe()
            self.check.attempted += 1
            try:
                t0 = clock()
                res = match(ix, p)
                spans.append((t0, clock()))
            except Exception as exc:
                self.check.fail(1, f"match_interval raised {exc!r}")
                continue
            if Answer(res.lo, res.hi, res.count, res.accepted) != Answer(*row):
                self.check.fail(1, f"match_interval wrong for {p!r}")
        self.probe.probe()
        return [self.probe.scaled(a, b)[1] for a, b in spans]

    def lib_build(self, wgnfa) -> None:
        """parse_gnfa + build_index + serialize, as set-up builds the index
        of a query workload; the result must equal set-up's file."""
        gnfa = self.work / "input.gnfa"
        blob = None

        def call():
            nonlocal blob
            a = wgnfa.model.parse_gnfa(gnfa.read_bytes())
            blob = wgnfa.serial.serialize(wgnfa.index.build_index(a, with_sentinel=self.wl.sentinel))

        raw, scaled, _ = self.probe.time_call(call)
        self.times.setdefault("build", []).append((raw, scaled))
        self.check.attempted += 1
        if blob != self.index_path().read_bytes():
            self.check.fail(1, "library build differs from the set-up index")

    def heap_pass(self, wgnfa) -> dict:
        blob = self.index_path().read_bytes()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ix = wgnfa.serial.deserialize(blob)
            heap = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        del ix
        return {
            "heap_bytes": heap,
            "file_bytes": len(blob),
            "payload_bits": wgnfa.serial.payload_bits(blob),
        }


def _loop(fn, seconds: float, min_calls: int) -> int:
    """Closed loop: call again as soon as the last call returns."""
    calls = 0
    start = time.perf_counter()
    while calls < min_calls or time.perf_counter() - start < seconds:
        fn()
        calls += 1
    return calls


def phase_measure(args, wl, work: Path, wgnfa) -> dict:
    setup = json.loads((work / "setup.json").read_text())
    m = Measurement(wl, work, setup, wgnfa)
    focus = m.build if wl.focus == "build" else m.query
    # build-3k also answers its query set from the index it built
    secondary = m.query if wl.focus == "build" else None
    result = {"episodes": []}

    if not args.trace:
        _loop(focus, args.seconds, 3)
        if secondary:
            _loop(secondary, 0, 3)
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["latency_s"] = [m.latency_pass(wgnfa) for _ in range(LATENCY_PASSES)]
        if wl.focus == "query":
            _loop(lambda: m.lib_build(wgnfa), LIB_BUILD_SECONDS, 3)
    else:
        calls = _loop(focus, args.seconds / 3, 2)
        if secondary:
            _loop(secondary, 0, 2)
        tracer = Tracer()
        with tracer.installed():
            _loop(lambda: focus(tracer), 0, calls)
            if secondary:
                _loop(lambda: secondary(tracer), 0, 2)
        tracer.dump(str(work / "spans-measure.jsonl"))
        episodes = tracer.episodes()
        raw = {kind: iter(m.times[f"traced_{kind}"]) for kind in {ep["kind"] for ep in episodes}}
        for ep in episodes:
            ep["wall_s"] = next(raw[ep["kind"]])[0]
        result["episodes"] = episodes
        result["missing_targets"] = tracer.missing
    result["times"] = m.times

    result.update(m.heap_pass(wgnfa))
    result["output_bytes"] = m.output_bytes
    result["query_patterns"] = len(m.queries)
    result["query_symbols"] = sum(len(p) for p in m.queries)
    result["attempted"] = m.check.attempted
    result["failed"] = m.check.failed
    result["errors"] = m.check.errors
    import numpy

    result["numpy"] = numpy.__version__
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("phase", choices=["setup", "measure"])
    ap.add_argument("--work", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    wgnfa = _import_program(Path(args.src))
    wl = WORKLOADS[args.workload]
    work = Path(args.work)
    if args.phase == "setup":
        out = phase_setup(args, wl, work)
    else:
        out = phase_measure(args, wl, work, wgnfa)
    (work / f"{args.phase}.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
