"""Spans recorded from outside the program by wrapping its public names.

A span is (name, start, end, parent).  Calls that happen once per
pattern symbol (the index operations and the rank/select calls under
them) would produce millions of spans on the long-pattern workload, so
each of those is folded into one record per (parent, name) that carries
the call count and summed duration.  Self time stays exact either way:
calls run one after another on one thread, so the time a record's
children cover is the sum of their durations.

Wrapping replaces the function object in every loaded `wgnfa` module
that binds it, not only in its home module.  `wgnfa.cli` imports
`validate`, `build_index`, `serialize`, `deserialize` and
`match_interval` by name; patching the home module alone would leave
those calls unrecorded.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name); one span per call
SPAN_TARGETS = [
    ("wgnfa.cli", "main", "cli"),
    ("wgnfa.model", "parse_gnfa", "model.parse"),
    ("wgnfa.model", "validate", "model.validate"),
    ("wgnfa.closure", "build_closure_arrays", "closure.build"),
    ("wgnfa.index", "build_index", "index.build"),
    ("wgnfa.serial", "serialize", "serial.serialize"),
    ("wgnfa.serial", "deserialize", "serial.deserialize"),
    ("wgnfa.matcher", "match_interval", "matcher.match"),
    ("wgnfa.matcher", "accepts", "matcher.accepts"),
]

INDEX_OPS = [
    "out_count",
    "max_prefix_with_in_at_most",
    "min_prefix_with_in_at_least",
    "min_state_with_len_k_label_ge",
    "max_state_with_suffix_label",
    "marker_floor",
    "marker_ceiling",
    "finals_in",
]

# (module, class, method, record name); folded per (parent, name)
FOLDED_TARGETS = [("wgnfa.index", "WheelerIndex", op, f"index.{op}") for op in INDEX_OPS] + [
    ("wgnfa.bitvec", "RankSelectBits", "rank1", "bitvec.rank1"),
    ("wgnfa.bitvec", "RankSelectBits", "select1", "bitvec.select1"),
]


class Record:
    __slots__ = ("id", "name", "parent", "root", "calls", "total", "start", "end", "ops", "symbols")

    def __init__(self, rid, name, parent, root):
        self.id = rid
        self.name = name
        self.parent = parent
        self.root = root
        self.calls = 0
        self.total = 0.0
        self.start = None
        self.end = None
        self.ops = 0  # matcher.match: index operations reported in trace.ops
        self.symbols = 0  # matcher.match: pattern symbols consumed


class Tracer:
    """Records spans for the calls made inside root() blocks."""

    def __init__(self):
        self.records: list[Record] = []
        self.roots: list[tuple[Record, str]] = []  # (root record, kind)
        self._stack: list[Record] = []
        self._folded: dict[tuple[int, str], Record] = {}
        self.missing: list[str] = []

    def _new(self, name: str) -> Record:
        parent = self._stack[-1] if self._stack else None
        rec = Record(
            len(self.records),
            name,
            None if parent is None else parent.id,
            None if parent is None else parent.root,
        )
        if parent is None:
            rec.root = rec.id
        self.records.append(rec)
        return rec

    @contextmanager
    def root(self, kind: str):
        """One episode (a set-up or one CLI call) of the given kind."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        rec = self._new(f"bench.{kind}")
        self.roots.append((rec, kind))
        self._stack.append(rec)
        rec.calls = 1
        rec.start = time.perf_counter()
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            rec.total = rec.end - rec.start
            self._stack.pop()

    def _span_wrapper(self, fn, name):
        stack = self._stack
        new = self._new

        def wrapped(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = new(name)
            rec.calls = 1
            stack.append(rec)
            rec.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = time.perf_counter()
                rec.total = rec.end - rec.start
                stack.pop()
            if name == "matcher.match":
                rec.symbols = len(args[1] if len(args) > 1 else kwargs["pattern"])
                rec.ops = getattr(getattr(result, "trace", None), "ops", 0)
            elif name == "closure.build":
                rec.ops = getattr(result, "edge_visits", 0)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _folded_wrapper(self, fn, name):
        stack = self._stack
        folded = self._folded
        new = self._new
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            key = (stack[-1].id, name)
            rec = folded.get(key)
            if rec is None:
                rec = folded[key] = new(name)
            stack.append(rec)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.total += clock() - t0
                rec.calls += 1
                stack.pop()

        wrapped.__wrapped__ = fn
        return wrapped

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "wgnfa" or name.startswith("wgnfa."))
        ]
        try:
            for mod_name, attr, name in SPAN_TARGETS:
                home = importlib.import_module(mod_name)
                fn = getattr(home, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapped = self._span_wrapper(fn, name)
                for mod in modules:
                    if getattr(mod, attr, None) is fn:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, fn))
            for mod_name, cls_name, attr, name in FOLDED_TARGETS:
                cls = getattr(importlib.import_module(mod_name), cls_name, None)
                fn = None if cls is None else cls.__dict__.get(attr)
                if fn is None:
                    self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                    continue
                setattr(cls, attr, self._folded_wrapper(fn, name))
                undo.append((cls, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    # -- results -------------------------------------------------------------

    def episodes(self) -> list[dict]:
        """Per root: its kind and its per-layer self times and counts."""
        child_total = [0.0] * len(self.records)
        for rec in self.records:
            if rec.parent is not None:
                child_total[rec.parent] += rec.total
        layers: dict[int, dict[str, float]] = {root.id: {} for root, _ in self.roots}
        for rec in self.records:
            if rec.parent is None:
                continue
            out = layers[rec.root]
            self_s = rec.total - child_total[rec.id]
            for key, value in _layer_values(rec, self_s):
                out[key] = out.get(key, 0) + value
        return [
            {"kind": kind, "layers": layers[root.id]}
            for root, kind in self.roots
        ]

    def dump(self, path: str) -> None:
        """Write every record as one JSON line."""
        with open(path, "w") as fh:
            for rec in self.records:
                row = {"id": rec.id, "name": rec.name, "parent": rec.parent}
                if rec.start is not None:
                    row["start"] = rec.start
                    row["end"] = rec.end
                else:
                    row["calls"] = rec.calls
                    row["total_s"] = rec.total
                fh.write(json.dumps(row) + "\n")


_SELF_METRIC = {
    "cli": "cli.self_s",
    "model.parse": "model.parse_s",
    "model.validate": "model.validate_s",
    "closure.build": "closure.build_s",
    "index.build": "index.build_s",
    "serial.serialize": "serial.serialize_s",
    "serial.deserialize": "serial.deserialize_s",
    "matcher.match": "matcher.match_s",
    "matcher.accepts": "matcher.accepts_s",
}


def _layer_values(rec: Record, self_s: float):
    name = rec.name
    if name in _SELF_METRIC:
        yield _SELF_METRIC[name], self_s
        if name == "matcher.match":
            yield "_match_incl_s", rec.total
            yield "_match_ops", rec.ops
            yield "_match_symbols", rec.symbols
        elif name == "closure.build":
            yield "closure.edge_visits", rec.ops
    elif name.startswith("bitvec."):
        yield "bitvec.s", self_s
        yield f"{name}.calls", rec.calls
    elif name.startswith("index."):
        yield f"{name}.s", self_s
        yield f"{name}.calls", rec.calls
