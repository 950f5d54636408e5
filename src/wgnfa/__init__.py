"""Succinct-style index and exact matcher for string-labeled automata
whose states are numbered in Wheeler order."""

from .bitvec import RankSelectBits
from .closure import (
    EpsilonClosureArrays,
    EpsilonCycleError,
    MarkerBits,
    build_closure_arrays,
    build_marker_bits,
)
from .crosscheck import crosscheck_instance
from .generate import (
    GenerationError,
    GenerationParams,
    build_piece_trie,
    generate_instance,
    sample_patterns,
)
from .index import WheelerIndex, build_index
from .matcher import (
    MatchTrace,
    QueryResult,
    SentinelInPatternError,
    accepts,
    match_interval,
    run_steps,
)
from .model import (
    EPSILON,
    SENTINEL,
    SENTINEL_BYTES,
    AutomatonSummary,
    GeneralizedAutomaton,
    GnfaFormatError,
    SentinelInLabelError,
    ValidationReport,
    colex_compare,
    colex_key,
    escape_label,
    format_gnfa,
    incoming_strings,
    parse_gnfa,
    parse_patterns,
    unescape_token,
    validate,
)
from .oracle import (
    ShapeViolation,
    brute_accepts,
    brute_below_count,
    brute_closure,
    brute_match,
)
from .samples import four_state_sample, ten_state_sample
from .serial import IndexFormatError, deserialize, payload_bits, serialize

__all__ = [
    "EPSILON",
    "SENTINEL",
    "SENTINEL_BYTES",
    "AutomatonSummary",
    "EpsilonClosureArrays",
    "EpsilonCycleError",
    "GenerationError",
    "GenerationParams",
    "GeneralizedAutomaton",
    "GnfaFormatError",
    "IndexFormatError",
    "MarkerBits",
    "MatchTrace",
    "QueryResult",
    "RankSelectBits",
    "SentinelInLabelError",
    "SentinelInPatternError",
    "ShapeViolation",
    "ValidationReport",
    "WheelerIndex",
    "accepts",
    "brute_accepts",
    "brute_below_count",
    "brute_closure",
    "brute_match",
    "build_closure_arrays",
    "build_index",
    "build_marker_bits",
    "build_piece_trie",
    "colex_compare",
    "colex_key",
    "crosscheck_instance",
    "deserialize",
    "escape_label",
    "format_gnfa",
    "four_state_sample",
    "generate_instance",
    "incoming_strings",
    "match_interval",
    "parse_gnfa",
    "parse_patterns",
    "payload_bits",
    "run_steps",
    "sample_patterns",
    "serialize",
    "ten_state_sample",
    "unescape_token",
    "validate",
]
