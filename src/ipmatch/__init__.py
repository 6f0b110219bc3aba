"""Time-ordered search for interaction patterns in temporal graphs.

The engine finds every subgraph of a timestamped directed graph that
matches an edge-ordered pattern, preserves the pattern's temporal edge
order, and fits in a time window.  Candidate edges are generated either
by a linear scan of the time-ordered edge list or by walking per-node
time-sorted position lists; a two-phase static-then-temporal baseline
and an exhaustive oracle are included for comparison and testing.
"""

from .baseline import (
    BaselineStats,
    OracleSizeLimitError,
    brute_force,
    two_phase_search,
)
from .bench import (
    BenchPlan,
    BenchRow,
    QueryGenerationError,
    StrategyMismatchError,
    generate_path_query,
    generate_random_query,
    run_bench,
)
from .io_cli import (
    GraphSummary,
    ParseError,
    graph_summary,
    load_graph,
    load_pattern,
    match_from_dict,
    match_json_line,
    match_to_dict,
    run_search,
    save_graph,
    save_pattern,
    stream_search,
)
from .matcher import (
    InvalidPatternError,
    Match,
    SearchStats,
    VerifyResult,
    verify_match,
)
from .pattern import (
    PatternEdge,
    PatternGraph,
    Relation,
    ValidationReport,
    order_edges,
    pattern_from_triples,
    validate_pattern,
)
from .temporal_graph import (
    DurationUndefinedError,
    EmptyGraphError,
    GraphBuildError,
    TemporalGraph,
    build_graph,
    duration,
    static_projection,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineStats", "BenchPlan", "BenchRow", "DurationUndefinedError",
    "EmptyGraphError", "GraphBuildError", "GraphSummary",
    "InvalidPatternError", "Match", "OracleSizeLimitError", "ParseError",
    "PatternEdge", "PatternGraph", "QueryGenerationError", "Relation",
    "SearchStats", "StrategyMismatchError", "TemporalGraph",
    "ValidationReport", "VerifyResult", "brute_force", "build_graph",
    "duration", "generate_path_query", "generate_random_query",
    "graph_summary", "load_graph", "load_pattern", "match_from_dict",
    "match_json_line", "match_to_dict", "order_edges", "pattern_from_triples",
    "run_bench", "run_search", "save_graph", "save_pattern",
    "static_projection", "stream_search", "two_phase_search",
    "validate_pattern", "verify_match",
]
