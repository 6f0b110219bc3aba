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
from .io_cli import (
    GraphSummary,
    ParseError,
    graph_summary,
    load_graph,
    load_pattern,
    match_from_dict,
    match_json_line,
    run_search,
    save_graph,
    save_pattern,
    stream_search,
)
from .matcher import (
    InvalidPatternError,
    Match,
    SearchStats,
    verify_match,
)
from .pattern import (
    PatternEdge,
    PatternGraph,
    ValidationReport,
    pattern_from_triples,
    validate_pattern,
)
from .temporal_graph import (
    EmptyGraphError,
    GraphBuildError,
    TemporalGraph,
    build_graph,
    static_projection,
)

__version__ = "0.1.0"

# The query generators and the sweep load with their first use, so that a
# process that only queries (``ipmatch query``) never imports them.
_BENCH_NAMES = frozenset({
    "BenchPlan", "BenchRow", "QueryGenerationError", "StrategyMismatchError",
    "generate_path_query", "generate_random_query", "run_bench",
})


def __getattr__(name: str):
    if name in _BENCH_NAMES:
        from . import bench
        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BaselineStats", "BenchPlan", "BenchRow", "EmptyGraphError",
    "GraphBuildError", "GraphSummary", "InvalidPatternError", "Match",
    "OracleSizeLimitError", "ParseError", "PatternEdge", "PatternGraph",
    "QueryGenerationError", "SearchStats", "StrategyMismatchError",
    "TemporalGraph", "ValidationReport", "brute_force", "build_graph",
    "generate_path_query", "generate_random_query", "graph_summary",
    "load_graph", "load_pattern", "match_from_dict", "match_json_line",
    "pattern_from_triples", "run_bench", "run_search", "save_graph",
    "save_pattern", "static_projection", "stream_search",
    "two_phase_search", "validate_pattern", "verify_match",
]
