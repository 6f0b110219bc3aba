"""Interaction patterns: small edge-ordered temporal graphs.

A pattern's edge timestamps are ordinal: only the strictly-before /
simultaneous relation between consecutive edges in the sorted edge list
matters to the matcher.  Rank-valued times 1..k are the recommended
input, which makes the pattern's duration equal to the number of
distinct ranks.

Patterns are frozen dataclasses, built by :func:`pattern_from_triples`
and freely shareable.  A pattern is well-formed by construction: its
edges are a tuple of :class:`PatternEdge`, at least one and sorted by
time, and its ids, node count and times are exact ints, its node count
at least 1.  What a pattern file can still get wrong,
:func:`validate_pattern` reports: a duration above the window, more
than :data:`MAX_PATTERN_EDGES` edges and node ids that are not dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Optional, Sequence

# The compiled kernel compares each fresh node with every bound one and
# hands every bound local to each 16-depth function, so its source and
# compile time grow with the square of the edge count: 0.14 MB at 100
# edges, 6 MB at 800.  64 keeps the deepest pinned shape (40 edges).
MAX_PATTERN_EDGES = 64


@dataclass(frozen=True, slots=True)
class PatternEdge:
    """Directed pattern edge over dense pattern node ids.

    Self-loops are permitted and match graph self-loops.  An endpoint or
    time that is not an exact int (a bool or a float is refused) raises
    ``ValueError``.
    """

    source: int
    target: int
    time: int

    def __post_init__(self) -> None:
        for name in ("source", "target", "time"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"pattern edge {name} {value!r} is not an integer")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class PatternGraph:
    """Pattern with its edges sorted by time.

    Edge ``i`` is simultaneous with edge ``i-1`` when their times are
    equal and strictly after it otherwise.  Edges that are not a tuple
    of :class:`PatternEdge`, no edges, a node count that is not an exact
    int or is below 1, and edges out of time order raise ``ValueError``.
    """

    node_count: int
    edges: tuple[PatternEdge, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.edges, tuple):
            raise ValueError(f"pattern edges must be a tuple, got {type(self.edges).__name__}")
        if not self.edges:
            raise ValueError("a pattern needs at least one edge")
        if type(self.node_count) is not int:
            raise ValueError(f"node count {self.node_count!r} is not an integer")
        if self.node_count < 1:
            raise ValueError(f"node count {self.node_count} is below 1")
        for i, e in enumerate(self.edges):
            if not isinstance(e, PatternEdge):
                raise ValueError(f"pattern edge {i} is a {type(e).__name__}, not a PatternEdge")
            if i and self.edges[i - 1].time > e.time:
                raise ValueError(f"edges out of time order at position {i}")

    def __repr__(self) -> str:
        return f"PatternGraph(nodes={self.node_count}, edges={len(self.edges)})"


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """What :func:`validate_pattern` or ``matcher.verify_match`` found wrong."""

    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(self.violations)


def pattern_from_triples(triples: Sequence[tuple[int, int, int]],
                         node_count: Optional[int] = None) -> PatternGraph:
    """The pattern of (source, target, time) int triples, sorted by time.

    The sort is stable, so input order among equal-time edges is
    preserved.  ``node_count`` defaults to max endpoint id + 1.  The
    constructors raise ``ValueError`` for no triples, a value that is not
    an exact int and a node count below 1, the default one included.
    """
    edges = tuple(sorted((PatternEdge(u, v, t) for u, v, t in triples),
                         key=lambda e: e.time))
    if node_count is None:
        node_count = 1 + max((max(e.source, e.target) for e in edges), default=0)
    return PatternGraph(node_count, edges)


def validate_pattern(p: PatternGraph, delta: int) -> ValidationReport:
    """Check that ``p`` is a usable pattern for window ``delta``.

    Reports, in this order, what a pattern file can get wrong: a duration
    dur(P) above ``delta``, more than :data:`MAX_PATTERN_EDGES` edges, and
    node ids that are not dense (an endpoint outside [0, node_count), or
    an id in that range that no edge uses).  Types and time order are the
    constructors' to check.  The cost is linear in the edge count,
    whatever ``node_count`` says.

    A ``delta`` that is not an exact int (a bool, a float, a NaN or a str
    is refused) or is below 1 raises ``ValueError`` instead.
    """
    if type(delta) is not int:
        raise ValueError(f"delta must be an integer, got {delta!r}")
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    ids = [node for e in p.edges for node in (e.source, e.target)]
    seen = {node for node in ids if 0 <= node < p.node_count}
    # distinct out-of-range ids, in order of first use
    outside = dict.fromkeys(node for node in ids if not 0 <= node < p.node_count)
    violations: list[str] = []
    dur = p.edges[-1].time - p.edges[0].time + 1
    if dur > delta:
        violations.append(f"dur(P)={dur} exceeds delta={delta}")
    if len(p.edges) > MAX_PATTERN_EDGES:
        violations.append(f"pattern has {len(p.edges)} edges, limit is {MAX_PATTERN_EDGES}")
    if outside:
        violations.append(f"node ids out of range 0..{p.node_count - 1}: "
                          f"{_first_ten(outside, len(outside))}")
    unused = p.node_count - len(seen)
    if unused:
        # the scan stops at the 10th unused id, having passed at most len(seen) others
        free = (n for n in range(p.node_count) if n not in seen)
        violations.append(f"nodes without any edge: {_first_ten(free, unused)}")
    return ValidationReport(tuple(violations))


def _first_ten(ids: Iterable[int], total: int) -> str:
    """The first ten of ``total`` ids, then how many more there are."""
    shown = list(islice(ids, 10))
    return f"{shown} and {total - len(shown)} more" if total > len(shown) else f"{shown}"
