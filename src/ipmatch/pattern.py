"""Interaction patterns: small edge-ordered temporal graphs.

A pattern's edge timestamps are ordinal: only the strictly-before /
simultaneous relation between consecutive edges in the sorted edge list
matters to the matcher.  Rank-valued times 1..k are the recommended
input, which makes the pattern's duration equal to the number of
distinct ranks.

Patterns are immutable after :func:`order_edges` and freely shareable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .temporal_graph import duration


class Relation(enum.Enum):
    """Order relation between consecutive edges of the sorted pattern list."""

    STRICT = "strict"  # previous edge happens strictly before this one
    EQUAL = "equal"  # previous edge is simultaneous with this one


@dataclass(frozen=True, slots=True)
class PatternEdge:
    """Directed pattern edge over dense pattern node ids.

    Self-loops are permitted and match graph self-loops.
    """

    source: int
    target: int
    time: int


class PatternGraph:
    """Pattern with its edges sorted by time and per-step relation tags.

    ``tags[i]`` relates edge ``i-1`` to edge ``i``; ``tags[0]`` is None.
    """

    __slots__ = ("node_count", "edges", "tags")

    def __init__(self, node_count: int, edges: tuple[PatternEdge, ...],
                 tags: tuple[Optional[Relation], ...]):
        self.node_count = node_count
        self.edges = edges
        self.tags = tags

    def __repr__(self) -> str:
        return f"PatternGraph(nodes={self.node_count}, edges={len(self.edges)})"

    def times(self) -> tuple[int, ...]:
        return tuple(e.time for e in self.edges)


@dataclass(frozen=True, slots=True)
class ValidationReport:
    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(self.violations)


def order_edges(edges: Sequence[PatternEdge], node_count: Optional[int] = None) -> PatternGraph:
    """Sort pattern edges by time and compute the relation tags.

    The sort is stable, so input order among equal-time edges is
    preserved.  ``node_count`` defaults to max endpoint id + 1.
    """
    if not edges:
        raise ValueError("a pattern needs at least one edge")
    ordered = tuple(sorted(edges, key=lambda e: e.time))
    if node_count is None:
        node_count = 1 + max(max(e.source, e.target) for e in ordered)
    tags: list[Optional[Relation]] = [None]
    for i in range(1, len(ordered)):
        equal = ordered[i - 1].time == ordered[i].time
        tags.append(Relation.EQUAL if equal else Relation.STRICT)
    return PatternGraph(node_count, ordered, tuple(tags))


def pattern_from_triples(triples: Sequence[tuple[int, int, int]],
                         node_count: Optional[int] = None) -> PatternGraph:
    """Convenience builder from (source, target, time) int triples."""
    edges = [PatternEdge(u, v, t) for u, v, t in triples]
    return order_edges(edges, node_count=node_count)


def validate_pattern(p: PatternGraph, delta: int) -> ValidationReport:
    """Check that ``p`` is a usable pattern for window ``delta``.

    Verifies the duration bound dur(P) <= delta, that node ids are dense
    (every endpoint in [0, node_count) and every id used by some edge),
    and that the sorted-order invariants hold.
    """
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    violations: list[str] = []
    dur = duration(p.times())
    if dur > delta:
        violations.append(f"dur(P)={dur} exceeds delta={delta}")
    seen: set[int] = set()
    for e in p.edges:
        for node in (e.source, e.target):
            if node < 0 or node >= p.node_count:
                violations.append(
                    f"node id {node} out of range 0..{p.node_count - 1}"
                )
            seen.add(node)
    missing = [n for n in range(p.node_count) if n not in seen]
    if missing:
        violations.append(f"nodes without any edge: {missing}")
    for i in range(1, len(p.edges)):
        if p.edges[i - 1].time > p.edges[i].time:
            violations.append(f"edges out of time order at position {i}")
    return ValidationReport(tuple(dict.fromkeys(violations)))
