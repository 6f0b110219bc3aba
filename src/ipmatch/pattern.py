"""Interaction patterns: small edge-ordered temporal graphs.

A pattern's edge timestamps are ordinal: only the strictly-before /
simultaneous relation between consecutive edges in the sorted edge list
matters to the matcher.  Rank-valued times 1..k are the recommended
input, which makes the pattern's duration equal to the number of
distinct ranks.

Patterns are frozen dataclasses, built by :func:`pattern_from_triples`
and freely shareable; :func:`validate_pattern` accepts at most
:data:`MAX_PATTERN_EDGES` edges.
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

    Self-loops are permitted and match graph self-loops.
    """

    source: int
    target: int
    time: int


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class PatternGraph:
    """Pattern with its edges sorted by time.

    Edge ``i`` is simultaneous with edge ``i-1`` when their times are
    equal and strictly after it otherwise.
    """

    node_count: int
    edges: tuple[PatternEdge, ...]

    def __repr__(self) -> str:
        return f"PatternGraph(nodes={self.node_count}, edges={len(self.edges)})"

    def times(self) -> tuple[int, ...]:
        return tuple(e.time for e in self.edges)


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
    preserved.  ``node_count`` defaults to max endpoint id + 1; a given
    one below 1 raises ``ValueError``.
    """
    edges = tuple(sorted((PatternEdge(u, v, t) for u, v, t in triples),
                         key=lambda e: e.time))
    if not edges:
        raise ValueError("a pattern needs at least one edge")
    if node_count is None:
        node_count = 1 + max(max(e.source, e.target) for e in edges)
    elif node_count < 1:
        raise ValueError(f"node count {node_count} is below 1")
    return PatternGraph(node_count, edges)


def validate_pattern(p: PatternGraph, delta: int) -> ValidationReport:
    """Check that ``p`` is a usable pattern for window ``delta``.

    Verifies that ``p`` has between one and :data:`MAX_PATTERN_EDGES`
    edges, the duration bound dur(P) <= delta, that the node count and
    every node id are exact ints (a bool or a float is refused), that node
    ids are dense (every endpoint in [0, node_count) and every id used by
    some edge), and that the sorted-order invariants hold.  The cost is
    linear in the edge count, whatever ``node_count`` says.
    """
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    violations: list[str] = []
    times = p.times()
    if not times:
        violations.append("pattern has no edges")
    else:
        dur = max(times) - min(times) + 1
        if dur > delta:
            violations.append(f"dur(P)={dur} exceeds delta={delta}")
    if len(times) > MAX_PATTERN_EDGES:
        violations.append(f"pattern has {len(times)} edges, limit is {MAX_PATTERN_EDGES}")
    count_ok = type(p.node_count) is int  # first, so that range() below never sees a float
    if not count_ok:
        violations.append(f"node count {p.node_count!r} is not an integer")
    seen: set[int] = set()
    outside: dict[int, None] = {}  # distinct out-of-range ids, in order of first use
    non_int: dict[str, object] = {}  # distinct ids that are not ints, by repr, in first-use order
    for e in p.edges:
        for node in (e.source, e.target):
            if type(node) is not int:
                non_int.setdefault(repr(node), node)
            elif count_ok and (node < 0 or node >= p.node_count):
                outside[node] = None
            else:
                seen.add(node)
    if non_int:
        violations.append(f"node ids are not integers: "
                          f"{_first_ten(non_int.values(), len(non_int))}")
    if outside:
        violations.append(f"node ids out of range 0..{p.node_count - 1}: "
                          f"{_first_ten(outside, len(outside))}")
    unused = p.node_count - len(seen) if count_ok and not non_int else 0
    if unused > 0:
        # the scan stops at the 10th unused id, having passed at most len(seen) others
        ids = (n for n in range(p.node_count) if n not in seen)
        violations.append(f"nodes without any edge: {_first_ten(ids, unused)}")
    for i in range(1, len(p.edges)):
        if p.edges[i - 1].time > p.edges[i].time:
            violations.append(f"edges out of time order at position {i}")
    return ValidationReport(tuple(violations))


def _first_ten(ids: Iterable[int], total: int) -> str:
    """The first ten of ``total`` ids, then how many more there are."""
    shown = list(islice(ids, 10))
    return f"{shown} and {total - len(shown)} more" if total > len(shown) else f"{shown}"
