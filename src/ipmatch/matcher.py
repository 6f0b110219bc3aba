"""Depth-first interaction-pattern search over the time-ordered edge list.

Pattern edges are matched one by one in their time order: the
chronological edge-driven search of the paper (also Mackey et al., "A
Chronological Edge-Driven Approach to Temporal Subgraph Isomorphism",
IEEE BigData 2018).  Each query first compiles the pattern into one step
per depth, recording which endpoints earlier edges have bound and which
structural test applies, so the search loop itself only compares ints.

Two strategies differ only in the candidate sequence of a depth:

* ``simple`` scans the flat edge list from the depth's start position.
* ``index`` walks the sorted position list of a bound endpoint (the
  out-edges of the bound source, or the in-edges of the bound target),
  found by one binary search on entering the depth and then stepped one
  entry at a time, so only edges incident to already-mapped nodes are
  touched.  With no endpoint bound it scans like ``simple``.

Both yield identical candidates in identical order; they differ only in
how many edges they examine.  A depth with no admissible candidate left
backtracks, an admitted one extends the partial match, and a complete
assignment is recorded and then popped so enumeration continues.

Candidate admissibility at depth d (pattern edge (u, v)):

* time order - strictly after the previous matched edge when the
  pattern step is STRICT, simultaneous when EQUAL;
* window - candidate time <= time(first matched edge) + delta - 1,
  which is exactly dur(match) <= delta for time-ordered matching;
* structure - endpoints agree with the partial node mapping, fresh
  pattern nodes get a graph node no other pattern node uses, and the
  edge is not already part of the partial match.

For an EQUAL step the scan starts at the beginning of the previous
edge's equal-time block, not after it: simultaneous graph edges sit at
adjacent but ordered positions and a valid assignment may pick them in
either position order.  Only an EQUAL step can meet an edge already on
the stack, so only it tests for one.

The search is a generator that yields each match as it completes it, so
a caller can stream, count or stop early without holding every match.
It keeps all of its state in its own locals; one graph may serve any
number of concurrent searches.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from .pattern import PatternGraph, Relation, ValidationReport, validate_pattern
from .temporal_graph import TemporalGraph


class InvalidPatternError(ValueError):
    """Search precondition failure; carries the validation report."""

    def __init__(self, report: ValidationReport):
        super().__init__(f"invalid pattern: {report}")
        self.report = report


@dataclass
class SearchStats:
    """Work counters for one search run."""

    candidates_examined: int = 0
    matches_found: int = 0
    max_depth_reached: int = 0
    pushes: int = 0
    pops: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "candidates_examined": self.candidates_examined,
            "matches_found": self.matches_found,
            "max_depth_reached": self.max_depth_reached,
            "pushes": self.pushes,
            "pops": self.pops,
        }


class Match(NamedTuple):
    """One complete match.

    ``node_map[i]`` is the graph node assigned to pattern node ``i``;
    ``edge_assignment[d]`` is the graph edge position assigned to the
    d-th pattern edge (in pattern list order).
    """

    node_map: tuple[int, ...]
    edge_assignment: tuple[int, ...]
    start: int
    end: int
    dur: int


class _Step(NamedTuple):
    """What the pattern fixes about one depth of the search.

    ``last_source`` / ``last_target`` give the depth of the latest earlier
    pattern edge incident to this edge's source / target, or -1 when this
    edge binds that node first.  Which nodes are bound at a depth depends
    only on the pattern's edge order, so this case analysis is done once
    per query instead of once per candidate.
    """

    source: int
    target: int
    last_source: int
    last_target: int
    equal: bool  # EQUAL step: same time as the previous matched edge
    test: int  # structural test, one of the constants below


# Structural tests, named by which endpoints are already bound.
_SOURCE = 0  # source bound: candidate leaves F[source] for an unused node
_FREE = 1  # neither bound: distinct unused endpoints
_TARGET = 2  # target bound: candidate enters F[target] from an unused node
_BOTH = 3  # both bound (a bound self-loop too): exactly F[source] -> F[target]
_LOOP = 4  # unbound self-loop: a self-loop on an unused node


def _compile(p: PatternGraph) -> tuple[_Step, ...]:
    latest: dict[int, int] = {}
    steps = []
    for d, pe in enumerate(p.edges):
        ls, lt = latest.get(pe.source, -1), latest.get(pe.target, -1)
        if pe.source == pe.target:
            test = _BOTH if ls >= 0 else _LOOP
        elif ls >= 0:
            test = _BOTH if lt >= 0 else _SOURCE
        else:
            test = _TARGET if lt >= 0 else _FREE
        equal = d > 0 and p.tags[d] is Relation.EQUAL
        steps.append(_Step(pe.source, pe.target, ls, lt, equal, test))
        latest[pe.source] = latest[pe.target] = d
    return tuple(steps)


def check_query(p: PatternGraph, delta: int, limit: Optional[int]) -> None:
    """InvalidPatternError for a pattern ``delta`` rejects, then ValueError
    for a negative ``limit``: the checks every strategy makes first."""
    report = validate_pattern(p, delta)
    if not report.ok:
        raise InvalidPatternError(report)
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")


def search(g: TemporalGraph, p: PatternGraph, delta: int, use_index: bool,
           limit: Optional[int], stats: SearchStats) -> Iterator[Match]:
    """Yield the matches of ``p`` in ``g`` within ``delta``, at most ``limit``.

    Depth-first discovery order is lexicographic in the edge assignment
    positions; ``use_index`` (position lists instead of the linear scan)
    changes only the work done.  On finishing or being closed, the
    generator writes its counters into ``stats``, so a stream closed after
    its k-th match reports the counters of a ``limit=k`` run.  It checks
    nothing: :func:`check_query` must accept ``(p, delta, limit)`` first,
    as ``io_cli.stream_search`` does.
    """
    times = g.times
    examined = pushes = pops = found = deepest = deadline = 0
    try:
        if limit == 0:
            return
        steps = _compile(p)
        sources, targets = g.sources, g.targets
        out_positions, in_positions = g.out_positions, g.in_positions
        n = len(times)
        every = range(n)
        never = times[0] - 1  # a time no edge has: disables the tie test
        last = len(steps) - 1
        F = [-1] * p.node_count  # graph node of each pattern node, valid once bound
        used = bytearray(g.node_count)  # 1 for graph nodes that F binds
        stack = [-1] * len(steps)  # matched edge position per depth, -1 above the top
        saved: list = [None] * len(steps)  # cursor state of each depth below the top

        # The cursor of the current depth: candidates are seq[k:end]; times
        # above ``stop`` end the depth, and a time equal to ``tie`` (the
        # previous edge's, on a STRICT step) is skipped.
        d = 0
        source, target, last_source, last_target, equal, test = steps[0]
        seq, k, end, stop, tie, fs, ft = every, 0, n, times[-1], never, -1, -1
        while True:
            j = -1
            while k < end:
                pos = seq[k]
                k += 1
                examined += 1
                t = times[pos]
                if t > stop:
                    break
                if t == tie or equal and pos in stack:
                    continue
                if test == _SOURCE:
                    if sources[pos] != fs or used[targets[pos]]:
                        continue
                elif test == _FREE:
                    a, b = sources[pos], targets[pos]
                    if a == b or used[a] or used[b]:
                        continue
                elif test == _TARGET:
                    if targets[pos] != ft or used[sources[pos]]:
                        continue
                elif test == _BOTH:
                    if sources[pos] != fs or targets[pos] != ft:
                        continue
                else:
                    a = sources[pos]
                    if a != targets[pos] or used[a]:
                        continue
                j = pos
                break

            if j < 0:  # depth exhausted: pop the edge below and resume its depth
                if d == 0:
                    break
                d -= 1
                source, target, last_source, last_target, equal, test = steps[d]
                seq, k, end, stop, tie, fs, ft = saved[d]
                if last_source < 0:
                    used[F[source]] = 0
                if last_target < 0:
                    used[F[target]] = 0
                stack[d] = -1
                pops += 1
                continue

            pushes += 1
            stack[d] = j
            if last_source < 0:
                F[source] = sources[j]
            if last_target < 0:
                F[target] = targets[j]
            if d == last:
                start = times[stack[0]]
                found += 1
                deepest = d + 1
                yield Match(tuple(F), tuple(stack), start, t, t - start + 1)
                if found == limit:
                    break
                stack[d] = -1
                pops += 1
                continue

            if last_source < 0:
                used[F[source]] = 1
            if last_target < 0:
                used[F[target]] = 1
            if d == 0:
                deadline = t + delta - 1
            saved[d] = (seq, k, end, stop, tie, fs, ft)
            d += 1
            if d > deepest:
                deepest = d
            source, target, last_source, last_target, equal, test = steps[d]
            fs, ft = F[source], F[target]
            if equal:
                # simultaneous edges may sit anywhere in the equal-time block,
                # also before the previous edge's position
                stop, tie, lo = t, never, bisect.bisect_left(times, t) - 1
            else:
                stop, tie, lo = deadline, t, j
            if use_index and (last_source >= 0 or last_target >= 0):
                # Walk a bound endpoint's position list.  With both bound, take
                # the one whose latest matched edge is later (ties: source).  A
                # STRICT step can start past every matched edge incident to a
                # bound endpoint, since the candidate must be later than all.
                ls = stack[last_source] if last_source >= 0 else -1
                lt = stack[last_target] if last_target >= 0 else -1
                if not equal:
                    lo = max(lo, ls, lt)
                seq = out_positions[fs] if ls >= lt else in_positions[ft]
                k, end = bisect.bisect_right(seq, lo), len(seq)
            else:
                seq, k, end = every, lo + 1, n
    finally:
        stats.candidates_examined, stats.matches_found = examined, found
        stats.max_depth_reached, stats.pushes, stats.pops = deepest, pushes, pops


@dataclass(frozen=True, slots=True)
class VerifyResult:
    violations: tuple[tuple[int, str], ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"condition {c}: {msg}" for c, msg in self.violations)


def verify_match(g: TemporalGraph, p: PatternGraph, delta: int, m: Match) -> VerifyResult:
    """Check a match against the three defining conditions, independently.

    1. structural: injective node mapping, one distinct graph edge per
       pattern edge, endpoints agree;
    2. temporal order preservation for every pair of pattern edges;
    3. duration within delta, with ``start``, ``end`` and ``dur`` those of
       the assigned edge times.
    """
    if len(m.node_map) != p.node_count or len(m.edge_assignment) != len(p.edges):
        raise ValueError("match shape does not fit the pattern")
    for pos in m.edge_assignment:
        if pos < 0 or pos >= len(g):
            raise ValueError(f"edge position {pos} out of range")
    violations: list[tuple[int, str]] = []

    if len(set(m.node_map)) != len(m.node_map):
        violations.append((1, "node mapping is not injective"))
    if len(set(m.edge_assignment)) != len(m.edge_assignment):
        violations.append((1, "a graph edge is assigned to two pattern edges"))
    sources, targets = g.sources, g.targets
    for i, pe in enumerate(p.edges):
        pos = m.edge_assignment[i]
        if sources[pos] != m.node_map[pe.source] or targets[pos] != m.node_map[pe.target]:
            violations.append((1, f"edge {i} endpoints disagree with the node mapping"))

    times = [g.times[pos] for pos in m.edge_assignment]
    for i in range(len(p.edges)):
        for j in range(i + 1, len(p.edges)):
            ti, tj = p.edges[i].time, p.edges[j].time
            gi, gj = times[i], times[j]
            if ti < tj and not gi < gj:
                violations.append((2, f"edges {i},{j} must be strictly ordered"))
            elif ti == tj and gi != gj:
                violations.append((2, f"edges {i},{j} must be simultaneous"))
            elif ti > tj and not gi > gj:
                violations.append((2, f"edges {i},{j} must be strictly ordered"))

    start, end = min(times), max(times)
    dur = end - start + 1
    if dur > delta:
        violations.append((3, f"dur={dur} exceeds delta={delta}"))
    if (m.start, m.end, m.dur) != (start, end, dur):
        violations.append((3, f"start, end, dur {m.start}, {m.end}, {m.dur} are not "
                              f"the edge times' {start}, {end}, {dur}"))
    return VerifyResult(tuple(violations))
