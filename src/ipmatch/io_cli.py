"""File formats, reading a match line back, and the one search entry point.

Graph files use the SNAP temporal edge-list layout: one ``<source>
<target> <timestamp>`` line per edge, whitespace separated, ``#`` lines
skipped.  Pattern files are the same 3-column format preceded by a
``nodes <n>`` header.  Matches are emitted as JSON Lines, one object per
match, so every line is independently parseable: ``matcher`` writes
them, and :func:`match_from_dict` reads one back.

:func:`stream_search` is the one place a strategy name picks an engine
and a stream stops at its limit; ``run_search`` and ``bench`` take its
match stream, and the ``query`` command its stream of JSON lines.
Nothing here prints: errors are raised, and ``cli.main`` reports them.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
from dataclasses import dataclass
from typing import Optional, TextIO

from .baseline import brute_force, two_phase_search
from .matcher import InvalidPatternError, Match, match_json_line, search
from .pattern import PatternGraph, pattern_from_triples, validate_pattern
from .temporal_graph import (GraphBuildError, TemporalGraph, _build_columns, _first_fault,
                             static_projection)

DELTA_UNITS = {
    "raw": 1,
    "seconds": 1,
    "minutes": 60,
    "hours": 3600,
    "days": 86400,
}

STRATEGIES = ("simple", "index", "baseline", "oracle")


def effective_delta(delta: int, unit: str) -> int:
    """``delta`` in ``unit`` as raw time units; ValueError unless it is >= 1."""
    if unit not in DELTA_UNITS:
        raise ValueError(f"unknown delta unit {unit!r}")
    delta *= DELTA_UNITS[unit]
    if delta < 1:
        raise ValueError(f"delta must be >= 1 after unit conversion, got {delta}")
    return delta


class ParseError(ValueError):
    """Malformed input file; message carries path and line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


@dataclass(frozen=True)
class GraphSummary:
    nodes: int
    temporal_edges: int
    static_edges: int
    start: int
    end: int

    @property
    def span_days(self) -> float:
        """Time span in days assuming second-granularity timestamps."""
        return (self.end - self.start) / 86400.0


def _open_ascii(path: str) -> TextIO:
    """Open a text input; a non-ASCII byte decodes to a lone surrogate, so
    the caller can report it with its line instead of a decoder offset."""
    return open(path, "r", encoding="ascii", errors="surrogateescape")


def _parse_int(token: str, path: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(
            path, line_no, f"{what} {token!r} is not an integer"
        ) from None


def load_graph(path: str) -> TemporalGraph:
    """Read a SNAP-style temporal edge list.

    Timestamps must be integers; decimal values are rejected so that
    simultaneity stays exact.  An error names the first bad line; within
    a line, the bytes are checked first (ASCII), then the field count,
    then the labels, then the timestamp.  The parse appends each edge's
    fields to three columns (source labels, target labels, times), and
    the builder behind :func:`build_graph` makes the graph from them; no
    tuple is made per edge.  That builder pauses the cyclic garbage
    collector; the parse runs under the caller's setting.
    """
    us: list[str] = []
    vs: list[str] = []
    ts: list[int] = []
    try:
        with _open_ascii(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.isascii():
                    _first_fault(us, vs, ParseError(path, line_no, "non-ASCII byte"))
                fields = line.split()
                if not fields or fields[0][0] == "#":
                    continue
                if len(fields) != 3:
                    _first_fault(us, vs, GraphBuildError(
                        len(ts), f"expected 3 fields, got {len(fields)}"))
                u, v, raw_t = fields
                us.append(u)
                vs.append(v)
                try:
                    ts.append(int(raw_t))
                except ValueError:
                    _first_fault(us, vs, GraphBuildError(
                        len(ts), f"timestamp {raw_t!r} is not an integer"))
        if not ts:
            raise ParseError(path, 0, "no edges in file")
        return _build_columns(us, vs, ts)
    except GraphBuildError as exc:
        # only now find the bad entry's line, so a valid file costs nothing extra
        with _open_ascii(path) as fh:
            edge_lines = (n for n, line in enumerate(fh, start=1)
                          if line.lstrip()[:1] not in ("", "#"))
            line_no = next(itertools.islice(edge_lines, exc.entry, None), 0)
        raise ParseError(path, line_no, exc.reason) from None


def save_graph(g: TemporalGraph, path: str) -> None:
    """Write ``g`` as a graph file; ValueError, before any write, for a
    label that is not ASCII."""
    for label in g.labels:
        if not label.isascii():
            raise ValueError(f"label {label!r} is not ASCII, which graph files require")
    with open(path, "w", encoding="ascii") as fh:
        for u, v, t in g.export_edges():
            fh.write(f"{u} {v} {t}\n")


def graph_summary(g: TemporalGraph) -> GraphSummary:
    static_edges = len(static_projection(g))
    return GraphSummary(g.node_count, len(g), static_edges, g.times[0], g.times[-1])


def load_pattern(path: str) -> PatternGraph:
    """Read a pattern file: ``nodes <n>`` header then int triples."""
    triples: list[tuple[int, int, int]] = []
    node_count = None
    with _open_ascii(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                raise ParseError(path, line_no, "non-ASCII byte")
            fields = line.split()
            if not fields or fields[0][0] == "#":
                continue
            if node_count is None:
                if len(fields) != 2 or fields[0] != "nodes":
                    raise ParseError(path, line_no, "expected header 'nodes <n>'")
                node_count = _parse_int(fields[1], path, line_no, "node count")
                continue
            if len(fields) != 3:
                raise ParseError(path, line_no, f"expected 3 fields, got {len(fields)}")
            triples.append(tuple(
                _parse_int(f, path, line_no, w)
                for f, w in zip(fields, ("source", "target", "time"))
            ))
    if node_count is None:
        raise ParseError(path, 0, "missing 'nodes <n>' header")
    if not triples:
        raise ParseError(path, 0, "pattern has no edges")
    return pattern_from_triples(triples, node_count=node_count)


def save_pattern(p: PatternGraph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"nodes {p.node_count}\n")
        for e in p.edges:
            fh.write(f"{e.source} {e.target} {e.time}\n")


def match_from_dict(obj: dict, g: TemporalGraph, p: PatternGraph) -> Match:
    """Rebuild a match from its JSON form, accepting only what
    :func:`match_json_line` writes: ints (no bool, no float) as times,
    ``start``, ``end`` and ``dur``, str labels, and node keys "0" to "n-1".

    Exact duplicate edges are indistinguishable in the serialized form;
    each edge resolves to the first position with its endpoints and time
    that no earlier edge of the match took, which is equivalent for
    verification.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"match {obj!r} is not a JSON object")
    absent = [key for key in ("nodes", "edges", "start", "end", "dur") if key not in obj]
    if absent:
        raise ValueError(f"match has no {absent[0]!r}: {obj}")
    for key in ("start", "end", "dur"):
        if type(obj[key]) is not int:
            raise ValueError(f"{key} {obj[key]!r} is not an integer")
    nodes, edges = obj["nodes"], obj["edges"]
    if not isinstance(nodes, dict):
        raise ValueError(f"nodes {nodes!r} is not an object")
    if not isinstance(edges, list):
        raise ValueError(f"edges {edges!r} is not a list")
    keys = [str(i) for i in range(p.node_count)]
    odd = ([f"no label for pattern node {key!r}" for key in keys if key not in nodes]
           + [f"key {key!r} names no pattern node" for key in nodes if key not in keys])
    if odd:
        raise ValueError(f"{odd[0]} in nodes {nodes}")
    if len(edges) != len(p.edges):
        raise ValueError(f"expected {len(p.edges)} edges, got {len(edges)}: {edges}")

    def node_id(label) -> int:
        if type(label) is not str:
            raise ValueError(f"label {label!r} is not a string")
        return g.node_id(label)

    node_map = tuple(node_id(nodes[key]) for key in keys)
    targets, times = g.targets, g.times
    taken: set[int] = set()
    assignment: list[int] = []
    for edge in edges:
        if not isinstance(edge, list) or len(edge) != 3:
            raise ValueError(f"malformed edge {edge}, expected [source, target, time]")
        u_label, v_label, t = edge
        u, v = node_id(u_label), node_id(v_label)
        out = g.out_positions[u]
        # a time that is not an int matches no edge
        k = bisect.bisect_left(out, bisect.bisect_left(times, t)) if type(t) is int else len(out)
        while k < len(out) and times[out[k]] == t:
            pos = out[k]
            if targets[pos] == v and pos not in taken:
                break
            k += 1
        else:
            raise ValueError(f"no unused graph edge matches {edges}")
        taken.add(pos)
        assignment.append(pos)
    return Match(node_map, tuple(assignment), obj["start"], obj["end"], obj["dur"])


def stream_search(g: TemporalGraph, p: PatternGraph, delta: int, strategy: str,
                  limit: Optional[int] = None, lines: bool = False):
    """Start one query under any strategy; returns (matches, stats).

    ``matches`` is a closeable generator of at most ``limit`` matches in
    emitted order (by assigned edge positions); ``baseline`` and
    ``oracle`` search and sort every match in this call, so ``limit``
    bounds their output, not their work.  With ``lines`` it yields
    each match as its :func:`match_json_line` instead: ``simple`` and
    ``index`` run a kernel that formats the line itself, ``baseline`` and
    ``oracle`` encode their sorted matches.  ``stats`` (``SearchStats``,
    ``BaselineStats`` or None) is complete once the stream ends or is
    closed, and is the same in both modes.  An invalid pattern, a negative
    ``limit`` or an unknown strategy raises here."""
    report = validate_pattern(p, delta)
    if not report.ok:
        raise InvalidPatternError(report)
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if strategy in ("simple", "index"):
        matches, stats = search(g, p, delta, strategy == "index", lines)
    else:
        if strategy == "baseline":
            found, stats = two_phase_search(g, p, delta)
        elif strategy == "oracle":
            found, stats = brute_force(g, p, delta), None
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        found = sorted(found, key=lambda m: m.edge_assignment)
        matches = (match_json_line(m, g) for m in found) if lines else (m for m in found)
    if limit is not None:
        matches = _limited(matches, limit)
    return matches, stats


def _limited(stream, limit: int):
    """The first ``limit`` items of ``stream``, which is closed after them."""
    with contextlib.closing(stream):
        yield from itertools.islice(stream, limit)


def run_search(g: TemporalGraph, p: PatternGraph, delta: int, strategy: str,
               limit: Optional[int] = None):
    """:func:`stream_search` collected: returns (list of matches, stats)."""
    matches, stats = stream_search(g, p, delta, strategy, limit)
    return list(matches), stats
