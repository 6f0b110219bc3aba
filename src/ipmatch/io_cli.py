"""File formats, match serialization, and the one search entry point.

Graph files use the SNAP temporal edge-list layout: one ``<source>
<target> <timestamp>`` line per edge, whitespace separated, ``#`` lines
skipped.  Pattern files are the same 3-column format preceded by a
``nodes <n>`` header.  Matches are emitted as JSON Lines, one object per
match, so every line is independently parseable.

:func:`stream_search` is the one place a strategy name picks an engine;
``run_search``, ``bench`` and the ``query`` command take its match stream.
Nothing here prints: errors are raised, and ``cli.main`` reports them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Optional, TextIO

from .baseline import brute_force, two_phase_search
from .matcher import Match, SearchStats, check_query, search
from .pattern import PatternGraph, pattern_from_triples
from .temporal_graph import GraphBuildError, TemporalGraph, build_graph, static_projection

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
    simultaneity stays exact.
    """
    edges: list[tuple[str, str, int]] = []
    append = edges.append
    with _open_ascii(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                raise ParseError(path, line_no, "non-ASCII byte")
            fields = line.split()
            if not fields or fields[0][0] == "#":
                continue
            if len(fields) != 3:
                raise ParseError(path, line_no, f"expected 3 fields, got {len(fields)}")
            u, v, raw_t = fields
            try:
                t = int(raw_t)
            except ValueError:
                _parse_int(raw_t, path, line_no, "timestamp")  # raises ParseError
            append((u, v, t))
    if not edges:
        raise ParseError(path, 0, "no edges in file")
    try:
        return build_graph(edges)
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


def match_to_dict(m: Match, g: TemporalGraph) -> dict:
    """JSON-ready view of a match, using the original external labels."""
    labels, sources, targets, times = g.labels, g.sources, g.targets, g.times
    return {
        "nodes": {str(i): labels[node] for i, node in enumerate(m.node_map)},
        "edges": [
            [labels[sources[pos]], labels[targets[pos]], times[pos]]
            for pos in m.edge_assignment
        ],
        "start": m.start,
        "end": m.end,
        "dur": m.dur,
    }


@functools.cache
def _line_format(nodes: int, edges: int) -> tuple[str, tuple[int, ...]]:
    """%-format of a match line, and the pattern node order of its ``nodes``.

    The keys are in ``json.dumps(sort_keys=True)`` order, which sorts the
    node keys as strings ("10" before "2").
    """
    order = tuple(sorted(range(nodes), key=str))
    return (
        '{"dur":%d,"edges":[' + ",".join(["[%s,%s,%d]"] * edges)
        + '],"end":%d,"nodes":{' + ",".join(f'"{i}":%s' for i in order)
        + '},"start":%d}'
    ), order


def match_json_line(m: Match, g: TemporalGraph) -> str:
    """``match_to_dict(m, g)`` as one compact, key-sorted JSON line.

    Byte-identical to ``json.dumps(match_to_dict(m, g), sort_keys=True,
    separators=(",", ":"))``, but formatted straight from the graph's
    columns and its JSON-encoded labels.
    """
    node_map, edge_assignment, start, end, dur = m
    fmt, order = _line_format(len(node_map), len(edge_assignment))
    label_json, sources, targets, times = g.label_json, g.sources, g.targets, g.times
    args = [dur]
    for pos in edge_assignment:
        args += (label_json[sources[pos]], label_json[targets[pos]], times[pos])
    args.append(end)
    args += [label_json[node_map[i]] for i in order]
    args.append(start)
    return fmt % tuple(args)


def match_from_dict(obj: dict, g: TemporalGraph, p: PatternGraph) -> Match:
    """Rebuild a match from its JSON form.

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
    nodes, edges = obj["nodes"], obj["edges"]
    if not isinstance(nodes, dict):
        raise ValueError(f"nodes {nodes!r} is not an object")
    if not isinstance(edges, list):
        raise ValueError(f"edges {edges!r} is not a list")
    missing = [str(i) for i in range(p.node_count) if str(i) not in nodes]
    if missing:
        raise ValueError(f"no label for pattern node {missing[0]!r} in nodes {nodes}")
    if len(edges) != len(p.edges):
        raise ValueError(f"expected {len(p.edges)} edges, got {len(edges)}: {edges}")
    node_map = tuple(g.node_id(nodes[str(i)]) for i in range(p.node_count))
    targets, times = g.targets, g.times
    taken: set[int] = set()
    assignment: list[int] = []
    for edge in edges:
        if not isinstance(edge, list) or len(edge) != 3:
            raise ValueError(f"malformed edge {edge}, expected [source, target, time]")
        u_label, v_label, t = edge
        u, v = g.node_id(u_label), g.node_id(v_label)
        out = g.out_positions[u]
        try:
            k = bisect.bisect_left(out, g.block_start(t))
        except TypeError:  # a time no int compares with matches no edge
            k = len(out)
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
                  limit: Optional[int] = None):
    """Start one query under any strategy; returns (matches, stats).

    ``matches`` is a closeable generator of at most ``limit`` matches in
    emitted order (by assigned edge positions); ``baseline`` and
    ``oracle`` search and sort in this call.  ``stats`` (``SearchStats``,
    ``BaselineStats`` or None) is complete once the stream ends or is
    closed.  An invalid pattern, a negative ``limit`` or an unknown
    strategy raises here."""
    check_query(p, delta, limit)
    if strategy in ("simple", "index"):
        stats = SearchStats()
        return search(g, p, delta, strategy == "index", limit, stats), stats
    if strategy == "baseline":
        found, stats = two_phase_search(g, p, delta)
    elif strategy == "oracle":
        found, stats = brute_force(g, p, delta), None
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    found = sorted(found, key=lambda m: m.edge_assignment)[:limit]
    return (m for m in found), stats


def run_search(g: TemporalGraph, p: PatternGraph, delta: int, strategy: str,
               limit: Optional[int] = None):
    """:func:`stream_search` collected: returns (list of matches, stats)."""
    matches, stats = stream_search(g, p, delta, strategy, limit)
    return list(matches), stats
