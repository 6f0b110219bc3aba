"""Time-ordered temporal graph representation.

A temporal graph here is a directed multigraph whose edges carry integer
timestamps.  The whole graph is stored as one flat edge list sorted by
(time, source label, target label, input sequence), held as three flat
columns (``sources``, ``targets``, ``times``) indexed by list position.
Per node, the sorted positions of its out-edges and of its in-edges are
kept as well, so all in- or out-edges of a node can be visited in time
order without scanning the full list: the next-in-time edge of a node is
the successor of the current position in that node's position list.
Each node label is also kept in its JSON string form, so that matches
can be written out without encoding a label per line.

Graphs are immutable after construction and safe for unrestricted
concurrent read access.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence


class EmptyGraphError(ValueError):
    """Raised when a graph is built from no edges and no declared nodes."""


class GraphBuildError(ValueError):
    """Raised for malformed labels or timestamps, naming the offending entry."""


class DurationUndefinedError(ValueError):
    """Raised when the duration of an empty edge set is requested."""


@dataclass(frozen=True, slots=True)
class TemporalEdge:
    """One timestamped directed interaction.

    ``input_seq`` is the position of the edge in the original input and is
    used only to break ties among otherwise identical sort keys.
    """

    source: int
    target: int
    time: int
    input_seq: int


@dataclass(frozen=True, slots=True)
class StaticGraph:
    """Timestamp-free projection: one directed edge per connected node pair."""

    node_count: int
    edges: frozenset[tuple[int, int]]


class TemporalGraph:
    """Flat time-ordered edge columns, per-node position lists, symbol table.

    ``sources[i]``, ``targets[i]`` and ``times[i]`` describe the edge at
    list position ``i``; ``out_positions[n]`` / ``in_positions[n]`` are
    the ascending positions of the edges leaving / entering node ``n``.
    ``label_json[n]`` is ``labels[n]`` as ``json.dumps`` writes it.
    Do not mutate any attribute after construction; use :func:`build_graph`.
    """

    __slots__ = (
        "edges",
        "sources",
        "targets",
        "times",
        "node_count",
        "labels",
        "label_json",
        "label_index",
        "multiplicity",
        "out_positions",
        "in_positions",
    )

    def __init__(
        self,
        edges: list[TemporalEdge],
        sources: tuple[int, ...],
        targets: tuple[int, ...],
        times: tuple[int, ...],
        labels: list[str],
        label_json: tuple[str, ...],
        label_index: dict[str, int],
        multiplicity: dict[tuple[int, int], list[int]],
        out_positions: list[list[int]],
        in_positions: list[list[int]],
    ):
        self.edges = edges
        self.sources = sources
        self.targets = targets
        self.times = times
        self.labels = labels
        self.label_json = label_json
        self.label_index = label_index
        self.node_count = len(labels)
        self.multiplicity = multiplicity
        self.out_positions = out_positions
        self.in_positions = in_positions

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"TemporalGraph(nodes={self.node_count}, edges={len(self.edges)})"

    def node_id(self, label: str) -> int:
        return self.label_index[str(label)]

    def node_label(self, node: int) -> str:
        return self.labels[node]

    def edge_at(self, pos: int) -> TemporalEdge:
        return self.edges[pos]

    def block_start(self, t: int) -> int:
        """Position of the first edge with time >= t."""
        return bisect.bisect_left(self.times, t)

    def export_edges(self) -> list[tuple[str, str, int]]:
        """Label triples in list order; rebuilding from them reproduces the graph."""
        return [
            (self.labels[u], self.labels[v], t)
            for u, v, t in zip(self.sources, self.targets, self.times)
        ]


def _check_label(raw, entry: int) -> str:
    label = str(raw)
    if not label or any(ch.isspace() for ch in label):
        raise GraphBuildError(f"edge {entry}: malformed label {raw!r}")
    return label


def _check_time(raw, entry: int) -> int:
    # bool is an int subclass but makes no sense as a timestamp
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise GraphBuildError(
            f"edge {entry}: timestamp {raw!r} is not an integer"
        )
    return raw


def build_graph(
    edges: Sequence[tuple],
    isolated_nodes: Iterable = (),
) -> TemporalGraph:
    """Build a :class:`TemporalGraph` from (source, target, time) triples.

    Duplicate triples are retained as distinct parallel edges.  Labels may
    be strings or integers; they are interned into dense node ids in order
    of first appearance.  ``isolated_nodes`` declares extra nodes that
    carry no edges (they only affect the node count and projection).
    """
    edges = list(edges)
    isolated = list(isolated_nodes)
    if not edges and not isolated:
        raise EmptyGraphError("cannot build a graph from an empty edge list")

    label_index: dict[str, int] = {}
    labels: list[str] = []

    def intern(label: str) -> int:
        node = label_index.get(label)
        if node is None:
            node = len(labels)
            label_index[label] = node
            labels.append(label)
        return node

    # Sort key uses the external labels so that exporting and rebuilding
    # reproduces the exact record order regardless of id assignment.
    keyed = []
    for seq, item in enumerate(edges):
        if len(item) != 3:
            raise GraphBuildError(f"edge {seq}: expected 3 fields, got {len(item)}")
        u, v, t = item
        su, sv = _check_label(u, seq), _check_label(v, seq)
        keyed.append((_check_time(t, seq), su, sv, seq))
        intern(su)
        intern(sv)
    for raw in isolated:
        intern(_check_label(raw, -1))

    keyed.sort()

    sources = tuple(label_index[k[1]] for k in keyed)
    targets = tuple(label_index[k[2]] for k in keyed)
    times = tuple(k[0] for k in keyed)

    multiplicity: dict[tuple[int, int], list[int]] = {}
    out_positions: list[list[int]] = [[] for _ in labels]
    in_positions: list[list[int]] = [[] for _ in labels]
    temporal_edges: list[TemporalEdge] = []
    for i, (t, _, _, seq) in enumerate(keyed):
        u, v = sources[i], targets[i]
        temporal_edges.append(TemporalEdge(u, v, t, seq))
        multiplicity.setdefault((u, v), []).append(i)
        out_positions[u].append(i)
        in_positions[v].append(i)

    label_json = tuple(map(encode_basestring_ascii, labels))
    return TemporalGraph(
        temporal_edges, sources, targets, times, labels, label_json,
        label_index, multiplicity, out_positions, in_positions,
    )


def _times_of(obj) -> list[int]:
    if isinstance(obj, TemporalGraph):
        return list(obj.times)
    # plain ints, or anything with a .time attribute such as TemporalEdge
    return [item if isinstance(item, int) else item.time for item in obj]


def duration(obj) -> int:
    """Latest minus earliest timestamp plus one, over a graph or edge set."""
    times = _times_of(obj)
    if not times:
        raise DurationUndefinedError("duration of an empty edge set is undefined")
    return max(times) - min(times) + 1


def static_projection(g: TemporalGraph) -> StaticGraph:
    """Drop timestamps and collapse parallel edges."""
    return StaticGraph(g.node_count, frozenset(g.multiplicity.keys()))
