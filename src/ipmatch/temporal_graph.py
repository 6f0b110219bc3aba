"""Time-ordered temporal graph representation.

A temporal graph here is a directed multigraph whose edges carry integer
timestamps.  The whole graph is stored as one flat edge list sorted by
(time, source label, target label, input sequence), held only as flat
columns (``sources``, ``targets``, ``times``, ``seqs``) indexed by list
position; no object is kept per edge.  Per node, the sorted positions of
its out-edges and of its in-edges are kept as well, so all in- or
out-edges of a node can be visited in time order without scanning the
full list: the next-in-time edge of a node is the successor of the
current position in that node's position list.
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
    list position ``i`` and ``seqs[i]`` is its index in the input that
    built the graph; ``out_positions[n]`` / ``in_positions[n]`` are
    the ascending positions of the edges leaving / entering node ``n``.
    ``label_json[n]`` is ``labels[n]`` as ``json.dumps`` writes it.
    Do not mutate any attribute after construction; use :func:`build_graph`.
    """

    __slots__ = (
        "sources",
        "targets",
        "times",
        "seqs",
        "node_count",
        "labels",
        "label_json",
        "label_index",
        "out_positions",
        "in_positions",
    )

    def __init__(
        self,
        sources: tuple[int, ...],
        targets: tuple[int, ...],
        times: tuple[int, ...],
        seqs: tuple[int, ...],
        labels: list[str],
        label_json: tuple[str, ...],
        label_index: dict[str, int],
        out_positions: list[list[int]],
        in_positions: list[list[int]],
    ):
        self.sources = sources
        self.targets = targets
        self.times = times
        self.seqs = seqs
        self.labels = labels
        self.label_json = label_json
        self.label_index = label_index
        self.node_count = len(labels)
        self.out_positions = out_positions
        self.in_positions = in_positions

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return f"TemporalGraph(nodes={self.node_count}, edges={len(self)})"

    def node_id(self, label: str) -> int:
        return self.label_index[str(label)]

    def node_label(self, node: int) -> str:
        return self.labels[node]

    def edge_at(self, pos: int) -> TemporalEdge:
        """The edge at list position ``pos``, assembled from the columns."""
        return TemporalEdge(
            self.sources[pos], self.targets[pos], self.times[pos], self.seqs[pos]
        )

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
    # a leading "#" would make the saved line a comment that load_graph skips
    if not label or label[0] == "#" or any(ch.isspace() for ch in label):
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

    def intern(raw, entry: int) -> str:
        label = _check_label(raw, entry)
        if label not in label_index:
            label_index[label] = len(labels)
            labels.append(label)
        return label

    # A str label is checked and interned when first seen; every later
    # occurrence is a dict hit.  The sort key uses the external labels so
    # that exporting and rebuilding reproduces the exact edge order
    # regardless of id assignment.  Input index i and list position i
    # share one int object: the seqs column and both position lists take
    # theirs from ``ints``.
    ints = list(range(len(edges)))
    keyed = []
    for seq, item in zip(ints, edges):
        if len(item) != 3:
            raise GraphBuildError(f"edge {seq}: expected 3 fields, got {len(item)}")
        u, v, t = item
        if type(u) is not str or u not in label_index:
            u = intern(u, seq)
        if type(v) is not str or v not in label_index:
            v = intern(v, seq)
        if type(t) is not int:
            t = _check_time(t, seq)
        keyed.append((t, u, v, seq))
    for raw in isolated:
        intern(raw, -1)

    keyed.sort()

    times, source_labels, target_labels, seqs = zip(*keyed) if keyed else ((),) * 4
    del keyed  # the columns hold all it held, so free it before the lists grow
    sources = tuple(map(label_index.__getitem__, source_labels))
    targets = tuple(map(label_index.__getitem__, target_labels))

    out_positions: list[list[int]] = [[] for _ in labels]
    in_positions: list[list[int]] = [[] for _ in labels]
    for i, u, v in zip(ints, sources, targets):
        out_positions[u].append(i)
        in_positions[v].append(i)

    label_json = tuple(map(encode_basestring_ascii, labels))
    return TemporalGraph(
        sources, targets, times, seqs, labels, label_json, label_index,
        out_positions, in_positions,
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
    return StaticGraph(g.node_count, frozenset(zip(g.sources, g.targets)))
