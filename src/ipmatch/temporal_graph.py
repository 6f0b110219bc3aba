"""Time-ordered temporal graph representation.

A temporal graph here is a directed multigraph whose edges carry integer
timestamps.  The whole graph is stored as one flat edge list sorted by
(time, source label, target label), equal keys in input order, held only
as flat columns (``sources``, ``targets``, ``times``) indexed by list
position: an edge is its position, and no object is kept per edge.  Per
node, the sorted positions of its out-edges and of its in-edges are kept
as well, so all in- or out-edges of a node can be visited in time order
without scanning the full list: the next-in-time edge of a node is the
successor of the current position in that node's position list.  One of
those successors is also kept as a column, by time: ``next_out_time[i]``
is the time of the first edge leaving edge i's target after position i,
the link the chronological search follows from a matched edge to the
next edge of a path.
Each node label is also kept in its JSON string form, so that matches
can be written out without encoding a label per line.

A graph is a frozen dataclass of tuples and a read-only label index, so
nothing in it can change after :func:`build_graph`.  It is safe for
unrestricted concurrent read access.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import Iterable, Mapping


class EmptyGraphError(ValueError):
    """Raised when a graph is built from no edges."""


class GraphBuildError(ValueError):
    """Raised for malformed labels or timestamps, naming the offending entry."""

    def __init__(self, entry: int, reason: str):
        super().__init__(f"edge {entry}: {reason}")
        self.entry = entry
        self.reason = reason


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class TemporalGraph:
    """Flat time-ordered edge columns, per-node position lists, symbol table.

    ``sources[i]``, ``targets[i]`` and ``times[i]`` describe the edge at
    list position ``i``; ``out_positions[n]`` / ``in_positions[n]`` are
    the ascending positions of the edges leaving / entering node ``n``.
    ``label_json[n]`` is ``labels[n]`` as ``json.dumps`` writes it.
    ``next_out_time[i]`` is the time of the first out-edge of
    ``targets[i]`` at a position after ``i``, or None when there is none:
    the first entry after ``i`` in ``out_positions[targets[i]]``, by time.
    Build one with :func:`build_graph`.
    """

    sources: tuple[int, ...]
    targets: tuple[int, ...]
    times: tuple[int, ...]
    labels: tuple[str, ...]
    label_json: tuple[str, ...]
    label_index: Mapping[str, int]
    out_positions: tuple[tuple[int, ...], ...]
    in_positions: tuple[tuple[int, ...], ...]
    next_out_time: tuple[int | None, ...]

    @property
    def node_count(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return f"TemporalGraph(nodes={self.node_count}, edges={len(self)})"

    def node_id(self, label) -> int:
        """The node id of ``label``; ValueError for a label the graph lacks."""
        try:
            return self.label_index[str(label)]
        except KeyError:
            raise ValueError(f"unknown node label {label!r}") from None

    def export_edges(self) -> list[tuple[str, str, int]]:
        """Label triples in list order; rebuilding from them reproduces the graph."""
        return [
            (self.labels[u], self.labels[v], t)
            for u, v, t in zip(self.sources, self.targets, self.times)
        ]


def build_graph(edges: Iterable[tuple]) -> TemporalGraph:
    """Build a :class:`TemporalGraph` from (source, target, time) triples.

    Duplicate triples are retained as distinct parallel edges.  Labels may
    be strings or integers; they are interned into dense node ids in order
    of first appearance.
    """
    label_index: dict[str, int] = {}
    labels: list[str] = []

    def intern(raw, entry: int) -> str:
        label = str(raw)
        if label not in label_index:  # a label in the index passed this check
            # a leading "#" would make the saved line a comment that load_graph skips
            if not label or label[0] == "#" or any(ch.isspace() for ch in label):
                raise GraphBuildError(entry, f"malformed label {raw!r}")
            label_index[label] = len(labels)
            labels.append(label)
        return label

    # A label is checked and interned when first seen; every later
    # occurrence of a str label is a dict hit.  The sort key uses the external labels so
    # that exporting and rebuilding reproduces the exact edge order
    # regardless of id assignment; the sort is stable, so exact duplicates
    # keep their input order.
    keyed = []
    for seq, item in enumerate(edges):
        if len(item) != 3:
            raise GraphBuildError(seq, f"expected 3 fields, got {len(item)}")
        u, v, t = item
        if type(u) is not str or u not in label_index:
            u = intern(u, seq)
        if type(v) is not str or v not in label_index:
            v = intern(v, seq)
        # bool is an int subclass but makes no sense as a timestamp
        if type(t) is not int and (isinstance(t, bool) or not isinstance(t, int)):
            raise GraphBuildError(seq, f"timestamp {t!r} is not an integer")
        keyed.append((t, u, v))
    if not keyed:
        raise EmptyGraphError("cannot build a graph from an empty edge list")

    keyed.sort()

    times, source_labels, target_labels = zip(*keyed)
    del keyed  # the columns hold all it held, so free it before the lists grow
    sources = tuple(map(label_index.__getitem__, source_labels))
    targets = tuple(map(label_index.__getitem__, target_labels))

    out_positions: list[list[int]] = [[] for _ in labels]
    in_positions: list[list[int]] = [[] for _ in labels]
    # both lists take position i as the same int object
    for i, u, v in zip(range(len(times)), sources, targets):
        out_positions[u].append(i)
        in_positions[v].append(i)

    # One pass from the end: ``nxt[w]`` is the time of w's first out-edge
    # after the current position.  Edge i reads its target's before its
    # source's is moved to i, so a self-loop does not see itself.
    nxt: list[int | None] = [None] * len(labels)
    next_out_time = []
    for u, v, t in zip(reversed(sources), reversed(targets), reversed(times)):
        next_out_time.append(nxt[v])
        nxt[u] = t
    next_out_time.reverse()

    label_json = tuple(map(encode_basestring_ascii, labels))
    return TemporalGraph(
        sources, targets, times, tuple(labels), label_json, MappingProxyType(label_index),
        tuple(map(tuple, out_positions)), tuple(map(tuple, in_positions)),
        tuple(next_out_time),
    )


def static_projection(g: TemporalGraph) -> frozenset[tuple[int, int]]:
    """The (source, target) pairs: timestamps dropped, parallel edges collapsed."""
    return frozenset(zip(g.sources, g.targets))
