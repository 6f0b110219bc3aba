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
those successors is also kept as a column, by time: ``next_out_gap[i]``
is how much later than edge i the first edge leaving edge i's target at
or after position i comes, or -1 if there is none.  It is the link the
chronological search follows from a matched edge to the next edge of a
path, and, since it is relative, a root can be tested against the window
without reading its own time.  A self-loop leaves its own target, so its
gap is 0.  A real gap is never negative, so -1 marks "no next send" for
any int times, however large.
Each node label is also kept in its JSON string form, so that matches
can be written out without encoding a label per line.

Both ways in, :func:`build_graph` on triples and ``io_cli.load_graph``
on a file, split the input into three columns (source labels, target
labels, times) and hand them to one builder.  It interns the labels in
order of first appearance, checks each distinct label once, sorts the
edges and fills the position lists and ``next_out_gap``.  Both report
the first malformed entry through one helper, so a file and its triples
name the same entry.  The builder alone pauses the cyclic garbage
collector, since nothing it allocates forms a cycle, and restores the
caller's state after; builds that overlap, nested or in other threads,
restore it when the last one ends.

A graph is a frozen dataclass of tuples and a read-only label index, so
nothing in it can change after :func:`build_graph`.  It is safe for
unrestricted concurrent read access.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, count
from json.encoder import encode_basestring_ascii
from operator import itemgetter
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
    ``next_out_gap[i]`` is the time of the first out-edge of
    ``targets[i]`` at a position ``i`` or later (the first entry from ``i``
    on in ``out_positions[targets[i]]``) less ``times[i]``, or -1 when
    there is none; a self-loop's is 0.  Build one with :func:`build_graph`.
    """

    sources: tuple[int, ...]
    targets: tuple[int, ...]
    times: tuple[int, ...]
    labels: tuple[str, ...]
    label_json: tuple[str, ...]
    label_index: Mapping[str, int]
    out_positions: tuple[tuple[int, ...], ...]
    in_positions: tuple[tuple[int, ...], ...]
    next_out_gap: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return f"TemporalGraph(nodes={self.node_count}, edges={len(self)})"

    def node_id(self, label) -> int:
        """The node id of ``label``, a str or an int (read as its str form,
        as :func:`build_graph` reads it); ValueError for a label of another
        type, a bool among them, or one the graph lacks."""
        if _not_a_label(type(label)):
            raise ValueError(f"node label {label!r} is not a string or an integer")
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


# Builds running at once, in any thread, and whether the last of them
# to finish re-enables the collector: the first to start reads the state.
_pause_lock = threading.Lock()
_pauses = 0
_resume = False


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for the block, then restore the
    state the first of the overlapping pauses found.  :func:`_build_columns`
    allocates no cycles, so a collector pass there would find nothing."""
    global _pauses, _resume
    with _pause_lock:
        if not _pauses:
            _resume = gc.isenabled()
            gc.disable()
        _pauses += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pauses -= 1
            if not _pauses and _resume:
                gc.enable()


def build_graph(edges: Iterable[tuple]) -> TemporalGraph:
    """Build a :class:`TemporalGraph` from (source, target, time) triples.

    Duplicate triples are retained as distinct parallel edges.  Labels
    must be strings or integers (not bools); an integer is read as its
    string form, and labels are interned into dense node ids in order of
    first appearance.  A time must be an integer (not a bool), and one of
    an int subclass is kept as the plain int of its value.  Each entry's
    shape and timestamp are checked as it is split into three columns
    (source labels, target labels, times), from which
    :func:`_build_columns` builds the graph.  An error names the first
    bad entry; within an entry, the shape is checked first (a sized
    object that is not a str or bytes, of length 3), then the labels,
    then the timestamp.  ``edges`` is iterated under the caller's
    collector setting; only the builder pauses it.
    """
    us, vs, ts = [], [], []
    for seq, item in enumerate(edges):
        if type(item) is not tuple and (isinstance(item, (str, bytes))
                                        or not hasattr(type(item), "__len__")):
            _first_fault(us, vs, GraphBuildError(
                seq, f"expected a (source, target, time) triple, got {item!r}"))
        if len(item) != 3:
            _first_fault(us, vs, GraphBuildError(seq, f"expected 3 fields, got {len(item)}"))
        u, v, t = item
        us.append(u)
        vs.append(v)
        if type(t) is not int:
            # bool is an int subclass but makes no sense as a timestamp
            if isinstance(t, bool) or not isinstance(t, int):
                _first_fault(us, vs, GraphBuildError(seq, f"timestamp {t!r} is not an integer"))
            t = int.__index__(t)  # the exact int, which formats as its digits
        ts.append(t)
    return _build_columns(us, vs, ts)


def _malformed(label: str) -> bool:
    # a leading "#" would make the saved line a comment that load_graph skips
    return label.split() != [label] or label[0] == "#"


def _not_a_label(kind: type) -> bool:
    return not issubclass(kind, (str, int)) or issubclass(kind, bool)


def _first_fault(us: list, vs: list, fault: Exception | None = None) -> None:
    """Raise GraphBuildError for the first entry of the label columns
    whose source or target label is neither a string nor an integer, or
    is malformed, or else ``fault``, found after those entries; return if
    there is none."""
    for seq, pair in enumerate(zip(us, vs)):
        for raw in pair:
            if _not_a_label(type(raw)):
                raise GraphBuildError(seq, f"label {raw!r} is not a string or an integer")
            if _malformed(str(raw)):
                raise GraphBuildError(seq, f"malformed label {raw!r}")
    if fault is not None:
        raise fault


@_collector_paused()
def _build_columns(us: list, vs: list, ts: list) -> TemporalGraph:
    """Build a :class:`TemporalGraph` from the edges ``(us[i], vs[i],
    ts[i])``, whose int times are not checked, with the cyclic collector
    paused.  If some label is not a str, the labels' types are checked,
    and an int is read as its str form; then each distinct label is
    checked once.  Only a bad one sends the builder back over the
    columns, for the first entry that holds it."""
    if not ts:
        raise EmptyGraphError("cannot build a graph from an empty edge list")
    try:
        label_index = dict.fromkeys(chain.from_iterable(zip(us, vs)))
    except TypeError:  # an unhashable label: no str, so the type check names it
        label_index = {None: None}
    mixed = not all(type(label) is str for label in label_index)
    # types are checked by type, since True and 1.0 are equal keys to 1
    if (mixed and any(map(_not_a_label, set(map(type, chain(us, vs)))))
            or any(map(_malformed, map(str, label_index) if mixed else label_index))):
        _first_fault(us, vs)
    if mixed:
        us, vs = list(map(str, us)), list(map(str, vs))
        label_index = dict.fromkeys(chain.from_iterable(zip(us, vs)))
    labels = tuple(label_index)
    label_index.update(zip(labels, count()))

    # The sort key uses the external labels so that exporting and
    # rebuilding reproduces the exact edge order regardless of id
    # assignment; the sort is stable, so exact duplicates keep their
    # input order.
    keyed = sorted(zip(ts, us, vs))
    times = tuple(map(itemgetter(0), keyed))
    sources = tuple(map(label_index.__getitem__, map(itemgetter(1), keyed)))
    targets = tuple(map(label_index.__getitem__, map(itemgetter(2), keyed)))
    del keyed  # the columns hold all it held, so free it before the lists grow

    out_positions: list[list[int]] = [[] for _ in labels]
    in_positions: list[list[int]] = [[] for _ in labels]
    # both lists take position i as the same int object
    for i, u, v in zip(range(len(times)), sources, targets):
        out_positions[u].append(i)
        in_positions[v].append(i)

    # One pass from the end: ``nxt[w]`` is the time of w's first out-edge
    # at or after the current position.
    nxt: list[int | None] = [None] * len(labels)
    next_out_gap = []
    for u, v, t in zip(reversed(sources), reversed(targets), reversed(times)):
        nxt[u] = t
        x = nxt[v]
        next_out_gap.append(-1 if x is None else x - t)
    next_out_gap.reverse()

    label_json = tuple(map(encode_basestring_ascii, labels))
    return TemporalGraph(
        sources, targets, times, labels, label_json, MappingProxyType(label_index),
        tuple(map(tuple, out_positions)), tuple(map(tuple, in_positions)), tuple(next_out_gap),
    )


def static_projection(g: TemporalGraph) -> frozenset[tuple[int, int]]:
    """The (source, target) pairs: timestamps dropped, parallel edges collapsed."""
    return frozenset(zip(g.sources, g.targets))
