"""Depth-first interaction-pattern search over the time-ordered edge list.

Pattern edges are matched one by one in their time order: the
chronological edge-driven search of the paper (also Mackey et al., "A
Chronological Edge-Driven Approach to Temporal Subgraph Isomorphism",
IEEE BigData 2018).  Each query first compiles the pattern into one step
per depth: the edge's endpoints and whether it is simultaneous with the
previous edge.  From those steps it writes the search as Python source,
one nested ``for`` loop per depth, working out which endpoints earlier
depths have bound as it writes each one, with the bound nodes,
positions and times and the window deadline as plain locals and each
depth's time and structural tests written out once, so the loops only
compare ints (query compilation, as in Neumann, "Efficiently Compiling
Efficient Query Plans for Modern Hardware", VLDB 2011).  The compiled
code is cached per pattern shape, strategy and emit mode, and takes the
graph columns it reads as arguments, so one kernel serves every graph.
CPython refuses more than 20 nested blocks in one function, so a pattern
of more than 16 edges is split into generator functions of 16 depths
each, chained by ``yield from``.

Two strategies differ only in the candidate sequence of a depth:

* ``simple`` scans the flat edge list from the depth's start position.
* ``index`` walks the sorted position list of a bound endpoint (the
  out-edges of the bound source, or the in-edges of the bound target),
  found by one binary search on entering the depth and then stepped one
  entry at a time, so only edges incident to already-mapped nodes are
  touched.  The walk is entered only when its first entry is in time
  (the list is in time order, so that entry decides for the rest): a
  list with no entry left examines nothing, and one whose first entry is
  already later than the depth's bound (the deadline on a STRICT step,
  the previous edge's time on an EQUAL one) counts that entry as
  examined, as the loop's break would, and goes back up without building
  the walk.  An EQUAL step whose list holds an edge of its own equal-time
  run (a star's second edge, walking the centre's list) starts at that
  run's time, so it is entered untested.  A STRICT step that walks the
  out-edges of the previous edge's target from after that edge (the
  next edge of a chain) reads how much later its first entry comes from
  the graph's ``next_out_gap`` column instead (-1: there is none), and
  binary-searches the list only once that entry is in the window, with
  the same decisions and counts (after a self-loop it reads 0, since
  that edge leaves its own target, so the walk is simply entered);
  every other walk entry still searches first.  With no endpoint bound
  it scans like ``simple``.

When depth 1 is such a chain step and the root pattern edge is no
self-loop, the same test moves into the root loop, which then runs in C:
``compress`` lets through only the roots whose gap is at most the
window's span (or -1), so a root whose next send is already too late is
never visited.  A self-loop's gap is 0, so the loop visits it and
rejects it by structure; each root it skips is one the search would
have admitted and then ended at depth 1, examining one entry.  The
kernel counts the roots it visits and settles the skipped ones from that
count when its stream ends or is closed, so the counters are those of a
loop over every root.

Both yield identical candidates in identical order; they differ only in
how many edges they examine.  A depth with no admissible candidate left
backtracks, an admitted one (a push) extends the partial match, and a
complete assignment is yielded; the loop then moves on to the next
candidate, which pops the edge it admitted.  A stream closed at a yield
keeps its last match pushed, one edge per depth, so then ``pops ==
pushes - len(p.edges)``.

The counters are exact but cost no work per scanned candidate.  A scan
(the root's, every depth of ``simple`` and an ``index`` depth with no
endpoint bound) is counted from its loop position when the loop exits:
it has examined the positions from its start up to the one it stopped
at.  The root's admissions are its
examined edges less those it rejected by structure, the only count its
loop keeps.  A walk counts each entry it steps to, and every depth below
the root counts its admissions one by one.  A stream closed at a yield
leaves its scans live, so the kernel settles them as it is closed.

Candidate admissibility at depth d (pattern edge (u, v)):

* time order - strictly after the previous matched edge when the
  pattern edge is later than the previous pattern edge (a STRICT step),
  simultaneous when their times are equal (an EQUAL step);
* window - candidate time <= time(first matched edge) + delta - 1,
  which is exactly dur(match) <= delta for time-ordered matching;
* structure - endpoints agree with the partial node mapping, fresh
  pattern nodes get a graph node no other pattern node uses, and the
  edge is not already part of the partial match.

Below the root each depth tests them in this order: the time break (a
candidate past the deadline, or on an EQUAL step later than the previous
edge, ends the depth), then the bound endpoints its walked list does not
fix, which reject most candidates, then a STRICT step's tie with the
previous edge's time or an EQUAL step's edges of its own run, and last
it binds its fresh endpoints and tests that their nodes are not taken.
No test but the break counts anything, so the order changes no counter.

For an EQUAL step the scan starts at the beginning of the previous
edge's equal-time block, not after it: simultaneous graph edges sit at
adjacent but ordered positions and a valid assignment may pick them in
either position order.  The edges of one time are one contiguous block
of the time-ordered list, so each run of EQUAL steps finds that start
once.  When depth 1 is EQUAL the root loop keeps it as it visits the
roots (``b0``, updated whenever the root's time changes); a run that
starts deeper, at depth r, finds it by one binary search of the time
column at its first EQUAL step (``b{r}``).  Every step of the run starts
from it, and an ``index`` step that walks the same list as an earlier
step of its run takes that step's list and start index as they are.
Only an EQUAL step can meet an edge already in the partial match, and
only one of its own equal-time run, so only it tests for one, by
comparing positions with that run's.

The search is a generator that yields each match as it completes it, so
a caller can stream, count or stop early without holding every match.
It keeps all of its state in its own locals; one graph may serve any
number of concurrent searches.

The kernel is compiled in one of two emit modes, which do the same work
and count the same.  By default its last depth yields a :class:`Match`.
In line mode it yields the match's output line instead, its JSON line
ended by a newline, laid out by :func:`_line_layout` (the layout
:func:`match_json_line` fills from a ``Match``): the line is one
f-string written into the kernel, whose text is the layout's literals
and whose fields are the labels' JSON and the times it holds as locals,
so the compiled query produces its output itself, as Neumann's compiled
plans do, and no match is built and read back.  Most of a line does not change with the last edge: the kernel
formats those parts once per binding of the depth above, at its first
match, and each match fills in only what its last depth set
(loop-invariant code motion, done as the kernel is written).  The
newline is part of the closing text, so on a chain it is formatted with
the rest of its run, and a writer takes each line as it comes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import re
from dataclasses import asdict, dataclass
from typing import Iterator, NamedTuple

from .pattern import PatternGraph, ValidationReport
from .temporal_graph import TemporalGraph


class InvalidPatternError(ValueError):
    """Search precondition failure; carries the validation report."""

    def __init__(self, report: ValidationReport):
        super().__init__(f"invalid pattern: {report}")
        self.report = report


@dataclass
class SearchStats:
    """Work counters for one search run.

    ``pushes`` counts the candidates admitted at every depth and ``pops``
    the admitted edges given up again; ``matches_found`` is the pushes at
    the last depth and ``max_depth_reached`` the number of depths that
    admitted a candidate.  A search that runs out pops every push.  One
    closed at a yield still holds its last match, one edge per pattern
    edge, so then ``pops`` is ``pushes`` minus the number of pattern edges.

    The kernel writes them once, when its stream finishes or is closed.  A
    scan's ``candidates_examined`` is settled from its loop position as
    the loop exits, and a scan still live when the stream is closed is
    settled then, so each count is the same as one added per candidate.
    """

    candidates_examined: int = 0
    matches_found: int = 0
    max_depth_reached: int = 0
    pushes: int = 0
    pops: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


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
    """What the pattern states about one depth of the search: its edge's
    endpoints, and whether it is an EQUAL step (same time as the previous
    pattern edge) or a STRICT one.  Which endpoints earlier depths bound
    is worked out by :func:`_kernel_source` as it writes the loops."""

    source: int
    target: int
    equal: bool


def _compile(p: PatternGraph) -> tuple[_Step, ...]:
    edges = p.edges
    return tuple(_Step(pe.source, pe.target, d > 0 and pe.time == edges[d - 1].time)
                 for d, pe in enumerate(edges))


def search(g: TemporalGraph, p: PatternGraph, delta: int, use_index: bool,
           lines: bool = False) -> tuple[Iterator[Match] | Iterator[str], SearchStats]:
    """A generator of the matches of ``p`` in ``g`` within ``delta``, run by
    the kernel compiled for ``p``'s shape (built by the first call for that
    shape, then cached), and the :class:`SearchStats` it fills.  With
    ``lines`` it yields each match as its :func:`match_json_line` and a
    newline instead of a :class:`Match`, with the same counters.

    Depth-first discovery order is lexicographic in the edge assignment
    positions; ``use_index`` (position lists instead of the linear scan)
    changes only the work done.  The generator writes its counters into
    the stats when it finishes or is closed, so a stream closed after its
    k-th match reports the work of its first k matches.  It checks
    nothing: ``io_cli.stream_search`` validates the pattern against
    ``delta`` first.
    """
    kernel, columns = _kernel(_compile(p), use_index, lines)
    stats = SearchStats()
    return kernel(*[getattr(g, c) for c in columns], delta, stats), stats


_LineItem = str | tuple[str, int]


def _line_layout(nodes: int, edges: int) -> tuple[_LineItem, ...]:
    """The one layout of a match line: its literal text and its fields, in
    order.  A field is a role and an index: ``("dur", 0)``, ``("source",
    k)``, ``("target", k)`` and ``("time", k)`` of pattern edge k,
    ``("end", 0)``, ``("node", i)`` for pattern node i and ``("start", 0)``.

    The line is ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
    of ``{"nodes": {"<i>": label}, "edges": [[source, target, time], ...],
    "start", "end", "dur"}``, with each label JSON-encoded already.  The
    node keys sort as strings ("10" before "2").
    """
    items: list[_LineItem] = ['{"dur":', ("dur", 0), ',"edges":[']
    for k in range(edges):
        items += ["," * (k > 0) + "[", ("source", k), ",", ("target", k), ",", ("time", k), "]"]
    items += ['],"end":', ("end", 0), ',"nodes":{']
    for j, i in enumerate(sorted(range(nodes), key=str)):
        items += [f'{"," * (j > 0)}"{i}":', ("node", i)]
    return tuple(items + ['},"start":', ("start", 0), "}"])


def _line_fill(items: tuple[_LineItem, ...], expr: dict) -> str:
    """Source of the f-string of ``items``: each literal with its braces
    doubled, each field as ``{expr[role](index)}`` (a ``str.format`` bound
    to a pattern, or a function of the index).  A field is an int, or
    a label's JSON or a run of text read at run time, so no label ever
    enters the source."""
    return "f" + repr("".join(x.replace("{", "{{").replace("}", "}}") if isinstance(x, str)
                              else f"{{{expr[x[0]](x[1])}}}" for x in items))


def match_json_line(m: Match, g: TemporalGraph) -> str:
    """``m`` as one compact JSON object, in the graph's external labels.

    The object has the keys ``dur``, ``edges``, ``end``, ``nodes`` and
    ``start``, in that order, and no whitespace.  ``nodes`` maps each
    pattern node id, as a string, to the label of its graph node, with
    the keys sorted as strings ("10" before "2"); ``edges`` lists each
    pattern edge's assigned graph edge as ``[source label, target label,
    time]``.  It is what ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"))`` writes for that object, but filled straight
    from the graph's columns and its JSON-encoded labels by a writer
    compiled once per match shape (see :func:`_writer_source`).
    """
    return _writer(len(m[0]), len(m[1]))(m, g.label_json, g.sources, g.targets, g.times)


def _writer_source(nodes: int, edges: int) -> str:
    """Python source of the line writer of a match of ``nodes`` pattern
    nodes and ``edges`` pattern edges: it unpacks the match once, as
    ``v{i}`` and ``p{k}``, and returns one f-string of
    :func:`_line_layout`.  Only ints, fixed names and the layout's
    literals enter it."""
    expr = {"dur": "dur".format, "end": "end".format, "start": "start".format,
            "node": "label_json[v{}]".format, "source": "label_json[sources[p{}]]".format,
            "target": "label_json[targets[p{}]]".format, "time": "times[p{}]".format}
    return (
        "def _w(m, label_json, sources, targets, times):\n"
        f"    ({', '.join(f'v{i}' for i in range(nodes))},), "
        f"({', '.join(f'p{k}' for k in range(edges))},), start, end, dur = m\n"
        f"    return {_line_fill(_line_layout(nodes, edges), expr)}\n")


@functools.lru_cache(maxsize=64)
def _writer(nodes: int, edges: int):
    """The compiled :func:`_writer_source` of one match shape."""
    exec(compile(_writer_source(nodes, edges), "<ipmatch line writer>", "exec"), namespace := {})
    return namespace["_w"]


def _line_split(steps: tuple[_Step, ...]) -> tuple[tuple[_LineItem, ...],
                                                   tuple[tuple[_LineItem, ...], ...]]:
    """The line kernel's layout: the items of its yield's f-string, and
    its runs.

    The layout is :func:`_line_layout`'s with a newline after its closing
    brace, so each item the kernel yields is a whole output line.  The
    last depth sets ``dur``, ``end``, its own edge's time and the
    labels of the nodes it binds first; every other field is known once
    the depth above has bound its edge.  Each stretch of the layout
    between two last-depth fields that holds such an earlier field is one
    run, which the kernel writes as an f-string of its own, filled once
    per binding of the depth above, and the yield takes as a ``("run",
    j)`` field.  A single-edge pattern has no depth above, so its yield
    is an f-string of the whole layout.
    """
    m = len(steps)
    *items, close = _line_layout(_node_count(steps), m)
    items = (*items, close + "\n")
    if m == 1:
        return items, ()
    earlier = {s.source for s in steps[:-1]} | {s.target for s in steps[:-1]}

    def last(x: _LineItem) -> bool:
        if isinstance(x, str):
            return False
        role, k = x
        return (role in ("dur", "end") or x == ("time", m - 1)
                or role == "source" and steps[k].source not in earlier
                or role == "target" and steps[k].target not in earlier
                or role == "node" and k not in earlier)

    out: list[_LineItem] = []
    runs: list[tuple[_LineItem, ...]] = []
    for is_last, group in itertools.groupby(items, last):
        stretch = tuple(group)
        if is_last or all(isinstance(x, str) for x in stretch):
            out += stretch
        else:
            out.append(("run", len(runs)))
            runs.append(stretch)
    return tuple(out), tuple(runs)


def _node_count(steps: tuple[_Step, ...]) -> int:
    return 1 + max(max(s.source, s.target) for s in steps)


@functools.lru_cache(maxsize=64)
def _kernel(steps: tuple[_Step, ...], use_index: bool, lines: bool):
    """The compiled search of one pattern shape in match or line mode, and
    the names of the graph columns it takes, in order; it serves every
    graph."""
    namespace = {"bisect_left": bisect.bisect_left, "bisect_right": bisect.bisect_right,
                 "compress": itertools.compress, "ge": operator.ge, "islice": itertools.islice,
                 "repeat": itertools.repeat, "new": tuple.__new__, "Match": Match}
    exec(compile(_kernel_source(steps, use_index, lines), "<ipmatch kernel>", "exec"), namespace)
    code = namespace["_k0"].__code__  # its arguments: the columns, then ``delta, stats``
    return namespace["_k0"], code.co_varnames[:code.co_argcount - 2]


# The graph columns a kernel may read, in the order its signature names them.
_COLUMNS = ("sources", "targets", "times", "out_positions", "in_positions", "next_out_gap",
            "label_json")

# Depths per generated function: CPython refuses more than 20 statically
# nested blocks, and a function spends one on its ``try`` and one per depth.
_CHUNK = 16


def _later(steps: tuple[_Step, ...], x: int, y: int) -> bool:
    """Whether depth x's edge position is never below depth y's: every
    STRICT step starts after the previous edge, an EQUAL step may not."""
    return x == y or x > y and not any(s.equal for s in steps[y + 1:x + 1])


def _run_start(steps: tuple[_Step, ...], d: int) -> int:
    """The first depth of depth d's equal-time run: the root or a STRICT step."""
    return max(r for r in range(d + 1) if r == 0 or not steps[r].equal)


def _kernel_source(steps: tuple[_Step, ...], use_index: bool, lines: bool = False) -> str:
    """Python source of the search over ``steps``: one nested ``for`` per
    depth, in generator functions ``_k0``, ``_k1``, ... of at most
    ``_CHUNK`` depths, each handing its bound locals to the next through
    ``yield from``.  Pattern node i is bound to graph node ``v{i}``, and
    depth d to edge position ``p{d}`` at time ``t{d}``.  Only ints, fixed
    names and, in line mode, the line layout's literals enter the source.

    Each function keeps per-depth counters ``e{d}`` (examined) and
    ``c{d}`` (admitted) and adds them into ``stats`` in its ``finally``;
    ``_k0`` then sets ``pops``.  A scan counts what it examined from its
    loop position, not per candidate: the root scan has examined
    ``p0 + 1`` edges and admitted those less ``r0``, its structural
    rejections.  An ``index`` root loop that skips roots by their
    ``next_out_gap`` (see the module docstring) also counts the roots it
    visits as ``w0``; each skipped root up to ``p0`` adds one to ``e1``.
    The last edge's gap is -1, or 0 for a self-loop, so that loop, too,
    ends at ``p0 == n - 1``.  When depth 1 is EQUAL, the root loop reads
    ``t0`` before its tests and keeps ``b0``, the position where the
    block of time ``tb`` starts; a deeper run's block start ``b{r}`` is
    handed on to the next function with the other locals when the run
    goes on there.  A deeper scan binds its start as ``q{d}`` and adds
    ``p{d} - q{d}`` when its loop exits.  A walk adds one per entry it
    steps to.  A stream closed at a yield leaves every scan of
    each function live, so each function settles them as
    ``GeneratorExit`` passes through it, before its ``finally`` runs.

    The last depth yields a :class:`Match`, or with ``lines`` the match's
    JSON line and its newline, filled from the locals and one more column,
    ``label_json``.
    For a pattern of two or more edges the line is split by
    :func:`_line_split`: the code writes ``h0 = None`` just before the last
    depth, and that depth's first match under a binding of the depth above
    sets each run ``h{j}`` to the f-string of its stretch (``if h0 is
    None:``).  The yield is one f-string of the runs and the fields the
    last depth set.  The f-strings' text is the layout's literals and
    their fields are locals and ``label_json`` entries, so a label is
    read only at run time, as text.  A last depth that opens a new
    function resets its runs once per call.  A single-edge pattern's
    yield is an f-string of the whole line.  Every function takes the
    graph columns that the whole source names, in ``_COLUMNS`` order.
    """
    m = len(steps)
    nodes = _node_count(steps)
    strict = any(not s.equal for s in steps[1:])
    # An index chain whose root is no self-loop visits only the roots whose
    # next send is in the window or absent; see the chain entry below.
    skips = (use_index and m > 1 and not steps[1].equal
             and steps[1].source == steps[0].target != steps[0].source)
    # When depth 1 is EQUAL, the root loop keeps the start of its edge's
    # time block as ``b0``, for every step of the root's run to start from.
    blocks = m > 1 and steps[1].equal
    bound: dict[int, int] = {}  # pattern node -> last depth above that touched it
    src: list[str] = []

    def taken(i: int) -> list[str]:  # tests that v{i}'s graph node is already bound
        return [f"v{i} == v{j}" for j in sorted(bound)]

    for a in range(0, m, _CHUNK):  # one function for depths a .. b-1
        b = min(a + _CHUNK, m)
        counters = [f"e{d}" for d in range(a, b)] + [f"c{d}" for d in range(a, b)]
        scans: list[int] = []  # this function's scans below the root, outermost first
        starts: dict[tuple[str, str], int] = {}  # (walked list, start) -> its depth
        if a == 0:
            src += ["def _k0(COLUMNS, delta, stats):",
                    f"    n, held, p0 = len(times), {m}, -1"]
            if strict:
                src.append("    span = delta - 1")
            if blocks:
                src.append("    tb = None")
        else:  # ``live``: what the previous function's last depth hands on
            src.append(f"def _k{a // _CHUNK}(COLUMNS, n, stats, {', '.join(live)}):")
        # the root's e0 and c0 are worked out from p0 and r0 in ``finally``
        zeroed = [c for c in counters if c not in ("e0", "c0")] + ["r0"] * (a == 0)
        zeroed += ["w0"] * (a == 0 and skips)
        src += ["    " + " = ".join(zeroed) + " = 0", "    try:"]
        for d in range(a, b):
            s = steps[d]
            r = _run_start(steps, d)
            run = range(r, d)  # the earlier depths of this step's run (none if STRICT)
            ind = "        " + "    " * (d - a)
            walked = None  # the column the walked position list fixes
            ls, lt = bound.get(s.source, -1), bound.get(s.target, -1)
            walk = d > 0 and use_index and (ls >= 0 or lt >= 0)
            if lines and d == m - 1 > 0:  # the runs of a new binding of the depth above
                src.append(f"{ind}h0 = None")
            if d == 0:
                header = ("compress(range(n), map(ge, repeat(span), next_out_gap))" if skips
                          else "range(n)")
            elif s.equal:  # the run's block starts at b{r}, found at its first EQUAL step
                if d == r + 1 and r > 0:
                    src.append(f"{ind}b{r} = bisect_left(times, t{r})")
                lo = f"b{r} - 1"
            else:
                lo = f"p{d - 1}"
            if walk:
                # Walk a bound endpoint's position list: with both bound, the
                # one whose latest matched edge is later (ties: source).  A
                # STRICT step starts past every matched edge at either end.
                if lt < 0 or ls >= 0 and _later(steps, ls, lt):
                    walked, seq = "sources", f"out_positions[v{s.source}]"
                elif ls < 0 or _later(steps, lt, ls):
                    walked, seq = "targets", f"in_positions[v{s.target}]"
                else:
                    seq = (f"out_positions[v{s.source}] if p{ls} >= p{lt} "
                           f"else in_positions[v{s.target}]")
                if not s.equal:
                    deps = {x for x in (d - 1, ls, lt) if x >= 0}
                    top = [x for x in sorted(deps) if not any(
                        y != x and _later(steps, y, x) for y in deps)]
                    lo = ", ".join(f"p{x}" for x in top)
                    lo = lo if len(top) == 1 else f"max({lo})"
                e = starts.setdefault((seq, lo), d)  # e < d: e walked this list from here
                entry = ([f"{ind}s{d}, k{d} = s{e}, k{e}"] if e < d else
                         [f"{ind}s{d} = {seq}", f"{ind}k{d} = bisect_right(s{d}, {lo})"])
                # Enter the walk only if its first entry is in time; one that is
                # not is examined, as the loop's break would count it.  A walk
                # of a list that holds an edge of this equal-time run starts at
                # time t{d-1}, so it is not tested; nor is a chunk's first
                # depth, which has no enclosing loop to go on with.
                outs = any(steps[r].source == s.source for r in run)
                ins = any(steps[r].target == s.target for r in run)
                if d > a and not (outs if walked == "sources" else
                                  ins if walked == "targets" else outs and ins):
                    late = None  # the test that the first entry is out of time
                    if d == 1 and skips:
                        # The root loop has let through only the roots whose
                        # gap is in the window or -1 (no next send).
                        src.append(f"{ind}if next_out_gap[p0] < 0: continue")
                    elif (not s.equal and walked == "sources" and lo == f"p{d - 1}"
                            and s.source == steps[d - 1].target):
                        # The first entry is the first edge leaving p{d-1}'s
                        # target after it, whose gap to p{d-1} the graph
                        # keeps: the walk is found only once it is in the
                        # window.  A self-loop p{d-1} reads 0 and enters it.
                        late = f"x{d} > deadline - t{d - 1}"
                        src += [f"{ind}x{d} = next_out_gap[p{d - 1}]",
                                f"{ind}if x{d} < 0: continue"]
                    else:
                        late = f"times[s{d}[k{d}]] > {f't{d - 1}' if s.equal else 'deadline'}"
                        src += entry + [f"{ind}if k{d} == len(s{d}): continue"]
                        entry = []
                    if late:
                        src += [f"{ind}if {late}:", f"{ind}    e{d} += 1", f"{ind}    continue"]
                src += entry
                header = f"islice(s{d}, k{d}, None)"
            elif d:  # scan the edge list from the depth's start, counted on exit
                src.append(f"{ind}q{d} = p{d} = {lo}")
                header = f"range(q{d} + 1, n)"
                scans.append(d)
            src.append(f"{ind}for p{d} in {header}:")
            ind += "    "
            if walk:
                src.append(f"{ind}e{d} += 1")
            elif d == 0 and skips:
                src.append(f"{ind}w0 += 1")
            elif d == 0 and blocks:  # the block start must see every root, even a rejected one
                src += [f"{ind}t0 = times[p0]", f"{ind}if t0 != tb: tb, b0 = t0, p0"]
            # A bound endpoint must agree with its node, unless the walked
            # list fixes it; so must an unbound self-loop's target, whose node
            # its source binds.  A fresh endpoint is bound here, to a graph
            # node no other pattern node holds.  Below the root, the time
            # break comes first, then the agree tests, which reject most
            # candidates, then the time tie (STRICT) or the edges of this run
            # (EQUAL), and the fresh binding and its tests last.  Nothing is
            # bound at the root, so it has no agree tests.
            agree, fresh, loop = [], [], []
            for col, node in (("sources", s.source), ("targets", s.target)):
                if node in bound:
                    agree += [f"{col}[p{d}] != v{node}"] * (walked != col)
                elif col == "targets" and s.source == s.target:
                    loop.append(f"targets[p{d}] != v{node}")
                else:
                    fresh.append((col, node))
            if d:
                src.append(f"{ind}t{d} = times[p{d}]")
                if s.equal:
                    src.append(f"{ind}if t{d} > t{d - 1}: break")
                    agree += [f"p{d} == p{x}" for x in run]
                else:
                    src.append(f"{ind}if t{d} > deadline: break")
                    agree.append(f"t{d} == t{d - 1}")
                src.append(f"{ind}if {' or '.join(agree)}: continue")
            if fresh:
                src.append(f"{ind}{', '.join(f'v{n}' for _, n in fresh)} = "
                           f"{', '.join(f'{c}[p{d}]' for c, _ in fresh)}")
            tests = (loop + [f"v{s.source} == v{s.target}"] * (len(fresh) == 2)
                     + [t for _, n in fresh for t in taken(n)])
            if d == 0:  # the root admits every edge it does not reject here
                src += [f"{ind}if {' or '.join(tests)}:", f"{ind}    r0 += 1",
                        f"{ind}    continue"]
            elif tests:
                src.append(f"{ind}if {' or '.join(tests)}: continue")
            if d:
                src.append(f"{ind}c{d} += 1")
            bound[s.source] = bound[s.target] = d
            if d == 0:
                if not blocks:
                    src.append(f"{ind}t0 = times[p0]")
                if strict:
                    src.append(f"{ind}deadline = t0 + span")
            if d == m - 1:
                if lines:  # this function holds t0, t{a-1} and its own depths' times
                    expr = {
                        "dur": f"t{d} - t0 + 1".format, "end": f"t{d}".format,
                        "start": "t0".format, "node": "label_json[v{}]".format, "run": "h{}".format,
                        "source": lambda k: f"label_json[v{steps[k].source}]",
                        "target": lambda k: f"label_json[v{steps[k].target}]",
                        "time": lambda k: f"t{k}" if k == 0 or k >= a - 1 else f"times[p{k}]"}
                    out, runs = _line_split(steps)
                    if runs:
                        src.append(f"{ind}if h0 is None:")
                        src += [f"{ind}    h{j} = {_line_fill(run, expr)}"
                                for j, run in enumerate(runs)]
                    src.append(f"{ind}yield {_line_fill(out, expr)}")
                else:
                    node_map = ", ".join(f"v{i}" for i in range(nodes))
                    edges = ", ".join(f"p{k}" for k in range(m))
                    src.append(f"{ind}yield new(Match, (({node_map},), ({edges},), t0, t{d}, "
                               f"t{d} - t0 + 1))")
            elif d == b - 1:
                rb = _run_start(steps, b)  # a run going on past here hands on its block start
                live = ([f"v{i}" for i in sorted(bound)] + [f"p{k}" for k in range(b)]
                        + ["t0"] + [f"t{d}"] * (d > 0) + ["deadline"] * strict
                        + [f"b{rb}"] * (steps[b].equal and rb + 1 < b))
                src.append(f"{ind}yield from _k{b // _CHUNK}(COLUMNS, n, stats, {', '.join(live)})")
        src += [f"{'    ' * (2 + d - a)}e{d} += p{d} - q{d}" for d in reversed(scans)]
        if a == 0:
            src.append("        held = 0")
        if scans:  # closed at a yield: every scan of this function is live
            src += (["    except GeneratorExit:"]
                    + [f"        e{d} += p{d} - q{d}" for d in scans] + ["        raise"])
        src.append("    finally:")
        if a == 0:
            src.append("        e0 = p0 + 1")
            # Settle the roots skipped up to p0 as a loop over every root
            # would have counted them.  A skipping loop that runs out ends
            # at n - 1 too: the last edge's gap is -1, or 0 for a self-loop,
            # so it is visited.
            if skips:
                src.append("        e1 += e0 - w0")
            src.append("        c0 = e0 - r0")
        src += [f"        stats.candidates_examined += {' + '.join(counters[:b - a])}",
                f"        stats.pushes += {' + '.join(counters[b - a:])}",
                "        stats.max_depth_reached = max(stats.max_depth_reached, "
                f"{a} + {' + '.join(f'({c} > 0)' for c in counters[b - a:])})"]
        if b == m:
            src.append(f"        stats.matches_found += c{m - 1}")
        if a == 0:
            src.append("        stats.pops = stats.pushes - held")
    body = "\n".join(src)
    cols = ", ".join(c for c in _COLUMNS if re.search(rf"\b{c}\b", body))
    return body.replace("COLUMNS", cols) + "\n"


def verify_match(g: TemporalGraph, p: PatternGraph, delta: int, m: Match) -> ValidationReport:
    """Check a match against the three defining conditions, independently.

    1. structural: injective node mapping, one distinct graph edge per
       pattern edge, endpoints agree;
    2. temporal order preservation for every pair of pattern edges;
    3. duration within delta, with ``start``, ``end`` and ``dur`` those of
       the assigned edge times.

    Each violation reads ``"condition N: ..."``, naming the condition it breaks.
    """
    if len(m.node_map) != p.node_count or len(m.edge_assignment) != len(p.edges):
        raise ValueError("match shape does not fit the pattern")
    for pos in m.edge_assignment:
        if pos < 0 or pos >= len(g):
            raise ValueError(f"edge position {pos} out of range")
    violations: list[str] = []

    if len(set(m.node_map)) != len(m.node_map):
        violations.append("condition 1: node mapping is not injective")
    if len(set(m.edge_assignment)) != len(m.edge_assignment):
        violations.append("condition 1: a graph edge is assigned to two pattern edges")
    sources, targets = g.sources, g.targets
    for i, pe in enumerate(p.edges):
        pos = m.edge_assignment[i]
        if sources[pos] != m.node_map[pe.source] or targets[pos] != m.node_map[pe.target]:
            violations.append(f"condition 1: edge {i} endpoints disagree with the node mapping")

    times = [g.times[pos] for pos in m.edge_assignment]
    # a pattern's edges are in time order, so i < j has ti <= tj
    for i in range(len(p.edges)):
        for j in range(i + 1, len(p.edges)):
            ti, tj = p.edges[i].time, p.edges[j].time
            gi, gj = times[i], times[j]
            if ti < tj and not gi < gj:
                violations.append(f"condition 2: edges {i},{j} must be strictly ordered")
            elif ti == tj and gi != gj:
                violations.append(f"condition 2: edges {i},{j} must be simultaneous")

    start, end = min(times), max(times)
    dur = end - start + 1
    if dur > delta:
        violations.append(f"condition 3: dur={dur} exceeds delta={delta}")
    if (m.start, m.end, m.dur) != (start, end, dur):
        violations.append(f"condition 3: start, end, dur {m.start}, {m.end}, {m.dur} "
                          f"are not the edge times' {start}, {end}, {dur}")
    return ValidationReport(tuple(violations))
