"""Two-phase baseline and exhaustive correctness oracle.

The two-phase strategy is a pipeline of three generator stages over
immutable values.  First, ``_static_matches`` enumerates the injective
node maps of the pattern on the static projection (the node pairs with
at least one edge), edge by edge and with no temporal knowledge: each
pattern edge extends the binding it is given into a new one, so nothing
is ever undone.  Second, for each node map ``_window_product`` yields,
in lexicographic order, every tuple of positions (one parallel temporal
edge behind each mapped static edge) whose times fit the window.  Only
the window prunes inside the product.  Third, ``two_phase_search``
counts every tuple it receives as a temporal candidate and keeps those
whose positions are distinct and whose edges respect the pattern's time
order.  Order violations are generated and filtered, which is what makes
this approach blow up on graphs with many parallel edges.

``brute_force`` is the test oracle.  It enumerates every injective node
mapping outright and drops one at its first pattern edge without a
graph edge.  For each other mapping one recursive generator,
``_assignments``, extends a tuple of positions edge by edge, as
``_window_product`` does, and prunes only by distinct positions, the
time order of consecutive pattern edges and the window; every complete
tuple is judged by the match definition (``verify_match``).  It shares
no search machinery with the main matcher.

Both functions are stateless over immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

from .matcher import Match, verify_match
from .pattern import PatternGraph
from .temporal_graph import TemporalGraph


class OracleSizeLimitError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass
class BaselineStats:
    static_matches: int = 0
    temporal_candidates: int = 0
    matches_found: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def _pair_positions(g: TemporalGraph) -> dict[tuple[int, int], list[int]]:
    """The ascending positions of the parallel edges behind each node pair."""
    pairs: dict[tuple[int, int], list[int]] = {}
    for pos, pair in enumerate(zip(g.sources, g.targets)):
        pairs.setdefault(pair, []).append(pos)
    return pairs


def _static_matches(pairs: dict[tuple[int, int], list[int]],
                    p: PatternGraph) -> Iterator[tuple[int, ...]]:
    """Edge-by-edge DFS over the static projection (the node pairs that key
    ``pairs``), yielding injective node maps."""
    edges = sorted(pairs)
    out_adj: dict[int, list[int]] = {}
    in_adj: dict[int, list[int]] = {}
    for a, b in edges:
        out_adj.setdefault(a, []).append(b)
        in_adj.setdefault(b, []).append(a)
    yield from _extend(p, (pairs, edges, out_adj, in_adj), {}, 0)


def _extend(p: PatternGraph, projection: tuple, f: dict[int, int], i: int) -> Iterator[tuple]:
    """The node maps that extend the binding ``f`` (pattern node to graph
    node) over pattern edges ``i`` onward, in the order of their candidate
    lists; ``projection`` is ``(pairs, edges, out_adj, in_adj)``."""
    if i == len(p.edges):
        yield tuple(f[k] for k in range(p.node_count))
        return
    pairs, edges, out_adj, in_adj = projection
    u, v = p.edges[i].source, p.edges[i].target
    fu, fv = f.get(u), f.get(v)
    used = set(f.values())
    if u == v and fu is not None:
        cands = [(fu, fu)] if (fu, fu) in pairs else []
    elif u == v:
        cands = [(a, a) for a, b in edges if a == b and a not in used]
    elif fu is not None and fv is not None:
        cands = [(fu, fv)] if (fu, fv) in pairs else []
    elif fu is not None:
        cands = [(fu, w) for w in out_adj.get(fu, ()) if w not in used]
    elif fv is not None:
        cands = [(w, fv) for w in in_adj.get(fv, ()) if w not in used]
    else:
        cands = [(a, b) for a, b in edges if a != b and a not in used and b not in used]
    for a, b in cands:
        yield from _extend(p, projection, {**f, u: a, v: b}, i + 1)


def _window_product(cand: list[list[int]], times: Sequence[int], delta: int, chosen: tuple = (),
                    lo: float = float("-inf"), hi: float = float("inf")) -> Iterator[tuple]:
    """Every tuple of positions, one from each list of ``cand`` in turn,
    whose times span at most ``delta``, in lexicographic order.  The
    window is the only pruning.

    A call extends the tuple ``chosen``, which stays in the window if the
    time of its next position lies in ``[lo, hi]``."""
    if len(chosen) == len(cand):
        yield chosen
        return
    for pos in cand[len(chosen)]:
        t = times[pos]
        if lo <= t <= hi:  # window pruning only; order is filtered later
            yield from _window_product(cand, times, delta, chosen + (pos,),
                                       max(lo, t - delta + 1), min(hi, t + delta - 1))


def two_phase_search(
    g: TemporalGraph, p: PatternGraph, delta: int
) -> tuple[list[Match], BaselineStats]:
    """Structural matching first, temporal assignment filtering second.

    Returns the same match set as the interaction search (order may
    differ).  ``temporal_candidates`` counts the complete assignment
    tuples the product generates after window-only pruning.  It checks
    nothing: ``io_cli.stream_search`` validates the query first.
    """
    stats = BaselineStats()
    matches: list[Match] = []
    times = g.times
    m = len(p.edges)

    pair_positions = _pair_positions(g)
    for node_map in _static_matches(pair_positions, p):
        stats.static_matches += 1
        cand = [
            pair_positions[(node_map[pe.source], node_map[pe.target])]
            for pe in p.edges
        ]
        for chosen in _window_product(cand, times, delta):
            stats.temporal_candidates += 1
            if len(set(chosen)) == m and all(
                (times[chosen[a]] < times[chosen[b]])
                if p.edges[a].time < p.edges[b].time
                else (times[chosen[a]] == times[chosen[b]])
                for a in range(m) for b in range(a + 1, m)
            ):
                start, end = min(times[c] for c in chosen), max(times[c] for c in chosen)
                matches.append(
                    Match(node_map, chosen, start, end, end - start + 1)
                )

    stats.matches_found = len(matches)
    return matches, stats


def _assignments(cand: list[list[int]], times: Sequence[int], equal: list[bool], delta: int,
                 chosen: tuple = ()) -> Iterator[tuple]:
    """Every tuple of distinct positions, one from each list of ``cand`` in
    turn, whose consecutive times keep the pattern's order (the same time
    where ``equal`` is true, a later one elsewhere) and stay within
    ``delta`` of the first.  A call extends the tuple ``chosen``."""
    d = len(chosen)
    if d == len(cand):
        yield chosen
        return
    for pos in cand[d]:
        if pos in chosen:
            continue
        if d:
            t, prev = times[pos], times[chosen[-1]]
            if (t != prev if equal[d] else t <= prev) or t - times[chosen[0]] >= delta:
                continue
        yield from _assignments(cand, times, equal, delta, chosen + (pos,))


def brute_force(g: TemporalGraph, p: PatternGraph, delta: int) -> set[Match]:
    """Exhaustive oracle: all injective node mappings, then all assignments.

    A mapping is dropped at its first pattern edge whose node pair has no
    graph edge.  The assignments of the others come from
    :func:`_assignments`, and every one is still judged by
    :func:`~ipmatch.matcher.verify_match`.  Guarded against explosion;
    refuses graphs over 14 nodes or patterns over 5 edges.  It checks
    nothing else: ``io_cli.stream_search`` validates the query first.
    """
    if g.node_count > 14:
        raise OracleSizeLimitError(f"graph has {g.node_count} nodes, limit is 14")
    if len(p.edges) > 5:
        raise OracleSizeLimitError(f"pattern has {len(p.edges)} edges, limit is 5")
    times = g.times
    pair_positions = _pair_positions(g)
    equal = [d > 0 and pe.time == p.edges[d - 1].time for d, pe in enumerate(p.edges)]
    results: set[Match] = set()
    for perm in itertools.permutations(range(g.node_count), p.node_count):
        for pe in p.edges:
            if (perm[pe.source], perm[pe.target]) not in pair_positions:
                break
        else:
            cand = [pair_positions[perm[pe.source], perm[pe.target]] for pe in p.edges]
            for combo in _assignments(cand, times, equal, delta):
                ts = [times[c] for c in combo]
                start, end = min(ts), max(ts)
                m = Match(perm, combo, start, end, end - start + 1)
                if verify_match(g, p, delta, m).ok:
                    results.add(m)
    return results
