"""Two-phase baseline and exhaustive correctness oracle.

The two-phase strategy first enumerates structural matches of the
pattern on the static projection (edge by edge, no temporal knowledge),
then for every structural match expands the cartesian product of the
parallel temporal edges behind each mapped static edge, keeping the
assignments that respect the required time order and the window.  Only
the window is allowed to prune inside the product; order violations are
generated and filtered, which is what makes this approach blow up on
graphs with many parallel edges.

``brute_force`` is the test oracle: it enumerates every injective node
mapping outright and filters by the match definition.  It shares no
search machinery with the main matcher.

Both functions are stateless over immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .matcher import Match, check_query, verify_match
from .pattern import PatternGraph
from .temporal_graph import TemporalGraph, static_projection


class OracleSizeLimitError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass
class BaselineStats:
    static_matches: int = 0
    temporal_candidates: int = 0
    matches_found: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "static_matches": self.static_matches,
            "temporal_candidates": self.temporal_candidates,
            "matches_found": self.matches_found,
        }


def _pair_positions(g: TemporalGraph) -> dict[tuple[int, int], list[int]]:
    """The ascending positions of the parallel edges behind each node pair."""
    pairs: dict[tuple[int, int], list[int]] = {}
    for pos, pair in enumerate(zip(g.sources, g.targets)):
        pairs.setdefault(pair, []).append(pos)
    return pairs


def _static_matches(g: TemporalGraph, p: PatternGraph) -> Iterator[tuple[int, ...]]:
    """Edge-by-edge DFS over the static projection, yielding injective node maps."""
    edges = sorted(static_projection(g))
    out_adj: dict[int, list[int]] = {}
    in_adj: dict[int, list[int]] = {}
    for a, b in edges:
        out_adj.setdefault(a, []).append(b)
        in_adj.setdefault(b, []).append(a)
    edge_set = set(edges)

    f: dict[int, int] = {}
    used: set[int] = set()

    def assign(pnode: int, gnode: int) -> bool:
        if pnode in f:
            return False
        f[pnode] = gnode
        used.add(gnode)
        return True

    def unassign(pnode: int, fresh: bool) -> None:
        if fresh:
            used.discard(f.pop(pnode))

    def candidates(i: int) -> list[tuple[int, int]]:
        pe = p.edges[i]
        fu, fv = f.get(pe.source), f.get(pe.target)
        if pe.source == pe.target:
            if fu is not None:
                return [(fu, fu)] if (fu, fu) in edge_set else []
            return [(a, a) for a, b in edges if a == b and a not in used]
        if fu is not None and fv is not None:
            return [(fu, fv)] if (fu, fv) in edge_set else []
        if fu is not None:
            return [(fu, w) for w in out_adj.get(fu, ()) if w not in used]
        if fv is not None:
            return [(w, fv) for w in in_adj.get(fv, ()) if w not in used]
        return [(a, b) for a, b in edges if a != b and a not in used and b not in used]

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(p.edges):
            yield tuple(f[k] for k in range(p.node_count))
            return
        pe = p.edges[i]
        for a, b in candidates(i):
            fresh_u = assign(pe.source, a)
            fresh_v = assign(pe.target, b)
            yield from rec(i + 1)
            unassign(pe.target, fresh_v)
            unassign(pe.source, fresh_u)

    yield from rec(0)


def two_phase_search(
    g: TemporalGraph, p: PatternGraph, delta: int
) -> tuple[list[Match], BaselineStats]:
    """Structural matching first, temporal assignment filtering second.

    Returns the same match set as the interaction search (order may
    differ).  ``temporal_candidates`` counts the complete assignment
    tuples the product generates after window-only pruning.
    """
    check_query(p, delta, None)
    stats = BaselineStats()
    matches: list[Match] = []
    times = g.times
    m = len(p.edges)

    pair_positions = _pair_positions(g)
    for node_map in _static_matches(g, p):
        stats.static_matches += 1
        cand = [
            pair_positions[(node_map[pe.source], node_map[pe.target])]
            for pe in p.edges
        ]
        chosen: list[int] = []

        def product(i: int, tmin: int, tmax: int) -> None:
            if i == m:
                stats.temporal_candidates += 1
                if len(set(chosen)) != m:
                    return
                ok_order = all(
                    (times[chosen[a]] < times[chosen[b]])
                    if p.edges[a].time < p.edges[b].time
                    else (times[chosen[a]] == times[chosen[b]])
                    for a in range(m) for b in range(a + 1, m)
                )
                if not ok_order:
                    return
                start, end = min(times[c] for c in chosen), max(times[c] for c in chosen)
                matches.append(
                    Match(node_map, tuple(chosen), start, end, end - start + 1)
                )
                return
            for pos in cand[i]:
                t = times[pos]
                lo = t if i == 0 else min(tmin, t)
                hi = t if i == 0 else max(tmax, t)
                if hi - lo + 1 > delta:
                    continue  # window pruning only; order is filtered later
                chosen.append(pos)
                product(i + 1, lo, hi)
                chosen.pop()

        product(0, 0, 0)

    stats.matches_found = len(matches)
    return matches, stats


def brute_force(g: TemporalGraph, p: PatternGraph, delta: int) -> set[Match]:
    """Exhaustive oracle: all injective node mappings, then all assignments.

    Guarded against explosion; refuses graphs over 14 nodes or patterns
    over 5 edges.
    """
    if g.node_count > 14:
        raise OracleSizeLimitError(f"graph has {g.node_count} nodes, limit is 14")
    if len(p.edges) > 5:
        raise OracleSizeLimitError(f"pattern has {len(p.edges)} edges, limit is 5")
    check_query(p, delta, None)
    results: set[Match] = set()
    if p.node_count > g.node_count:
        return results
    times = g.times
    pair_positions = _pair_positions(g)
    for perm in itertools.permutations(range(g.node_count), p.node_count):
        cand = []
        feasible = True
        for pe in p.edges:
            positions = pair_positions.get((perm[pe.source], perm[pe.target]))
            if not positions:
                feasible = False
                break
            cand.append(positions)
        if not feasible:
            continue
        for combo in itertools.product(*cand):
            ts = [times[c] for c in combo]
            start, end = min(ts), max(ts)
            m = Match(tuple(perm), tuple(combo), start, end, end - start + 1)
            if verify_match(g, p, delta, m).ok:
                results.add(m)
    return results
