"""Benchmark harness: query generators, delta/size sweeps, CSV reports.

Two query families are supported: fixed-length path queries (edges with
consecutive timestamps) and random out-tree queries grown by seeded
draws from a frontier over the static projection.  Every (query, delta,
strategy) cell records wall-clock time, matches found and candidate
counts.  Each cell's strategies run back to back and their match counts
must agree: the first cell that disagrees aborts the run before any
later cell, with its pattern saved for replay.

Cells run one after another, so each timing is taken with the process
otherwise idle.
"""

from __future__ import annotations

import csv
import os
import random
import time as _time
from dataclasses import dataclass
from typing import Optional

from .io_cli import effective_delta, load_graph, save_pattern, stream_search
from .pattern import (MAX_PATTERN_EDGES, PatternGraph, exact_int, pattern_from_triples,
                      validate_pattern)
from .temporal_graph import TemporalGraph

CSV_HEADER = ["family", "size", "delta", "strategy", "query_id", "millis", "matches", "candidates"]
MAX_RESTARTS = 50  # random starts tried per random query


class QueryGenerationError(RuntimeError):
    """Random query generation could not visit enough nodes."""


class StrategyMismatchError(RuntimeError):
    """Two strategies disagreed on a bench cell's match count."""


@dataclass(frozen=True)
class BenchPlan:
    graph_path: str
    family: str  # "path" or "random"
    sizes: list[int]
    deltas: list[int]
    strategies: list[str]
    count: int = 100  # random queries per size
    delta_unit: str = "raw"
    seed: int = 0
    output: Optional[str] = None

    def __post_init__(self):
        if self.family not in ("path", "random"):
            raise ValueError(f"unknown query family {self.family!r}")
        # a bool or a float is refused: True would run as 1 and 1.5 fail mid-sweep
        for name, values in (("count", [self.count]), ("seed", [self.seed]),
                             ("size", self.sizes), ("delta", self.deltas)):
            for value in values:
                exact_int(value, f"{name} must be an integer, got {{!r}}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        for name in ("sizes", "deltas", "strategies"):
            if not getattr(self, name):
                raise ValueError(f"no {name} given")
        for i, s in enumerate(self.strategies):
            if s not in ("simple", "index", "baseline"):
                raise ValueError(f"unknown bench strategy {s!r}")
            if s in self.strategies[:i]:
                raise ValueError(f"strategy {s!r} given twice")


@dataclass(frozen=True)
class BenchRow:
    family: str
    size: int
    delta: int
    strategy: str
    query_id: str
    millis: float
    matches: int
    candidates: int

    def as_list(self) -> list:
        return [self.family, self.size, self.delta, self.strategy,
                self.query_id, f"{self.millis:.3f}", self.matches, self.candidates]


def generate_path_query(length: int) -> PatternGraph:
    """Path of ``length`` edges with consecutive timestamps, all steps strict.

    A ``length`` that is not an exact int (a bool or a float) or is below 1
    raises ``ValueError``.
    """
    exact_int(length, "path length must be an integer, got {!r}")
    if length < 1:
        raise ValueError(f"path length must be >= 1, got {length}")
    return pattern_from_triples(
        [(i, i + 1, i + 1) for i in range(length)], node_count=length + 1
    )


def generate_random_query(g: TemporalGraph, n: int, seed: int) -> PatternGraph:
    """Grow an ``n``-node pattern by seeded draws over the static projection.

    From a random start, each step pops a uniformly drawn pair from the
    frontier, the distinct (reached node, successor) pairs; a pair whose
    target is new adds that target, its edge and the target's own pairs.
    Nodes are renamed to dense ids in draw order and edge times are the
    ranks 1..n-1 of the draws, which is a topological order of the tree.
    Deterministic for a given (graph, n, seed).  An ``n`` that is not an
    exact int (a bool or a float) or is below 2 raises ``ValueError``
    before anything is drawn.
    """
    exact_int(n, "random query size must be an integer, got {!r}")
    if n < 2:
        raise ValueError(f"random query size must be >= 2, got {n}")
    if n > g.node_count:
        raise QueryGenerationError(
            f"cannot grow a {n}-node query in a graph of {g.node_count} nodes")
    rng = random.Random(seed)
    for _ in range(MAX_RESTARTS):
        start = rng.randrange(g.node_count)
        order = {start: 0}
        triples: list[tuple[int, int, int]] = []
        frontier = _out_pairs(g, start)
        while frontier and len(order) < n:
            u, v = frontier.pop(rng.randrange(len(frontier)))
            if v not in order:
                k = order[v] = len(order)  # the k-th edge enters node k at time k
                triples.append((order[u], k, k))
                frontier += _out_pairs(g, v)
        if len(order) == n:
            return pattern_from_triples(triples, node_count=n)
    raise QueryGenerationError(
        f"no start reached {n} nodes after {MAX_RESTARTS} attempts"
    )


def _out_pairs(g: TemporalGraph, node: int) -> list[tuple[int, int]]:
    """The distinct (node, target) pairs of ``node``'s out-edges, by ascending target."""
    return [(node, v) for v in sorted({g.targets[pos] for pos in g.out_positions[node]})]


def _queries(plan: BenchPlan, g: TemporalGraph) -> list[tuple[int, str, PatternGraph]]:
    """The plan's queries; ValueError for one the engines would refuse as too long."""
    queries = []
    sizes = dict.fromkeys(plan.sizes)  # a repeated size adds no cell
    if plan.family == "path":
        for length in sizes:
            queries.append((length, f"len{length}", generate_path_query(length)))
    else:
        for size in sizes:
            for i in range(plan.count):
                seed = plan.seed * 1_000_003 + size * 1_009 + i
                queries.append((size, f"s{size}q{i}", generate_random_query(g, size, seed)))
    for _, qid, pattern in queries:
        if len(pattern.edges) > MAX_PATTERN_EDGES:
            raise ValueError(f"query {qid} has {len(pattern.edges)} edges, "
                             f"limit is {MAX_PATTERN_EDGES}")
    return queries


def _run_cell(g, pattern, delta, strategy) -> tuple[float, int, int]:
    t0 = _time.perf_counter()
    matches, stats = stream_search(g, pattern, delta, strategy)
    found = sum(1 for _ in matches)
    millis = (_time.perf_counter() - t0) * 1000.0
    return millis, found, (stats.temporal_candidates if strategy == "baseline"
                           else stats.candidates_examined)


def run_bench(plan: BenchPlan) -> list[BenchRow]:
    """Execute the sweep and return all rows; writes CSV when requested.

    Each cell runs the plan's strategies back to back, and their match
    counts must agree: the first cell that disagrees aborts the run, before
    any later cell runs, after saving its pattern next to the report for
    replay.  The report is opened before the first cell runs, so an
    unwritable path fails fast, and is removed again if the sweep fails.
    """
    g = load_graph(plan.graph_path)
    # a delta repeated, as given or once converted, adds no cell
    deltas = list(dict.fromkeys(effective_delta(d, plan.delta_unit) for d in plan.deltas))
    queries = _queries(plan, g)

    fh = open(plan.output, "w", encoding="ascii", newline="") if plan.output else None
    try:
        rows: list[BenchRow] = []
        for size, qid, pattern in queries:
            for delta in deltas:
                # a window shorter than the query's own duration admits no matches
                # and the engines refuse it outright; such cells are skipped, not zeroed
                if not validate_pattern(pattern, delta).ok:
                    continue
                cell = [BenchRow(plan.family, size, delta, strategy, qid,
                                 *_run_cell(g, pattern, delta, strategy))
                        for strategy in plan.strategies]
                counts = {row.matches for row in cell}
                if len(counts) > 1:
                    dump = (plan.output or "bench") + f".mismatch-{qid}-d{delta}.pattern"
                    save_pattern(pattern, dump)
                    raise StrategyMismatchError(
                        f"strategies disagree on query {qid} delta {delta}: "
                        f"match counts {sorted(counts)}; pattern saved to {dump}"
                    )
                rows += cell
        all_rows = rows + _aggregate(plan, rows)
        if fh:
            _write_csv(plan, all_rows, fh)
            fh.close()
    except BaseException:
        if fh:
            fh.close()
            os.remove(plan.output)
        raise
    return all_rows


def _aggregate(plan: BenchPlan, rows: list[BenchRow]) -> list[BenchRow]:
    groups: dict[tuple[int, int, str], list[BenchRow]] = {}
    for row in rows:
        groups.setdefault((row.size, row.delta, row.strategy), []).append(row)
    aggregates = []
    for (size, delta, strategy), members in sorted(groups.items()):
        k = len(members)
        aggregates.append(BenchRow(
            plan.family, size, delta, strategy, "avg",
            sum(r.millis for r in members) / k,
            round(sum(r.matches for r in members) / k),
            round(sum(r.candidates for r in members) / k),
        ))
    return aggregates


def _write_csv(plan: BenchPlan, rows: list[BenchRow], fh) -> None:
    fh.write("# wall-clock per query call, graph load excluded\n")
    fh.write(f"# family={plan.family} seed={plan.seed} "
             f"delta_unit={plan.delta_unit} count={plan.count}\n")
    fh.write("# random-query edge order: draw order, rank times\n")
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_list())
