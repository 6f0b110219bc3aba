"""Acceptance criteria, one test per criterion.

Criterion 1's randomized sweep is computed once (module-scoped fixture)
and shared by the criteria that quantify over its instances.  Each test
prints one PASS line on success (visible with ``pytest -s``).
"""

import csv
import json
import os
import random
import time
from pathlib import Path

import pytest

from ipmatch import (
    BenchPlan,
    brute_force,
    build_graph,
    graph_summary,
    load_graph,
    match_json_line,
    run_bench,
    run_search,
    save_graph,
    save_pattern,
    two_phase_search,
    validate_pattern,
    verify_match,
)
from ipmatch.bench import generate_path_query

from _generators import full_span, parallel_family, random_graph, random_pattern

ACCEPTANCE_SEED = 902_611
PAIR_COUNT = 400
DATA = Path(__file__).parent / "data"

EMAIL_EU_CANDIDATES = [
    Path(__file__).resolve().parent.parent / "data" / "email-Eu-core-temporal.txt",
    Path(os.environ.get("IPMATCH_EMAIL_EU", "/nonexistent")),
]


def _passed(n: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def sweep():
    """All criterion-1 instances with the four algorithms' results."""
    rng = random.Random(ACCEPTANCE_SEED)
    instances = []
    t0 = time.perf_counter()
    for pair_id in range(PAIR_COUNT):
        g = random_graph(rng, max_nodes=12, max_edges=40)
        p = random_pattern(rng, max_edges=4)
        span = full_span(g)
        deltas = sorted({1, 2, 5, span})
        valid = [d for d in deltas if validate_pattern(p, d).ok]
        if not valid:
            continue
        oracle_top = brute_force(g, p, valid[-1])
        for delta in valid:
            simple, s_stats = run_search(g, p, delta, "simple")
            index, i_stats = run_search(g, p, delta, "index")
            baseline, _ = two_phase_search(g, p, delta)
            # duration filtering of the widest-window oracle is the
            # definition applied verbatim; re-derive directly on a sample
            oracle = {m for m in oracle_top if m.dur <= delta}
            if pair_id % 5 == 0:
                assert oracle == brute_force(g, p, delta)
            instances.append({
                "pair": pair_id,
                "graph": g,
                "pattern": p,
                "delta": delta,
                "simple": simple,
                "index": index,
                "baseline": baseline,
                "oracle": oracle,
                "simple_examined": s_stats.candidates_examined,
                "index_examined": i_stats.candidates_examined,
            })
    elapsed = time.perf_counter() - t0
    return {"instances": instances, "elapsed": elapsed}


def test_criterion_1_oracle_equivalence(sweep):
    instances = sweep["instances"]
    assert len(instances) >= 1000, f"only {len(instances)} valid instances"
    for inst in instances:
        expected = inst["oracle"]
        assert set(inst["simple"]) == expected, f"SIMPLE disagrees on {inst['pair']}"
        assert set(inst["index"]) == expected, f"INDEX disagrees on {inst['pair']}"
        assert set(inst["baseline"]) == expected, f"baseline disagrees on {inst['pair']}"
    assert sweep["elapsed"] < 120, f"sweep took {sweep['elapsed']:.1f}s"
    _passed(1, "oracle equivalence",
            f"{len(instances)} instances in {sweep['elapsed']:.1f}s")


def test_criterion_2_definition_soundness(sweep):
    total = 0
    for inst in sweep["instances"]:
        for m in inst["simple"]:
            result = verify_match(inst["graph"], inst["pattern"], inst["delta"], m)
            assert result.ok, f"violations {result.violations} on pair {inst['pair']}"
            total += 1
    _passed(2, "definition soundness", f"{total} matches verified")


def test_criterion_3_strategy_equivalence_including_order(sweep):
    for inst in sweep["instances"]:
        g = inst["graph"]
        simple_bytes = "\n".join(match_json_line(m, g) for m in inst["simple"])
        index_bytes = "\n".join(match_json_line(m, g) for m in inst["index"])
        assert simple_bytes == index_bytes, f"order differs on pair {inst['pair']}"
    _passed(3, "strategy equivalence incl. order")


def test_criterion_4_delta_monotonicity(sweep):
    by_pair: dict = {}
    for inst in sweep["instances"]:
        by_pair.setdefault(inst["pair"], []).append((inst["delta"], set(inst["simple"])))
    checked = 0
    for results in by_pair.values():
        results.sort(key=lambda item: item[0])
        for (d1, m1), (d2, m2) in zip(results, results[1:]):
            assert m1 <= m2, f"matches({d1}) not within matches({d2})"
            checked += 1
    _passed(4, "delta monotonicity", f"{checked} delta pairs")


def test_criterion_5_explosion_witness():
    t0 = time.perf_counter()
    pattern = generate_path_query(3)
    ratios = {}
    for k in (2, 4, 8, 16):
        g = parallel_family(k)
        delta = full_span(g)
        _, b_stats = two_phase_search(g, pattern, delta)
        _, i_stats = run_search(g, pattern, delta, "index")
        assert b_stats.temporal_candidates >= k ** 3 / 2, (
            f"k={k}: baseline generated only {b_stats.temporal_candidates}"
        )
        assert i_stats.candidates_examined <= 10 * k * len(pattern.edges), (
            f"k={k}: index examined {i_stats.candidates_examined}"
        )
        ratios[k] = b_stats.temporal_candidates / i_stats.candidates_examined
    elapsed = time.perf_counter() - t0
    assert ratios[16] >= 8 * ratios[2], ratios
    assert elapsed < 30
    _passed(5, "explosion witness",
            f"ratio k=2 {ratios[2]:.2f} -> k=16 {ratios[16]:.2f} in {elapsed:.2f}s")


def test_criterion_6_dataset_load_counts():
    real = next((p for p in EMAIL_EU_CANDIDATES if p.is_file()), None)
    if real is not None:
        g = load_graph(str(real))
        s = graph_summary(g)
        assert s.nodes == 986
        assert s.static_edges == 24_929
        assert s.temporal_edges == 332_334
        assert abs(s.span_days - 803) <= 1
        _passed(6, "dataset counts", "email dataset")
        return
    # bundled synthetic stand-in: frozen counts plus an independent recount
    path = DATA / "synthetic_1000.txt"
    nodes, pairs, times, count = set(), set(), [], 0
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        u, v, t = line.split()
        nodes.add(u)
        nodes.add(v)
        pairs.add((u, v))
        times.append(int(t))
        count += 1
    g = load_graph(str(path))
    s = graph_summary(g)
    assert (s.nodes, s.static_edges, s.temporal_edges) == (120, 962, 997)
    assert (s.nodes, s.static_edges, s.temporal_edges) == \
        (len(nodes), len(pairs), count)
    assert abs(s.span_days - 44.9145) < 0.001
    assert s.span_days == (max(times) - min(times)) / 86400.0
    _passed(6, "dataset counts", "bundled synthetic file")


def test_criterion_7_determinism(tmp_path, capsys):
    from ipmatch.cli import main

    rng = random.Random(ACCEPTANCE_SEED + 1)
    g = random_graph(rng, max_nodes=8, max_edges=30)
    gpath = tmp_path / "g.txt"
    save_graph(g, str(gpath))
    ppath = tmp_path / "p.txt"
    save_pattern(generate_path_query(2), str(ppath))

    outputs = []
    for _ in range(2):
        code = main(["query", "--graph", str(gpath), "--pattern", str(ppath),
                     "--delta", str(full_span(g))])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1], "query output differs between runs"

    reports = []
    for run in range(2):
        out = tmp_path / f"bench{run}.csv"
        plan = BenchPlan(
            graph_path=str(gpath), family="random", sizes=[2, 3], count=5,
            deltas=[2, full_span(g)], strategies=["simple", "index"],
            seed=77, output=str(out),
        )
        run_bench(plan)
        with open(out) as fh:
            body = [line for line in fh if not line.startswith("#")]
        rows = [
            {k: v for k, v in row.items() if k != "millis"}
            for row in csv.DictReader(body)
        ]
        reports.append(rows)
    assert reports[0] == reports[1], "bench rows differ between runs"
    _passed(7, "determinism")


def test_criterion_8_index_work_bound(sweep):
    for inst in sweep["instances"]:
        assert inst["index_examined"] <= inst["simple_examined"], (
            f"pair {inst['pair']} delta {inst['delta']}: "
            f"INDEX {inst['index_examined']} > SIMPLE {inst['simple_examined']}"
        )
    _passed(8, "index work bound", f"{len(sweep['instances'])} instances")
