"""Tests of the benchmark itself: seeded inputs and the output gate.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import ipmatch  # noqa: E402
import workloads  # noqa: E402

DELTA = 600


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_graph_files(tmp_path, name):
    blobs = []
    for i, seed in enumerate((7, 7, 8)):
        path = tmp_path / f"{i}.snap"
        workloads.write_snap(workloads.generate_edges(name, seed), str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] != blobs[2]


def small_instance(strategies=("simple", "index")):
    """A few node pairs with many parallel edges on a one-minute clock."""
    raw = workloads.multi_edges(random.Random(1), nodes=6, out_degree=2, per_pair=10,
                                span_s=3600, tick_s=60)
    g = ipmatch.build_graph([(str(u), str(v), t) for u, v, t in raw])
    patterns = {"path-2": ipmatch.generate_path_query(2)}
    for name in ("ping-pong", "relay-equal"):
        patterns[name] = ipmatch.pattern_from_triples(workloads.MOTIFS[name])
    queries = [workloads.Query(p, DELTA, s) for p in patterns for s in strategies]
    return g, patterns, queries


def gate(g, patterns, queries, expected=None, baseline=True):
    """reference_pass with its failures flattened to 'query: message' strings."""
    refs, failures, totals = harness.reference_pass(
        g, patterns, queries, harness.NullTracer(), random.Random(0), expected, baseline)
    return refs, [f"{q}: {m}" for q, ms in failures.items() for m in ms], totals


def test_correct_output_passes_the_gate():
    refs, failures, totals = gate(*small_instance())
    assert failures == []
    assert all(r.matches > 0 for r in refs)
    assert totals["matches"] * 2 == sum(r.matches for r in refs)


def drop_last_match(monkeypatch, strategies=("index",)):
    real = ipmatch.run_search

    def run_search(g, p, delta, strategy, limit=None):
        matches, stats = real(g, p, delta, strategy, limit)
        if strategy in strategies:
            matches = matches[:-1]
            stats.matches_found -= 1
        return matches, stats

    monkeypatch.setattr(ipmatch, "run_search", run_search)


def alter_first_line(monkeypatch, module):
    """Shift the first serialized match's first edge by one second."""
    real = module.match_json_line
    calls = itertools.count()

    def match_json_line(m, g):
        line = real(m, g)
        if next(calls) == 0:
            obj = json.loads(line)
            obj["edges"][0][2] += 1
            line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        return line

    monkeypatch.setattr(module, "match_json_line", match_json_line)


def test_dropped_line_trips_the_strategy_comparison(monkeypatch):
    drop_last_match(monkeypatch)
    _, failures, _ = gate(*small_instance())
    assert failures and all("index gave" in f for f in failures)


def test_dropped_line_in_both_strategies_trips_the_baseline(monkeypatch):
    drop_last_match(monkeypatch, ("simple", "index"))
    _, failures, _ = gate(*small_instance())
    assert failures and all("two_phase_search gave" in f for f in failures)


def test_dropped_line_trips_the_recorded_counts(monkeypatch):
    g, patterns, queries = small_instance(strategies=("index",))
    refs, failures, _ = gate(g, patterns, queries, baseline=False)
    assert failures == []
    recorded = {r.query.name: r.matches for r in refs}
    drop_last_match(monkeypatch)
    _, failures, _ = gate(g, patterns, queries, expected=recorded, baseline=False)
    assert len(failures) == len(queries)
    assert all("recorded count" in f for f in failures)


def test_altered_line_trips_the_gate(monkeypatch):
    alter_first_line(monkeypatch, ipmatch)
    _, failures, _ = gate(*small_instance())
    assert any("unreadable line" in f for f in failures)
    assert any("emitted different lines" in f for f in failures)


def test_altered_line_trips_verify_without_a_second_strategy(monkeypatch):
    alter_first_line(monkeypatch, ipmatch)
    _, failures, _ = gate(*small_instance(strategies=("index",)), baseline=False)
    assert len(failures) == 1 and "unreadable line" in failures[0]


def test_gate_failures_never_outnumber_the_queries(monkeypatch):
    alter_first_line(monkeypatch, ipmatch)
    drop_last_match(monkeypatch, ("simple", "index"))
    g, patterns, queries = small_instance()
    _, failures, _ = harness.reference_pass(g, patterns, queries, harness.NullTracer(),
                                            random.Random(0), None, True)
    assert 0 < len(failures) <= len(queries)


def cli_instance(tmp_path):
    """The small instance's largest query, its files and CLI argv, and its reference."""
    g, patterns, queries = small_instance(strategies=("index",))
    refs, failures, _ = gate(g, patterns, queries, baseline=False)
    assert failures == []
    ref = max(refs, key=lambda r: r.matches)
    graph_path, pattern_path = str(tmp_path / "g.snap"), str(tmp_path / "p.txt")
    ipmatch.save_graph(g, graph_path)
    ipmatch.save_pattern(patterns[ref.query.pattern], pattern_path)
    argv = ["query", "--graph", graph_path, "--pattern", pattern_path,
            "--delta", str(ref.query.delta), "--strategy", ref.query.strategy]
    return argv, ref, patterns[ref.query.pattern], graph_path


def corrupt_cli(monkeypatch, corrupt):
    if corrupt == "drop":
        real = ipmatch.io_cli.run_search
        monkeypatch.setattr(ipmatch.io_cli, "run_search",
                            lambda *a: (real(*a)[0][:-1], None))
    else:
        alter_first_line(monkeypatch, ipmatch.io_cli)


@pytest.mark.parametrize("corrupt", ["drop", "alter"])
def test_corrupted_cli_output_trips_the_check(tmp_path, monkeypatch, corrupt):
    argv, ref, _, _ = cli_instance(tmp_path)
    total, first, sha = harness.cli_once(argv, ref.out_sha, harness.NullTracer(), "cli")
    assert 0 < first <= total and sha == ref.out_sha
    corrupt_cli(monkeypatch, corrupt)
    with pytest.raises(harness.OutputCheckError):
        harness.cli_once(argv, ref.out_sha, harness.NullTracer(), "cli")


@pytest.mark.parametrize("corrupt", ["drop", "alter"])
def test_corrupted_cli_output_trips_the_cli_gate(tmp_path, monkeypatch, corrupt):
    argv, ref, p, graph_path = cli_instance(tmp_path)
    recorded = {ref.query.name: ref.matches}

    def cli_gate():
        return harness.cli_reference(argv, ref.query, p, graph_path, random.Random(0),
                                     recorded)[3]

    assert cli_gate() == []
    corrupt_cli(monkeypatch, corrupt)
    failures = cli_gate()
    expect = "recorded count" if corrupt == "drop" else "unreadable line"
    assert len(failures) == 1 and expect in failures[0]


def test_line_check_digest_ignores_order_and_sample_is_bounded():
    lines = [f"line {i}" for i in range(50)]
    a, b, c = (harness.LineCheck(random.Random(0), limit=10) for _ in range(3))
    for line in lines:
        a.add(line)
    for line in reversed(lines):
        b.add(line)
    for line in lines[:-1]:
        c.add(line)
    assert a.bag == b.bag != c.bag
    assert a.sha.digest() != b.sha.digest()
    assert a.count == 50 and len(a.sample) == 10 and set(a.sample) <= set(lines)


def test_series_scales_each_round_by_its_own_factor():
    series = harness.Series()
    series.add(1.0)
    series.add(2.0)
    series.end_round(0.5)
    series.add(4.0)
    series.end_round(2.0)
    assert series.raw == [1.0, 2.0, 4.0]
    assert series.scaled == [0.5, 1.0, 8.0]


def test_round_factor_is_reference_over_median_calibration():
    result = harness.LoopResult(per_query={"q": harness.Series()})
    result.per_query["q"].add(3.0)
    half_speed = 2 * harness.CAL_REF_S
    result.end_round([half_speed, half_speed, 100.0])
    assert result.factors == [0.5]
    assert result.per_query["q"].scaled == [1.5]


def test_calibrate_restores_the_collector_state():
    import gc
    assert gc.isenabled()
    assert harness.calibrate() > 0 and gc.isenabled()
    gc.disable()
    try:
        assert harness.calibrate() > 0 and not gc.isenabled()
    finally:
        gc.enable()


def test_self_time_subtracts_children():
    tracer = harness.Tracer()
    root = tracer.span("query")
    child = tracer.span("matcher.index.run_search", root)
    root.start_ns, root.end_ns = 0, 100
    child.start_ns, child.end_ns = 10, 70
    assert harness.self_times(tracer.spans) == {
        "query": 40e-9, "matcher.index.run_search": 60e-9}
    root.scale = child.scale = 2.0
    assert harness.self_times(tracer.spans) == {
        "query": 80e-9, "matcher.index.run_search": 120e-9}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-sparse", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
