import csv
import dataclasses
from pathlib import Path

import pytest

from ipmatch import (
    BenchPlan,
    QueryGenerationError,
    build_graph,
    generate_path_query,
    generate_random_query,
    run_bench,
    save_graph,
    validate_pattern,
)
from ipmatch.bench import CSV_HEADER

from _generators import parallel_family


def read_rows(path):
    with open(path) as fh:
        body = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(body))


@pytest.fixture
def toy_graph_path(tmp_path):
    g = build_graph([
        ("a", "b", 1), ("b", "c", 2), ("c", "d", 3),
        ("a", "b", 4), ("b", "c", 5), ("b", "d", 6),
    ])
    path = tmp_path / "toy.txt"
    save_graph(g, str(path))
    return str(path)


class TestPathQueries:
    def test_length_two(self):
        p = generate_path_query(2)
        assert [(e.source, e.target, e.time) for e in p.edges] == [(0, 1, 1), (1, 2, 2)]

    def test_length_six_duration(self):
        p = generate_path_query(6)
        assert len(p.edges) == 6
        assert validate_pattern(p, 6).ok
        assert p.times() == (1, 2, 3, 4, 5, 6)

    def test_any_length_valid_at_delta_length(self):
        for length in (1, 3, 5, 9):
            p = generate_path_query(length)
            assert validate_pattern(p, length).ok
            assert not validate_pattern(p, length - 1).ok if length > 1 else True

    def test_length_below_one_rejected(self):
        with pytest.raises(ValueError):
            generate_path_query(0)


class TestRandomQueries:
    def test_two_nodes_single_edge(self):
        g = build_graph([("a", "b", 1), ("b", "c", 2)])
        p = generate_random_query(g, 2, seed=1)
        assert p.node_count == 2
        assert len(p.edges) == 1

    def test_star_discovery_ranks(self):
        g = build_graph([("a", "b", 1), ("a", "c", 2)])
        p = generate_random_query(g, 3, seed=7)
        assert p.node_count == 3
        assert p.times() == (1, 2)
        # both tree edges leave the dense id of the start node
        assert [e.source for e in p.edges] == [0, 0]

    def test_same_seed_same_pattern(self):
        g = build_graph([(f"n{i}", f"n{(i * 3 + 1) % 7}", i) for i in range(1, 15)])
        a = generate_random_query(g, 4, seed=42)
        b = generate_random_query(g, 4, seed=42)
        assert [(e.source, e.target, e.time) for e in a.edges] == \
            [(e.source, e.target, e.time) for e in b.edges]

    def test_unreachable_size_errors_with_attempts(self):
        g = build_graph([("a", "b", 1)])
        with pytest.raises(QueryGenerationError, match="50"):
            generate_random_query(g, 6, seed=0)

    def test_generated_patterns_validate(self):
        g = build_graph([(f"n{i}", f"n{(i * 5 + 2) % 9}", i) for i in range(1, 25)])
        for seed in range(10):
            p = generate_random_query(g, 4, seed=seed)
            assert validate_pattern(p, 3).ok


class TestRunBench:
    def test_toy_plan_shape_and_agreement(self, toy_graph_path, tmp_path):
        out = tmp_path / "report.csv"
        plan = BenchPlan(
            graph_path=toy_graph_path, family="path", sizes=[2],
            deltas=[100], strategies=["simple", "index"], output=str(out),
        )
        rows = run_bench(plan)
        cells = [r for r in rows if r.query_id != "avg"]
        assert len(cells) == 2
        assert len({r.matches for r in cells}) == 1
        on_disk = read_rows(out)
        assert set(on_disk[0].keys()) == set(CSV_HEADER)
        assert len(on_disk) == len(rows)

    def test_delta_sweep_on_parallel_family(self, tmp_path):
        path = tmp_path / "family.txt"
        save_graph(parallel_family(4), str(path))
        plan = BenchPlan(
            graph_path=str(path), family="path", sizes=[3],
            deltas=[12], strategies=["index", "baseline"],
        )
        rows = run_bench(plan)
        baseline = next(r for r in rows if r.strategy == "baseline" and r.query_id != "avg")
        index = next(r for r in rows if r.strategy == "index" and r.query_id != "avg")
        assert baseline.candidates == 64
        assert index.candidates <= 10 * 4 * 3
        assert baseline.matches == index.matches

    def test_random_sweep_structure(self, toy_graph_path, tmp_path):
        out = tmp_path / "r.csv"
        plan = BenchPlan(
            graph_path=toy_graph_path, family="random", sizes=[2, 3], count=3,
            deltas=[3, 100], strategies=["simple", "index"], seed=5, output=str(out),
        )
        rows = run_bench(plan)
        cells = [r for r in rows if r.query_id != "avg"]
        assert len(cells) == 2 * 3 * 2 * 2  # sizes x count x deltas x strategies
        averages = [r for r in rows if r.query_id == "avg"]
        assert len(averages) == 2 * 2 * 2

    def test_match_count_monotone_in_delta(self, toy_graph_path):
        plan = BenchPlan(
            graph_path=toy_graph_path, family="random", sizes=[2, 3], count=4,
            deltas=[1, 3, 100], strategies=["index"], seed=9,
        )
        rows = run_bench(plan)
        by_query: dict = {}
        for r in rows:
            if r.query_id != "avg":
                by_query.setdefault(r.query_id, []).append((r.delta, r.matches))
        for counts in by_query.values():
            ordered = [m for _, m in sorted(counts)]
            assert ordered == sorted(ordered)

    def test_seeded_determinism_excluding_millis(self, toy_graph_path):
        plan = dict(
            graph_path=toy_graph_path, family="random", sizes=[3], count=3,
            deltas=[4], strategies=["simple", "index"], seed=11,
        )
        first = run_bench(BenchPlan(**plan))
        second = run_bench(BenchPlan(**plan))
        strip = lambda rows: [
            (r.family, r.size, r.delta, r.strategy, r.query_id, r.matches, r.candidates)
            for r in rows
        ]
        assert strip(first) == strip(second)

    def test_disagreement_aborts_and_saves_replay(self, toy_graph_path, tmp_path,
                                                  monkeypatch):
        import ipmatch.bench as bench_mod
        from ipmatch import StrategyMismatchError

        real = bench_mod.stream_search
        calls = []

        def broken(g, pattern, delta, strategy, limit=None):
            calls.append(strategy)
            matches, stats = real(g, pattern, delta, strategy, limit)
            if strategy == "index":
                matches = iter(list(matches)[:-1])  # simulate a lost match
            return matches, stats

        monkeypatch.setattr(bench_mod, "stream_search", broken)
        out = tmp_path / "r.csv"
        plan = BenchPlan(
            graph_path=toy_graph_path, family="path", sizes=[2, 3],
            deltas=[100], strategies=["simple", "index"], output=str(out),
        )
        with pytest.raises(StrategyMismatchError, match="len2"):
            run_bench(plan)
        assert len(calls) == len(plan.strategies)  # the second query never ran
        saved = list(tmp_path.glob("*.mismatch-*.pattern"))
        assert len(saved) == 1
        assert not out.exists()

    def test_unwritable_output_fails_before_any_cell(self, toy_graph_path, tmp_path,
                                                     capsys, monkeypatch):
        import ipmatch.bench as bench_mod
        from ipmatch.cli import main

        def never(*args):
            raise AssertionError("a cell ran before the output was opened")

        monkeypatch.setattr(bench_mod, "_run_cell", never)
        out = str(tmp_path / "absent" / "r.csv")
        argv = ["bench", "--graph", toy_graph_path, "--family", "path", "--sizes", "2",
                "--deltas", "100", "--strategies", "simple,index", "--output", out]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"i/o error: [Errno 2] No such file or directory: '{out}'\n")


class TestBenchPlan:
    @pytest.mark.parametrize("field, value, message", [
        ("sizes", [], "no sizes given"),
        ("deltas", [], "no deltas given"),
        ("strategies", [], "no strategies given"),
        ("strategies", ["index", "simple", "index"], "strategy 'index' given twice"),
        ("strategies", ["index", "oracle"], "unknown bench strategy 'oracle'"),
    ], ids=["no-sizes", "no-deltas", "no-strategies", "strategy-twice", "unknown-strategy"])
    def test_rejected(self, toy_graph_path, field, value, message):
        plan = dict(graph_path=toy_graph_path, family="path", sizes=[2],
                    deltas=[100], strategies=["simple", "index"])
        with pytest.raises(ValueError, match=message):
            BenchPlan(**{**plan, field: value})

    def test_frozen(self, toy_graph_path):
        plan = BenchPlan(graph_path=toy_graph_path, family="path", sizes=[2],
                         deltas=[100], strategies=["simple", "index"])
        for f in dataclasses.fields(plan):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(plan, f.name, getattr(plan, f.name))

    @pytest.mark.parametrize("flag, value", [("--sizes", ""), ("--sizes", "70"),
                                             ("--strategies", "index,index")])
    def test_cli_exits_1_and_writes_nothing(self, toy_graph_path, tmp_path, capsys,
                                            flag, value):
        from ipmatch.cli import main

        out = tmp_path / "r.csv"
        args = {"--sizes": "1,2", "--deltas": "10", "--strategies": "simple,index"}
        args[flag] = value
        argv = ["bench", "--graph", toy_graph_path, "--family", "path",
                "--output", str(out)]
        for name, text in args.items():
            argv += [name, text]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_repeated_sizes_and_deltas_give_one_cell(self, tmp_path):
        from ipmatch.cli import main

        graph = tmp_path / "g.txt"
        graph.write_text("a b 1\nb c 2\na b 3\nb c 4\nc a 5\n")
        out = tmp_path / "r.csv"
        argv = ["bench", "--graph", str(graph), "--family", "path", "--sizes", "2,2",
                "--deltas", "10,10", "--strategies", "index", "--output", str(out)]
        assert main(argv) == 0
        rows = read_rows(out)
        assert [(r["size"], r["delta"], r["query_id"]) for r in rows] == [
            ("2", "10", "len2"), ("2", "10", "avg")]
