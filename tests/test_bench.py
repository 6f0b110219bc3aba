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
    load_graph,
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


SYNTHETIC = Path(__file__).parent / "data" / "synthetic_1000.txt"


@pytest.fixture(scope="module")
def synthetic_graph():
    return load_graph(str(SYNTHETIC))


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

    # Recorded values: edge k enters node k + 1 at time k + 1 and leaves the
    # node listed here (node k where none is).  A change to the order of the
    # frontier, or to the order of draws from the seed, changes them.
    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_pinned_small_queries(self, synthetic_graph, size, seed):
        sources = {
            (5, 0): [0, 1, 2, 0], (5, 1): [0, 1, 0, 3], (5, 7): [0, 1, 2, 0],
            (8, 0): [0, 1, 2, 0, 3, 4, 4], (8, 1): [0, 1, 0, 3, 3, 3, 5],
            (8, 7): [0, 1, 2, 0, 0, 1, 3],
        }.get((size, seed), range(size - 1))
        p = generate_random_query(synthetic_graph, size, seed)
        assert [(e.source, e.target, e.time) for e in p.edges] == \
            [(u, k + 1, k + 1) for k, u in enumerate(sources)]

    # edge k's source where it is not node k: the tree leaves the path there.
    # Recorded values, which the frontier order or the draw order changes.
    @pytest.mark.parametrize("size, seed, branches", [
        (60, 0, {
            3: 0, 4: 3, 5: 4, 6: 4, 7: 3, 8: 7, 9: 6, 10: 9, 11: 7, 13: 11, 14: 3, 15: 6,
            16: 3, 17: 2, 18: 11, 19: 7, 20: 13, 21: 4, 22: 3, 23: 14, 24: 18, 25: 21,
            26: 5, 27: 15, 28: 14, 29: 23, 30: 24, 31: 10, 32: 19, 33: 18, 34: 20, 35: 6,
            36: 0, 37: 30, 38: 0, 39: 35, 40: 26, 41: 19, 42: 16, 43: 18, 44: 14, 45: 39,
            46: 34, 47: 9, 48: 8, 49: 26, 50: 12, 51: 25, 52: 24, 53: 52, 54: 41, 55: 10,
            56: 46, 57: 27, 58: 45,
        }),
        (90, 0, {
            3: 0, 4: 3, 5: 4, 6: 4, 7: 3, 8: 7, 9: 6, 10: 9, 11: 7, 13: 11, 14: 3, 15: 6,
            16: 3, 17: 2, 18: 11, 19: 7, 20: 13, 21: 4, 22: 3, 23: 14, 24: 18, 25: 21,
            26: 5, 27: 15, 28: 14, 29: 23, 30: 24, 31: 10, 32: 19, 33: 18, 34: 20, 35: 6,
            36: 0, 37: 30, 38: 0, 39: 35, 40: 26, 41: 19, 42: 16, 43: 18, 44: 14, 45: 39,
            46: 34, 47: 9, 48: 8, 49: 26, 50: 12, 51: 25, 52: 24, 53: 52, 54: 41, 55: 10,
            56: 46, 57: 27, 58: 45, 59: 22, 60: 25, 61: 18, 62: 17, 63: 52, 64: 38, 65: 8,
            66: 11, 67: 54, 68: 14, 70: 9, 71: 33, 72: 66, 73: 23, 74: 69, 75: 72, 76: 50,
            77: 42, 78: 59, 79: 75, 81: 60, 82: 17, 83: 58, 84: 42, 85: 3, 86: 31, 87: 14,
            88: 20,
        }),
        (90, 1, {
            2: 0, 4: 3, 5: 3, 6: 5, 7: 2, 8: 7, 9: 1, 10: 9, 11: 0, 12: 8, 13: 9, 14: 11,
            15: 14, 16: 14, 17: 0, 18: 10, 19: 9, 20: 4, 21: 12, 22: 1, 23: 1, 24: 1,
            25: 20, 26: 0, 27: 15, 28: 25, 29: 9, 30: 16, 31: 27, 32: 1, 33: 9, 34: 29,
            35: 17, 36: 22, 37: 15, 38: 19, 39: 36, 40: 24, 41: 2, 42: 9, 43: 25, 44: 11,
            45: 40, 46: 33, 47: 41, 48: 25, 49: 47, 50: 41, 51: 41, 52: 3, 53: 39, 54: 21,
            55: 34, 56: 53, 57: 16, 58: 45, 59: 57, 60: 54, 61: 15, 62: 44, 63: 2, 64: 41,
            65: 4, 66: 34, 67: 16, 68: 21, 69: 1, 70: 49, 71: 49, 72: 47, 73: 70, 74: 31,
            75: 74, 76: 63, 77: 67, 78: 72, 79: 65, 80: 68, 81: 25, 82: 38, 83: 11, 84: 82,
            85: 71, 86: 0, 87: 43, 88: 32,
        }),
        (90, 2, {
            1: 0, 2: 0, 3: 2, 4: 1, 5: 2, 6: 2, 7: 5, 8: 2, 9: 1, 10: 3, 11: 8, 12: 11,
            13: 8, 15: 13, 16: 15, 18: 14, 20: 16, 21: 18, 22: 10, 23: 1, 24: 1, 25: 14,
            26: 18, 27: 12, 28: 15, 29: 17, 30: 7, 31: 21, 32: 10, 33: 1, 34: 14, 35: 8,
            36: 15, 37: 28, 38: 24, 39: 9, 40: 31, 41: 38, 42: 14, 43: 34, 44: 39, 45: 21,
            46: 40, 47: 24, 48: 41, 49: 42, 50: 43, 51: 31, 52: 39, 53: 39, 54: 30, 55: 39,
            56: 41, 57: 23, 58: 42, 59: 28, 60: 47, 61: 45, 62: 51, 63: 18, 64: 43, 65: 58,
            66: 7, 67: 64, 68: 67, 69: 61, 70: 67, 71: 62, 72: 10, 73: 60, 74: 72, 76: 64,
            77: 71, 78: 25, 79: 74, 80: 63, 81: 2, 82: 22, 83: 14, 84: 4, 85: 10, 86: 49,
            87: 9, 88: 1,
        }),
    ])
    def test_pinned_branching_queries(self, synthetic_graph, size, seed, branches):
        p = generate_random_query(synthetic_graph, size, seed)
        assert [(e.target, e.time) for e in p.edges] == [(k, k) for k in range(1, size)]
        assert {k: e.source for k, e in enumerate(p.edges) if e.source != k} == branches

    @pytest.mark.parametrize("size", [5, 8])
    def test_draws_vary_the_out_tree(self, synthetic_graph, size):
        patterns = set()
        for seed in range(50):
            p = generate_random_query(synthetic_graph, size, seed)
            edges = tuple((e.source, e.target, e.time) for e in p.edges)
            for k, (u, v, t) in enumerate(edges):
                assert (v, t) == (k + 1, k + 1) and u <= k
            patterns.add(edges)
        path = tuple((e.source, e.target, e.time) for e in generate_path_query(size - 1).edges)
        assert len(patterns) > 1
        assert patterns - {path}

    def test_size_below_two_rejected(self, synthetic_graph):
        with pytest.raises(ValueError, match="random query size must be >= 2, got 1"):
            generate_random_query(synthetic_graph, 1, 0)

    def test_size_past_node_count_errors(self, synthetic_graph):
        with pytest.raises(QueryGenerationError, match="121 nodes after 50 attempts"):
            generate_random_query(synthetic_graph, synthetic_graph.node_count + 1, seed=0)

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
        ("family", "tree", "unknown query family 'tree'"),
        ("count", 0, "count must be >= 1"),
    ], ids=["no-sizes", "no-deltas", "no-strategies", "strategy-twice", "unknown-strategy",
            "unknown-family", "no-count"])
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
