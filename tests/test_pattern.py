import dataclasses
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmatch import (
    InvalidPatternError,
    build_graph,
    generate_path_query,
    pattern_from_triples,
    stream_search,
    validate_pattern,
)
from ipmatch.io_cli import STRATEGIES
from ipmatch.matcher import _compile
from ipmatch.pattern import MAX_PATTERN_EDGES, PatternEdge, PatternGraph


def equal_flags(p):
    """Whether the kernel treats each step as simultaneous with the previous edge."""
    return [step.equal for step in _compile(p)]


class TestOrderEdges:
    def test_two_edges_reordered(self):
        p = pattern_from_triples([(0, 1, 2), (1, 2, 1)])
        assert [e.time for e in p.edges] == [1, 2]
        assert equal_flags(p) == [False, False]

    def test_equal_times_tagged_equal(self):
        p = pattern_from_triples([(0, 1, 1), (1, 2, 1)])
        assert equal_flags(p) == [False, True]

    def test_path_all_strict(self):
        p = pattern_from_triples([(i, i + 1, i + 1) for i in range(6)])
        assert len(p.edges) == 6
        assert equal_flags(p) == [False] * 6

    def test_frozen(self):
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])
        for f in dataclasses.fields(p):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, f.name, getattr(p, f.name))

    def test_stable_among_equal_times(self):
        p = pattern_from_triples([(0, 1, 5), (2, 0, 5), (1, 2, 5)])
        assert [(e.source, e.target) for e in p.edges] == [(0, 1), (2, 0), (1, 2)]

    def test_hand_built_edges_out_of_time_order_rejected(self):
        edges = tuple(PatternEdge(i, i + 1, t) for i, t in enumerate((1, 1, 3, 2)))
        with pytest.raises(ValueError, match="^edges out of time order at position 3$"):
            PatternGraph(5, edges)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^a pattern needs at least one edge$"):
            pattern_from_triples([])

    @pytest.mark.parametrize("node_count", [0, -5])
    def test_node_count_below_one_rejected(self, node_count):
        with pytest.raises(ValueError, match=f"^node count {node_count} is below 1$"):
            pattern_from_triples([(0, 1, 1)], node_count=node_count)

    def test_default_node_count_below_one_rejected(self):
        # max endpoint id + 1 is 0 when every id is negative
        with pytest.raises(ValueError, match="^node count 0 is below 1$"):
            pattern_from_triples([(-1, -2, 1)])

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 6)),
                    min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_tags_consistent(self, triples):
        p = pattern_from_triples(triples, node_count=5)
        again = pattern_from_triples([(e.source, e.target, e.time) for e in p.edges],
                                     node_count=5)
        assert again.edges == p.edges
        times = [e.time for e in p.edges]
        assert times == sorted(times)
        assert equal_flags(p) == [i > 0 and times[i - 1] == times[i]
                                  for i in range(len(times))]


class TestValidatePattern:
    def test_path_within_delta(self):
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        assert validate_pattern(p, 3).ok

    def test_duration_violation_named(self):
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        report = validate_pattern(p, 2)
        assert not report.ok
        assert any("dur(P)=3" in v and "delta=2" in v for v in report.violations)

    def test_single_edge_minimal_delta(self):
        p = pattern_from_triples([(0, 1, 1)])
        assert validate_pattern(p, 1).ok

    def test_unused_node_reported(self):
        p = pattern_from_triples([(0, 1, 1)], node_count=3)
        report = validate_pattern(p, 5)
        assert not report.ok
        assert any("without any edge" in v for v in report.violations)

    def test_out_of_range_id_reported(self):
        p = pattern_from_triples([(0, 5, 1)], node_count=2)
        report = validate_pattern(p, 5)
        assert any("out of range" in v for v in report.violations)

    @pytest.mark.parametrize("node_count, text", [
        (2, "node ids out of range 0..1: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]"),
        (1, "node ids out of range 0..0: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 1 more"),
    ])
    def test_out_of_range_ids_listed_up_to_ten(self, node_count, text):
        p = pattern_from_triples([(i, i + 1, 1) for i in range(11)], node_count=node_count)
        assert text in validate_pattern(p, 5).violations

    def test_many_out_of_range_ids_give_a_short_report(self):
        p = pattern_from_triples([(i, i + 1, 1) for i in range(100_000)], node_count=2)
        report = str(validate_pattern(p, 5))
        assert len(report.encode()) < 1024
        assert "and 99989 more" in report

    def test_delta_below_one_rejected(self):
        p = pattern_from_triples([(0, 1, 1)])
        with pytest.raises(ValueError, match="^delta must be >= 1, got 0$"):
            validate_pattern(p, 0)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("delta", [float("nan"), 2.5, "3", True],
                             ids=["nan", "float", "str", "bool"])
    def test_delta_that_is_not_an_int_refused(self, strategy, delta):
        # path-2 has two matches here at any int delta of 2 or more
        g = build_graph([("a", "b", 1), ("b", "c", 2), ("b", "c", 3)])
        p = generate_path_query(2)
        text = f"^delta must be an integer, got {re.escape(repr(delta))}$"
        with pytest.raises(ValueError, match=text):
            validate_pattern(p, delta)
        with pytest.raises(ValueError, match=text):
            stream_search(g, p, delta, strategy)

    @pytest.mark.parametrize("node_count, text", [
        (12, "nodes without any edge: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]"),
        (13, "nodes without any edge: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 1 more"),
    ])
    def test_unused_nodes_listed_up_to_ten(self, node_count, text):
        p = pattern_from_triples([(0, 1, 1)], node_count=node_count)
        assert validate_pattern(p, 5).violations == (text,)

    def test_huge_node_count_checked_in_edge_time(self):
        p = pattern_from_triples([(0, 1, 1)], node_count=10**9)
        t0 = time.perf_counter()
        report = validate_pattern(p, 5)
        assert time.perf_counter() - t0 < 0.1
        assert not report.ok
        assert len(str(report)) < 200
        assert str(report).endswith(" and 999999988 more")


class TestEdgeBound:
    def test_longest_pattern_is_searched(self):
        # a chain of 66 edges holds 3 runs of 64 consecutive ones
        g = build_graph([(i, i + 1, i) for i in range(MAX_PATTERN_EDGES + 2)])
        p = generate_path_query(MAX_PATTERN_EDGES)
        assert validate_pattern(p, MAX_PATTERN_EDGES).ok
        for strategy, lines in [("simple", False), ("index", False), ("index", True),
                                ("baseline", False)]:
            matches, _ = stream_search(g, p, MAX_PATTERN_EDGES, strategy, None, lines)
            assert len(list(matches)) == 3

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_one_edge_more_is_reported_by_every_strategy(self, strategy):
        g = build_graph([(i, i + 1, i) for i in range(MAX_PATTERN_EDGES + 2)])
        p = generate_path_query(MAX_PATTERN_EDGES + 1)
        with pytest.raises(InvalidPatternError,
                           match=f"pattern has 65 edges, limit is {MAX_PATTERN_EDGES}"):
            stream_search(g, p, 1000, strategy)


# patterns built directly, past pattern_from_triples and the file parser,
# whose node ids, node count or edge times are not exact ints: each is
# refused when it is built, by the first constructor to see the value, so
# that none reaches validate_pattern or a strategy
NOT_INT_PATTERNS = {
    "str-time": (lambda: PatternGraph(2, (PatternEdge(0, 1, "x"), PatternEdge(1, 0, "y"))),
                 "pattern edge time 'x' is not an integer"),
    "nan-times": (lambda: PatternGraph(3, (PatternEdge(0, 1, float("nan")),
                                           PatternEdge(1, 2, float("nan")))),
                  "pattern edge time nan is not an integer"),
    "bool-time": (lambda: PatternGraph(2, (PatternEdge(0, 1, True),)),
                  "pattern edge time True is not an integer"),
    "float-time-out-of-order": (lambda: PatternGraph(3, (PatternEdge(0, 1, 9),
                                                         PatternEdge(1, 2, 1.5))),
                                "pattern edge time 1.5 is not an integer"),
    "bool-ids": (lambda: PatternGraph(2, (PatternEdge(True, False, 1),)),
                 "pattern edge source True is not an integer"),
    "float-ids": (lambda: PatternGraph(2, (PatternEdge(0.0, 1.0, 1),)),
                  "pattern edge source 0.0 is not an integer"),
    "float-target": (lambda: PatternGraph(2, (PatternEdge(0, 1.0, 1),)),
                     "pattern edge target 1.0 is not an integer"),
    "float-count": (lambda: PatternGraph(2.0, (PatternEdge(0, 1, 1),)),
                    "node count 2.0 is not an integer"),
    "bool-count": (lambda: PatternGraph(True, (PatternEdge(0, 0, 1),)),
                   "node count True is not an integer"),
    "str-count": (lambda: PatternGraph("2", (PatternEdge(0, 1, 1),)),
                  "node count '2' is not an integer"),
}


class TestNotIntegerNodes:
    @pytest.mark.parametrize("name", list(NOT_INT_PATTERNS))
    def test_reported_as_the_only_violation(self, name):
        build, text = NOT_INT_PATTERNS[name]
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            build()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", list(NOT_INT_PATTERNS))
    def test_every_strategy_refuses(self, name, strategy):
        build, text = NOT_INT_PATTERNS[name]
        g = build_graph([("a", "b", 1), ("b", "c", 2)])
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            stream_search(g, build(), 5, strategy)

    def test_first_non_int_id_named(self):
        with pytest.raises(ValueError, match="^pattern edge source 0.5 is not an integer$"):
            PatternGraph(12, tuple(PatternEdge(i + 0.5, i + 1, 1) for i in range(11)))

    def test_pattern_from_triples_refuses_the_same(self):
        with pytest.raises(ValueError, match="^pattern edge target 1.5 is not an integer$"):
            pattern_from_triples([(0, 1, 1), (1, 1.5, 2)])

