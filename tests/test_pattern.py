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
        assert p.times() == (1, 2)
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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pattern_from_triples([])

    @pytest.mark.parametrize("node_count", [0, -5])
    def test_node_count_below_one_rejected(self, node_count):
        with pytest.raises(ValueError, match=f"^node count {node_count} is below 1$"):
            pattern_from_triples([(0, 1, 1)], node_count=node_count)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 6)),
                    min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_tags_consistent(self, triples):
        p = pattern_from_triples(triples, node_count=5)
        again = pattern_from_triples([(e.source, e.target, e.time) for e in p.edges],
                                     node_count=5)
        assert again.edges == p.edges
        times = p.times()
        assert list(times) == sorted(times)
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
        with pytest.raises(ValueError):
            validate_pattern(p, 0)

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
# whose node ids or node count are not exact ints
NOT_INT_PATTERNS = {
    "bool-ids": (PatternGraph(2, (PatternEdge(True, False, 1),)),
                 "node ids are not integers: [True, False]"),
    "float-ids": (PatternGraph(2, (PatternEdge(0.0, 1.0, 1),)),
                  "node ids are not integers: [0.0, 1.0]"),
    "float-count": (PatternGraph(2.0, (PatternEdge(0, 1, 1),)),
                    "node count 2.0 is not an integer"),
    "bool-count": (PatternGraph(True, (PatternEdge(0, 0, 1),)),
                   "node count True is not an integer"),
}


class TestNotIntegerNodes:
    @pytest.mark.parametrize("name", list(NOT_INT_PATTERNS))
    def test_reported_as_the_only_violation(self, name):
        p, text = NOT_INT_PATTERNS[name]
        assert validate_pattern(p, 5).violations == (text,)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", list(NOT_INT_PATTERNS))
    def test_every_strategy_refuses(self, name, strategy):
        p, text = NOT_INT_PATTERNS[name]
        g = build_graph([("a", "b", 1), ("b", "c", 2)])
        with pytest.raises(InvalidPatternError, match=re.escape(text)):
            stream_search(g, p, 5, strategy)

    def test_ids_listed_up_to_ten(self):
        p = PatternGraph(12, tuple(PatternEdge(i + 0.5, i + 1, 1) for i in range(11)))
        text = ("node ids are not integers: "
                "[0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5] and 1 more")
        assert text in validate_pattern(p, 5).violations
