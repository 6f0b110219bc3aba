import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmatch import (
    PatternEdge,
    Relation,
    order_edges,
    pattern_from_triples,
    validate_pattern,
)


class TestOrderEdges:
    def test_two_edges_reordered(self):
        p = pattern_from_triples([(0, 1, 2), (1, 2, 1)])
        assert p.times() == (1, 2)
        assert p.tags == (None, Relation.STRICT)

    def test_equal_times_tagged_equal(self):
        p = pattern_from_triples([(0, 1, 1), (1, 2, 1)])
        assert p.tags == (None, Relation.EQUAL)

    def test_path_all_strict(self):
        p = pattern_from_triples([(i, i + 1, i + 1) for i in range(6)])
        assert len(p.edges) == 6
        assert all(tag is Relation.STRICT for tag in p.tags[1:])

    def test_stable_among_equal_times(self):
        edges = [PatternEdge(0, 1, 5), PatternEdge(2, 0, 5), PatternEdge(1, 2, 5)]
        p = order_edges(edges)
        assert [(e.source, e.target) for e in p.edges] == [(0, 1), (2, 0), (1, 2)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            order_edges([])

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 6)),
                    min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_tags_consistent(self, triples):
        p = pattern_from_triples(triples, node_count=5)
        again = order_edges(p.edges, node_count=5)
        assert again.edges == p.edges
        assert again.tags == p.tags
        times = p.times()
        assert list(times) == sorted(times)
        for i in range(1, len(p.edges)):
            expected = Relation.EQUAL if times[i - 1] == times[i] else Relation.STRICT
            assert p.tags[i] is expected


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

    def test_delta_below_one_rejected(self):
        p = pattern_from_triples([(0, 1, 1)])
        with pytest.raises(ValueError):
            validate_pattern(p, 0)
