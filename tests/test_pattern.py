import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmatch import (
    pattern_from_triples,
    validate_pattern,
)
from ipmatch.matcher import _compile


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

    def test_stable_among_equal_times(self):
        p = pattern_from_triples([(0, 1, 5), (2, 0, 5), (1, 2, 5)])
        assert [(e.source, e.target) for e in p.edges] == [(0, 1), (2, 0), (1, 2)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pattern_from_triples([])

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

    def test_delta_below_one_rejected(self):
        p = pattern_from_triples([(0, 1, 1)])
        with pytest.raises(ValueError):
            validate_pattern(p, 0)
