import gc
import itertools
import random

import pytest

from ipmatch import (
    Match,
    OracleSizeLimitError,
    brute_force,
    build_graph,
    pattern_from_triples,
    run_search,
    two_phase_search,
    validate_pattern,
    verify_match,
)
from ipmatch.baseline import _pair_positions, _static_matches

from _generators import full_span, parallel_family, random_graph, random_pattern


@pytest.fixture
def collector_off():
    """The cyclic collector stopped, with nothing left for it to find."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestTwoPhaseSearch:
    def test_candidate_count_bounded_by_multiplicity_product(self):
        g = build_graph([
            ("a", "b", 1), ("a", "b", 2), ("a", "b", 3),
            ("b", "c", 4), ("b", "c", 5),
        ])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])
        matches, stats = two_phase_search(g, p, 100)
        assert stats.static_matches == 1
        assert stats.temporal_candidates <= 6
        assert stats.temporal_candidates == 6
        assert len(matches) == 6

    def test_single_edge_pattern_on_parallel_edges(self):
        g = build_graph([("u1", "u5", 6), ("u1", "u5", 9), ("u1", "u5", 14)])
        p = pattern_from_triples([(0, 1, 1)])
        matches, stats = two_phase_search(g, p, 100)
        assert stats.static_matches == 1
        assert stats.temporal_candidates == 3
        assert stats.matches_found == 3
        assert len(matches) == 3

    def test_window_pruning_inside_product(self):
        g = build_graph([("a", "b", 1), ("a", "b", 50), ("b", "c", 2), ("b", "c", 51)])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])
        _, stats = two_phase_search(g, p, 3)
        # pairs further apart than the window never complete
        assert stats.temporal_candidates == 2

    def test_agreement_with_search_on_random_instances(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            g, p = random_graph(rng), random_pattern(rng)
            delta = rng.choice([2, 5, full_span(g)])
            if not validate_pattern(p, delta).ok:
                continue
            via_search, _ = run_search(g, p, delta, "index")
            via_phases, _ = two_phase_search(g, p, delta)
            assert set(via_search) == set(via_phases)
            checked += 1

    def test_leaves_no_reference_cycle(self, collector_off):
        # a cycle would hold the call's adjacency and positions until the
        # collector ran; with it stopped, gc.collect() counts what is left
        g = build_graph([("a", "b", 1), ("b", "c", 2), ("a", "b", 3), ("b", "c", 4),
                         ("c", "a", 5)])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])
        matches, stats = two_phase_search(g, p, 10)
        assert len(matches) == 5 and stats.static_matches == 3
        assert gc.collect() == 0
        static = _static_matches(_pair_positions(g), p)
        assert next(static) == (0, 1, 2)
        static.close()
        del static
        assert gc.collect() == 0


class TestBruteForce:
    def test_single_edge_identity(self):
        g = build_graph([("a", "b", 1)])
        p = pattern_from_triples([(0, 1, 1)])
        found = brute_force(g, p, 1)
        assert len(found) == 1
        (m,) = found
        assert m.node_map == (g.node_id("a"), g.node_id("b"))

    def test_pattern_larger_than_graph_is_empty(self):
        g = build_graph([("a", "b", 1)])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])
        assert brute_force(g, p, 5) == set()

    def test_equal_pair_through_middle_node(self):
        g = build_graph([("a", "b", 7), ("b", "c", 7)])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 1)])
        found = brute_force(g, p, 5)
        assert len(found) == 1
        (m,) = found
        assert m.node_map == (g.node_id("a"), g.node_id("b"), g.node_id("c"))

    def test_leaves_no_reference_cycle(self, collector_off):
        g = build_graph([("a", "b", 1), ("b", "c", 2), ("c", "a", 3)])
        assert len(brute_force(g, pattern_from_triples([(0, 1, 1), (1, 2, 2)]), 10)) == 2
        assert gc.collect() == 0

    def test_equals_the_definition_on_small_random_instances(self):
        # the oracle prunes by distinct positions, time order and window
        # before it calls verify_match; a search that filters only with
        # verify_match must find the same set at every window
        rng = random.Random(7)
        pairs = 0
        found = 0
        for _ in range(300):
            g = random_graph(rng, max_nodes=6, max_edges=10)
            p = random_pattern(rng, max_edges=3)
            positions = _pair_positions(g)
            for delta in range(1, full_span(g) + 1):
                if not validate_pattern(p, delta).ok:
                    continue
                by_definition = set()
                for perm in itertools.permutations(range(g.node_count), p.node_count):
                    lists = [positions.get((perm[pe.source], perm[pe.target]), [])
                             for pe in p.edges]
                    for combo in itertools.product(*lists):
                        ts = [g.times[c] for c in combo]
                        m = Match(perm, combo, min(ts), max(ts), max(ts) - min(ts) + 1)
                        if verify_match(g, p, delta, m).ok:
                            by_definition.add(m)
                assert brute_force(g, p, delta) == by_definition
                pairs += 1
                found += len(by_definition)
        assert pairs > 1000 and found > 1000

    def test_size_guard(self):
        g = build_graph([(f"n{i}", f"n{i+1}", i) for i in range(15)])
        p = pattern_from_triples([(0, 1, 1)])
        with pytest.raises(OracleSizeLimitError):
            brute_force(g, p, 100)
        g_small = build_graph([("a", "b", 1)] * 6)
        p_big = pattern_from_triples([(0, 1, i) for i in range(1, 7)])
        with pytest.raises(OracleSizeLimitError):
            brute_force(g_small, p_big, 100)


class TestExplosionWitness:
    def test_counter_growth_shapes(self):
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        previous_candidates = 0
        for k in (2, 3, 4):
            g = parallel_family(k)
            delta = full_span(g)
            base_matches, b_stats = two_phase_search(g, p, delta)
            idx_matches, i_stats = run_search(g, p, delta, "index")
            assert b_stats.temporal_candidates == k ** 3
            assert b_stats.temporal_candidates > previous_candidates
            previous_candidates = b_stats.temporal_candidates
            assert i_stats.candidates_examined <= 10 * k * len(p.edges)
            assert set(base_matches) == set(idx_matches) == brute_force(g, p, delta)
