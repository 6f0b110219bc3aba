import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmatch import (
    DurationUndefinedError,
    EmptyGraphError,
    GraphBuildError,
    build_graph,
    duration,
    static_projection,
)


# strategy for raw (label, label, time) triples
_triples = st.lists(
    st.tuples(
        st.sampled_from("abcdefg"),
        st.sampled_from("abcdefg"),
        st.integers(min_value=-50, max_value=50),
    ),
    min_size=1,
    max_size=30,
)


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph([("a", "b", 5)])
        assert g.node_count == 2
        assert len(g) == 1
        a, b = g.node_id("a"), g.node_id("b")
        assert (g.sources, g.targets, g.times) == ((a,), (b,), (5,))
        assert g.out_positions[a] == [0] and g.in_positions[b] == [0]
        assert g.out_positions[b] == [] and g.in_positions[a] == []

    def test_parallel_edge_multiplicity(self):
        g = build_graph([("u1", "u5", 6), ("u1", "u5", 9), ("u1", "u5", 14)])
        pair = (g.node_id("u1"), g.node_id("u5"))
        assert g.multiplicity[pair] == [0, 1, 2]
        assert len(g.multiplicity[pair]) == 3

    def test_sort_order_and_links(self):
        # sorted by (time, source, target, input sequence)
        g = build_graph([("a", "b", 3), ("a", "c", 1), ("a", "b", 3)])
        labels = [(g.node_label(e.source), g.node_label(e.target), e.time)
                  for e in g.edges]
        assert labels == [("a", "c", 1), ("a", "b", 3), ("a", "b", 3)]
        assert [e.input_seq for e in g.edges] == [1, 0, 2]
        # the next out-edge of "a" after each edge is its successor here
        assert g.out_positions[g.node_id("a")] == [0, 1, 2]

    def test_sort_matches_independent_sort(self):
        rng = random.Random(5)
        raw = [(rng.choice("abcd"), rng.choice("abcd"), rng.randint(1, 5))
               for _ in range(25)]
        g = build_graph(raw)
        expected = sorted(
            ((t, u, v, i) for i, (u, v, t) in enumerate(raw)),
        )
        got = [(e.time, g.node_label(e.source),
                g.node_label(e.target), e.input_seq) for e in g.edges]
        assert got == expected

    def test_duplicate_triples_retained(self):
        g = build_graph([("x", "y", 7), ("x", "y", 7)])
        assert len(g) == 2

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyGraphError):
            build_graph([])

    def test_malformed_label_rejected(self):
        with pytest.raises(GraphBuildError, match="edge 1"):
            build_graph([("a", "b", 1), ("bad label", "c", 2)])

    def test_non_integer_time_rejected(self):
        with pytest.raises(GraphBuildError, match="edge 0"):
            build_graph([("a", "b", 1.5)])

    def test_isolated_nodes(self):
        g = build_graph([("a", "b", 1)], isolated_nodes=["z", "w"])
        assert g.node_count == 4
        assert g.out_positions[g.node_id("z")] == []
        assert g.in_positions[g.node_id("w")] == []

    @given(_triples)
    @settings(max_examples=150, deadline=None)
    def test_sortedness_invariant(self, triples):
        g = build_graph(triples)
        keys = [(e.time, g.node_label(e.source),
                 g.node_label(e.target), e.input_seq) for e in g.edges]
        assert keys == sorted(keys)
        assert all(keys[i] < keys[i + 1] for i in range(len(keys) - 1))

    @given(_triples)
    @settings(max_examples=150, deadline=None)
    def test_link_walk_completeness(self, triples):
        g = build_graph(triples)
        # walking a node's position list visits exactly the positions that
        # filtering the source / target column finds, in list order
        for w in range(g.node_count):
            assert g.out_positions[w] == [i for i, s in enumerate(g.sources) if s == w]
            assert g.in_positions[w] == [i for i, t in enumerate(g.targets) if t == w]

    @given(_triples)
    @settings(max_examples=100, deadline=None)
    def test_links_point_forward(self, triples):
        g = build_graph(triples)
        # every successor in a position list lies strictly later, and each
        # position sits in exactly one out-list and one in-list
        for lists in (g.out_positions, g.in_positions):
            for positions in lists:
                assert all(a < b for a, b in zip(positions, positions[1:]))
            assert sorted(i for positions in lists for i in positions) == list(range(len(g)))

    @given(_triples)
    @settings(max_examples=100, deadline=None)
    def test_all_four_link_families_exact(self, triples):
        g = build_graph(triples)

        # The four next-in-time links of an edge (next edge leaving / entering
        # its source / target) are implicit: the first entry after the edge's
        # position in that node's position list.
        def first_after(i, node, as_source):
            column = g.sources if as_source else g.targets
            return next((j for j in range(i + 1, len(g)) if column[j] == node), None)

        def successor(positions, i):
            k = bisect.bisect_right(positions, i)
            return positions[k] if k < len(positions) else None

        for i, e in enumerate(g.edges):
            assert (g.sources[i], g.targets[i], g.times[i]) == (e.source, e.target, e.time)
            for node in (e.source, e.target):
                assert successor(g.out_positions[node], i) == first_after(i, node, True)
                assert successor(g.in_positions[node], i) == first_after(i, node, False)

    @given(_triples)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, triples):
        g = build_graph(triples)
        g2 = build_graph(g.export_edges())
        assert g.export_edges() == g2.export_edges()
        assert g.times == g2.times


class TestDuration:
    def test_three_times(self):
        g = build_graph([("u1", "u5", 6), ("u1", "u5", 9), ("u1", "u5", 14)])
        assert duration(g) == 9

    def test_single_edge(self):
        assert duration(build_graph([("a", "b", 7)])) == 1

    def test_empty_set_undefined(self):
        with pytest.raises(DurationUndefinedError):
            duration([])

    def test_accepts_plain_times(self):
        assert duration([6, 9, 14]) == 9


class TestStaticProjection:
    def test_parallel_edges_collapse(self):
        g = build_graph([("u1", "u5", 6), ("u1", "u5", 9), ("u1", "u5", 14)])
        sg = static_projection(g)
        assert sg.edges == frozenset({(g.node_id("u1"), g.node_id("u5"))})

    def test_isolated_nodes_no_edges(self):
        g = build_graph([("a", "b", 1)], isolated_nodes=["c", "d", "e"])
        sg = static_projection(g)
        assert sg.node_count == 5
        assert len(sg.edges) == 1

    def test_direction_preserved(self):
        g = build_graph([("a", "b", 1), ("b", "a", 2)])
        sg = static_projection(g)
        a, b = g.node_id("a"), g.node_id("b")
        assert sg.edges == frozenset({(a, b), (b, a)})

    @given(_triples)
    @settings(max_examples=100, deadline=None)
    def test_projection_soundness(self, triples):
        g = build_graph(triples)
        sg = static_projection(g)
        assert sg.edges == frozenset(pair for pair, lst in g.multiplicity.items() if lst)


class TestNextOut:
    """A node's next out- or in-edge is the next entry of its position list."""

    def test_from_start(self):
        g = build_graph([("u1", "u5", 6), ("u1", "u5", 9), ("u1", "u5", 14)])
        assert g.out_positions[g.node_id("u1")][0] == 0

    def test_no_outgoing(self):
        g = build_graph([("a", "b", 1)])
        assert g.out_positions[g.node_id("b")] == []

    def test_walk_matches_filter_sort(self):
        raw = [("a", "b", 3), ("c", "a", 1), ("a", "d", 2), ("b", "a", 2), ("a", "b", 5)]
        g = build_graph(raw)
        a = g.node_id("a")
        expected = sorted(i for i, e in enumerate(g.edges) if e.source == a)
        assert g.out_positions[a] == expected

    def test_next_in_after_position(self):
        g = build_graph([("a", "b", 1), ("c", "b", 2), ("d", "b", 3)])
        b = g.node_id("b")
        positions = g.in_positions[b]
        assert positions == [0, 1, 2]
        assert [bisect.bisect_right(positions, after) for after in (0, 1, 2)] == [1, 2, 3]
