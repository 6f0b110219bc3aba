import bisect
import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmatch import (
    EmptyGraphError,
    GraphBuildError,
    build_graph,
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


def _edges(g):
    """Every edge of ``g`` in list order, as (source, target, time) rows."""
    return list(zip(g.sources, g.targets, g.times))


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph([("a", "b", 5)])
        assert g.node_count == 2
        assert len(g) == 1
        a, b = g.node_id("a"), g.node_id("b")
        assert (g.sources, g.targets, g.times) == ((a,), (b,), (5,))
        assert g.out_positions[a] == (0,) and g.in_positions[b] == (0,)
        assert g.out_positions[b] == () and g.in_positions[a] == ()

    def test_frozen_with_node_count_from_labels(self):
        g = build_graph([("a", "b", 1), ("b", "c", 2)])
        assert g.node_count == len(g.labels) == 3
        for f in dataclasses.fields(g):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, f.name, getattr(g, f.name))

    def test_fields_cannot_change_in_place(self):
        g = build_graph([("a", "b", 1), ("b", "c", 2)])
        with pytest.raises(AttributeError):
            g.labels.append("zz")
        with pytest.raises(AttributeError):
            g.out_positions[0].append(1)
        with pytest.raises(TypeError):
            g.label_index["zz"] = 3
        assert type(g.next_out_gap) is tuple
        with pytest.raises(AttributeError):
            g.next_out_gap.append(-1)
        assert g.node_count == len(g.label_json) == len(g.label_index) == 3

    def test_parallel_edge_multiplicity(self):
        g = build_graph([("u1", "u5", 6), ("u1", "u5", 9), ("u1", "u5", 14)])
        pair = (g.node_id("u1"), g.node_id("u5"))
        positions = [i for i, (u, v, _) in enumerate(_edges(g)) if (u, v) == pair]
        assert positions == [0, 1, 2]
        assert len(positions) == 3
        assert static_projection(g) == frozenset({pair})

    def test_sort_order_and_links(self):
        # sorted by (time, source, target), exact duplicates in input order
        g = build_graph([("a", "b", 3), ("a", "c", 1), ("a", "b", 3)])
        labels = [(g.labels[u], g.labels[v], t) for u, v, t in _edges(g)]
        assert labels == [("a", "c", 1), ("a", "b", 3), ("a", "b", 3)]
        # the next out-edge of "a" after each edge is its successor here
        assert g.out_positions[g.node_id("a")] == (0, 1, 2)

    def test_sort_matches_independent_sort(self):
        rng = random.Random(5)
        raw = [(rng.choice("abcd"), rng.choice("abcd"), rng.randint(1, 5))
               for _ in range(25)]
        g = build_graph(raw)
        expected = [
            key[:3] for key in sorted((t, u, v, i) for i, (u, v, t) in enumerate(raw))
        ]
        got = [(t, g.labels[u], g.labels[v]) for u, v, t in _edges(g)]
        assert got == expected

    def test_duplicate_triples_retained(self):
        g = build_graph([("x", "y", 7), ("x", "y", 7)])
        assert len(g) == 2

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyGraphError):
            build_graph([])

    def test_empty_iterator_rejected(self):
        with pytest.raises(EmptyGraphError):
            build_graph(iter([]))

    def test_generator_input_builds_the_same_graph(self):
        triples = [("b", "c", 2), ("a", "b", 1), ("a", "b", 1)]
        g = build_graph(triple for triple in triples)
        assert g.export_edges() == build_graph(triples).export_edges()
        assert g.labels == ("b", "c", "a")

    def test_malformed_label_rejected(self):
        with pytest.raises(GraphBuildError, match="edge 1"):
            build_graph([("a", "b", 1), ("bad label", "c", 2)])

    def test_non_integer_time_rejected(self):
        with pytest.raises(GraphBuildError, match="edge 0"):
            build_graph([("a", "b", 1.5)])

    @given(_triples)
    @settings(max_examples=150, deadline=None)
    def test_sortedness_invariant(self, triples):
        g = build_graph(triples)
        keys = [(t, g.labels[u], g.labels[v]) for u, v, t in _edges(g)]
        assert keys == sorted(keys)

    @given(_triples)
    @settings(max_examples=150, deadline=None)
    def test_link_walk_completeness(self, triples):
        g = build_graph(triples)
        # walking a node's position list visits exactly the positions that
        # filtering the source / target column finds, in list order
        for w in range(g.node_count):
            assert g.out_positions[w] == tuple(i for i, s in enumerate(g.sources) if s == w)
            assert g.in_positions[w] == tuple(i for i, t in enumerate(g.targets) if t == w)

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

        for i, (u, v, _) in enumerate(_edges(g)):
            for node in (u, v):
                assert successor(g.out_positions[node], i) == first_after(i, node, True)
                assert successor(g.in_positions[node], i) == first_after(i, node, False)

    @given(_triples)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, triples):
        g = build_graph(triples)
        g2 = build_graph(g.export_edges())
        assert g.export_edges() == g2.export_edges()
        assert g.times == g2.times


# Mixed str and int labels whose str forms collide (3 and "3"), self-loops,
# exact duplicate triples, many equal times, negative times and times
# above 2**63.
_mixed_label = st.one_of(st.sampled_from(["a", "b", "3", "10", "x#"]), st.integers(0, 12))
_mixed_time = st.one_of(st.integers(-3, 3), st.sampled_from([2**63, 2**63 + 1, 2**64]))


@st.composite
def _mixed_inputs(draw):
    edges = draw(st.lists(
        st.tuples(_mixed_label, _mixed_label, _mixed_time), min_size=1, max_size=25))
    edges += draw(st.lists(st.sampled_from(edges), max_size=6))
    return draw(st.permutations(edges))


def _reference_build(edges):
    """The graph as a naive sort and filter describes it.

    The input index ends each sort key, so exact duplicates keep their
    input order, as a stable sort keeps them.
    """
    keyed = sorted((t, str(u), str(v), seq) for seq, (u, v, t) in enumerate(edges))
    labels = tuple(dict.fromkeys(str(x) for u, v, _ in edges for x in (u, v)))
    node = {label: n for n, label in enumerate(labels)}
    positions = range(len(keyed))
    return {
        "labels": labels,
        "label_json": tuple(map(json.dumps, labels)),
        "label_index": node,
        "sources": tuple(node[k[1]] for k in keyed),
        "targets": tuple(node[k[2]] for k in keyed),
        "times": tuple(k[0] for k in keyed),
        "out_positions": tuple(tuple(i for i in positions if keyed[i][1] == label)
                               for label in labels),
        "in_positions": tuple(tuple(i for i in positions if keyed[i][2] == label)
                              for label in labels),
        "next_out_gap": tuple(
            next((keyed[j][0] - keyed[i][0] for j in positions
                  if j >= i and keyed[j][1] == keyed[i][2]), -1)
            for i in positions),
    }


def _first_error(edges):
    """The message of the seed build's first failing check, or None."""
    def malformed(raw):
        label = str(raw)
        return not label or label[0] == "#" or any(ch.isspace() for ch in label)

    for seq, item in enumerate(edges):
        if isinstance(item, (str, bytes)) or not hasattr(item, "__len__"):
            return f"edge {seq}: expected a (source, target, time) triple, got {item!r}"
        if len(item) != 3:
            return f"edge {seq}: expected 3 fields, got {len(item)}"
        u, v, t = item
        for raw in (u, v):
            if isinstance(raw, bool) or not isinstance(raw, (str, int)):
                return f"edge {seq}: label {raw!r} is not a string or an integer"
            if malformed(raw):
                return f"edge {seq}: malformed label {raw!r}"
        if isinstance(t, bool) or not isinstance(t, int):
            return f"edge {seq}: timestamp {t!r} is not an integer"
    return None


# Mostly valid entries, so that a bad one often follows labels seen before.
# The labels of other types include True and 1.0, equal keys to the label 1,
# and an unhashable list; the entries that are no triple include a str and
# bytes of length 3.
_any_label = st.one_of(
    st.sampled_from(["a", "b", "c", "a#"]), st.integers(0, 3),
    st.sampled_from(["", "a b", "c\t", "\x1c", "#", "#a"]),
    st.sampled_from([None, True, 1.0, b"a", ["a"]]),
)
_any_time = st.one_of(st.integers(-2, 2), st.sampled_from([1.5, True, "3", None]))
_any_entry = st.one_of(
    st.tuples(_any_label, _any_label, _any_time),
    st.sampled_from([("a", "b"), ("a", "b", 1, 2), (), 1, None, "abc", b"abc"]),
)


class TestColumnarBuild:
    @given(_mixed_inputs())
    @settings(max_examples=200, deadline=None)
    def test_columns_equal_naive_reference(self, edges):
        g = build_graph(edges)
        ref = _reference_build(edges)
        assert g.labels == ref["labels"]
        assert g.node_count == len(ref["labels"])
        assert list(g.label_index.items()) == list(ref["label_index"].items())
        for column in ("label_json", "sources", "targets", "times", "out_positions",
                       "in_positions", "next_out_gap"):
            assert getattr(g, column) == ref[column], column
        assert len(g) == len(edges)
        assert static_projection(g) == frozenset(zip(ref["sources"], ref["targets"]))

    @given(_mixed_inputs())
    @settings(max_examples=200, deadline=None)
    def test_next_out_gap_is_the_gap_to_the_next_send_of_the_target(self, edges):
        g = build_graph(edges)
        for i, v in enumerate(g.targets):
            later = [j for j in range(i, len(g)) if g.sources[j] == v]
            assert g.next_out_gap[i] == (g.times[later[0]] - g.times[i] if later else -1)
        # so a loop over the roots by gap keeps the last
        assert g.next_out_gap[-1] == (0 if g.sources[-1] == g.targets[-1] else -1)

    def test_next_out_gap_of_a_self_loop_is_zero(self):
        g = build_graph([("a", "a", 1), ("a", "a", 2), ("b", "a", 2**64)])
        assert g.next_out_gap == (0, 0, -1)
        g = build_graph([("a", "a", -1), ("a", "b", 2**63), ("b", "a", 2**63)])
        assert g.next_out_gap == (0, 0, -1)
        # an edge into a node whose next send comes at its own time
        g = build_graph([("a", "b", 5), ("b", "c", 5), ("c", "c", 7)])
        assert g.next_out_gap == (0, 2, 0)

    def test_columns_only(self):
        g = build_graph([("a", "b", 1)])
        assert not hasattr(g, "edges") and not hasattr(g, "multiplicity")
        assert not hasattr(g, "seqs") and not hasattr(g, "edge_at")

    def test_positions_share_one_int_per_edge(self):
        g = build_graph([(f"n{i % 7}", f"n{i % 5}", -i) for i in range(1000)])
        out_ints = {id(i) for positions in g.out_positions for i in positions}
        in_ints = {id(i) for positions in g.in_positions for i in positions}
        assert len(out_ints) == len(g)
        assert out_ints == in_ints

    @given(st.lists(_any_entry, min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_invalid_input_names_the_first_bad_entry(self, edges):
        expected = _first_error(edges)
        if expected is None:
            assert len(build_graph(edges)) == len(edges)
        else:
            with pytest.raises(GraphBuildError) as exc:
                build_graph(edges)
            assert str(exc.value) == expected

    @pytest.mark.parametrize("edges, message", [
        ([1], "edge 0: expected a (source, target, time) triple, got 1"),
        ([("a", "b", 1), "abc"], "edge 1: expected a (source, target, time) triple, got 'abc'"),
        ([("a", "b", 1), b"abc"], "edge 1: expected a (source, target, time) triple, got b'abc'"),
        ([("a", "b", 1), iter("abc")], "edge 1: expected a (source, target, time) triple"),
        # a bad label of an earlier entry is named first
        ([("a", "#b", 1), 1], "edge 0: malformed label '#b'"),
        ([("a", None, 1), "abc"], "edge 0: label None is not a string or an integer"),
    ])
    def test_entry_that_is_no_triple_rejected(self, edges, message):
        with pytest.raises(GraphBuildError) as exc:
            build_graph(edges)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("label", [None, 1.0, True, False, b"a", ("a",), ["a"], {"a": 1}])
    def test_label_of_another_type_rejected(self, label):
        # the label is checked by its type, though True, 1.0 and the int 1
        # are one dict key, so a later one is not hidden by an earlier 1
        for edges, entry in [([("a", label, 1)], 0), ([(1, "a", 1), (label, "b", 2)], 1),
                             ([(0, "a", 1), ("a", label, "x")], 1)]:
            with pytest.raises(GraphBuildError) as exc:
                build_graph(edges)
            assert str(exc.value) == f"edge {entry}: label {label!r} is not a string or an integer"

    def test_int_and_int_subclass_labels_read_as_str(self):
        class Label(int):
            pass

        g = build_graph([(1, Label(2), 1), ("1", 3, 2)])
        assert g.labels == ("1", "2", "3")
        assert all(type(label) is str for label in g.labels)

    def test_int_subclass_time_is_kept_as_its_int(self):
        class Time(int):
            def __format__(self, spec):
                return "X"

            def __str__(self):
                return "S"

            def __repr__(self):
                return "R"

        g = build_graph([("a", "b", Time(2)), ("b", "c", Time(2**64)), ("c", "d", 3)])
        assert g.times == (2, 3, 2**64)
        assert all(type(t) is int for t in g.times)
        assert [type(t) for _, _, t in g.export_edges()] == [int] * 3

    def test_leading_hash_label_rejected(self):
        # saved as "#a b 1", the edge would reload as a comment
        with pytest.raises(GraphBuildError, match=r"^edge 0: malformed label '#a'$"):
            build_graph([("#a", "b", 1), ("b", "c", 2)])
        with pytest.raises(GraphBuildError, match=r"^edge 1: malformed label '#'$"):
            build_graph([("a", "b", 1), ("b", "#", 2)])
        assert build_graph([("a#", "b#c", 1)]).labels == ("a#", "b#c")


class TestNodeId:
    def test_int_label_finds_its_str_form(self):
        g = build_graph([(1, "a", 1), ("b", 20, 2)])
        assert [g.node_id(x) for x in (1, "1", "a", "b", 20, "20")] == [0, 0, 1, 2, 3, 3]

    @pytest.mark.parametrize("label", [True, False, 1.0, None, b"1", ("1",), ["1"]])
    def test_label_build_graph_refuses_is_refused(self, label):
        g = build_graph([(1, 0, 1), ("True", "1.0", 2), ("None", "b'1'", 3)])
        with pytest.raises(ValueError, match="is not a string or an integer$"):
            g.node_id(label)

    def test_unknown_label(self):
        g = build_graph([("a", "b", 1)])
        for label in ("c", 3):
            with pytest.raises(ValueError, match=f"^unknown node label {label!r}$"):
                g.node_id(label)


class TestStaticProjection:
    def test_parallel_edges_collapse(self):
        g = build_graph([("u1", "u5", 6), ("u1", "u5", 9), ("u1", "u5", 14)])
        assert static_projection(g) == frozenset({(g.node_id("u1"), g.node_id("u5"))})

    def test_direction_preserved(self):
        g = build_graph([("a", "b", 1), ("b", "a", 2)])
        a, b = g.node_id("a"), g.node_id("b")
        assert static_projection(g) == frozenset({(a, b), (b, a)})

    @given(_triples)
    @settings(max_examples=100, deadline=None)
    def test_projection_soundness(self, triples):
        g = build_graph(triples)
        assert static_projection(g) == frozenset((u, v) for u, v, _ in _edges(g))


class TestNextOut:
    """A node's next out- or in-edge is the next entry of its position list."""

    def test_from_start(self):
        g = build_graph([("u1", "u5", 6), ("u1", "u5", 9), ("u1", "u5", 14)])
        assert g.out_positions[g.node_id("u1")][0] == 0

    def test_no_outgoing(self):
        g = build_graph([("a", "b", 1)])
        assert g.out_positions[g.node_id("b")] == ()

    def test_walk_matches_filter_sort(self):
        raw = [("a", "b", 3), ("c", "a", 1), ("a", "d", 2), ("b", "a", 2), ("a", "b", 5)]
        g = build_graph(raw)
        a = g.node_id("a")
        expected = tuple(sorted(i for i, (u, _, _) in enumerate(_edges(g)) if u == a))
        assert g.out_positions[a] == expected

    def test_next_in_after_position(self):
        g = build_graph([("a", "b", 1), ("c", "b", 2), ("d", "b", 3)])
        b = g.node_id("b")
        positions = g.in_positions[b]
        assert positions == (0, 1, 2)
        assert [bisect.bisect_right(positions, after) for after in (0, 1, 2)] == [1, 2, 3]
