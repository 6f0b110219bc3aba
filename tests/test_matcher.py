import ast
import hashlib
import inspect
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmatch import (
    InvalidPatternError,
    Match,
    PatternEdge,
    PatternGraph,
    SearchStats,
    brute_force,
    build_graph,
    generate_path_query,
    pattern_from_triples,
    run_search,
    stream_search,
    validate_pattern,
    verify_match,
)
from ipmatch.io_cli import STRATEGIES, _limited
from ipmatch.matcher import _compile, _kernel, _kernel_source, _line_split
from _generators import full_span, fstring_fields, random_graph, random_pattern


def both_strategies(g, p, delta, **kw):
    simple, s_stats = run_search(g, p, delta, "simple", **kw)
    index, i_stats = run_search(g, p, delta, "index", **kw)
    return simple, s_stats, index, i_stats


def admitted(stats):
    """The counters simple and index share: they admit the same candidates
    and differ only in how many they examine."""
    return stats.pushes, stats.pops, stats.matches_found, stats.max_depth_reached


def assert_same_admissions(s_stats, i_stats):
    assert admitted(i_stats) == admitted(s_stats)
    assert i_stats.candidates_examined <= s_stats.candidates_examined


class TestInteractionSearch:
    def test_identity_case(self):
        g = build_graph([("a", "b", 1)])
        p = pattern_from_triples([(0, 1, 1)])
        matches, _ = run_search(g, p, 1, "index")
        assert len(matches) == 1
        m = matches[0]
        assert m.node_map == (g.node_id("a"), g.node_id("b"))
        assert m.dur == 1

    def test_two_edge_path_window(self):
        g = build_graph([("a", "b", 1), ("b", "c", 3)])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])
        matches, _ = run_search(g, p, 3, "index")
        assert len(matches) == 1 and matches[0].dur == 3
        assert set(matches) == brute_force(g, p, 3)
        matches2, _ = run_search(g, p, 2, "index")
        assert matches2 == []
        assert brute_force(g, p, 2) == set()

    def test_parallel_edges_are_distinct_matches(self):
        g = build_graph([("u1", "u5", 6), ("u1", "u5", 9), ("u1", "u5", 14)])
        p = pattern_from_triples([(0, 1, 1)])
        matches, _ = run_search(g, p, 20, "index")
        assert [m.edge_assignment for m in matches] == [(0,), (1,), (2,)]

    def test_equal_tag_pair(self):
        p = pattern_from_triples([(0, 1, 1), (1, 2, 1)])
        g_yes = build_graph([("a", "b", 5), ("b", "c", 5)])
        g_no = build_graph([("a", "b", 5), ("b", "c", 6)])
        assert len(run_search(g_yes, p, 5, "index")[0]) == 1
        assert run_search(g_no, p, 5, "index")[0] == []

    @pytest.mark.parametrize("times, expected", [
        ((1, 2), Match((0, 1, 2), (0, 2), 1, 2, 2)),
        ((1, 1), Match((0, 1, 2), (0, 1), 1, 1, 1)),
    ], ids=["strict", "equal"])
    def test_time_order_read_from_edge_times(self, times, expected):
        g = build_graph([("a", "b", 1), ("b", "c", 1), ("b", "c", 2)])
        p = PatternGraph(3, (PatternEdge(0, 1, times[0]), PatternEdge(1, 2, times[1])))
        for strategy in STRATEGIES:
            assert run_search(g, p, 5, strategy)[0] == [expected], strategy

    def test_invalid_pattern_raises(self):
        g = build_graph([("a", "b", 1)])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 5)])
        with pytest.raises(InvalidPatternError):
            run_search(g, p, 2, "index")

    def test_pattern_without_edges_is_reported(self):
        # refused when built, so no strategy ever sees it
        g = build_graph([("a", "b", 1)])
        for strategy in STRATEGIES:
            with pytest.raises(ValueError, match="^a pattern needs at least one edge$"):
                run_search(g, PatternGraph(1, ()), 5, strategy)

    def test_self_loop_pattern_matches_graph_self_loops(self):
        g = build_graph([("a", "a", 1), ("a", "b", 2), ("b", "b", 3)])
        p = pattern_from_triples([(0, 0, 1), (0, 1, 2)])
        matches, _ = run_search(g, p, 5, "index")
        a, b = g.node_id("a"), g.node_id("b")
        assert [(m.node_map, m.edge_assignment) for m in matches] == [((a, b), (0, 1))]
        assert set(matches) == brute_force(g, p, 5)

    def test_limit_zero_and_truncation(self):
        g = build_graph([("u", "v", t) for t in range(1, 8)])
        p = pattern_from_triples([(0, 1, 1)])
        assert run_search(g, p, 10, "index", limit=0)[0] == []
        assert len(run_search(g, p, 10, "index", limit=3)[0]) == 3

    def test_emission_order_lexicographic(self):
        rng = random.Random(13)
        for _ in range(30):
            g, p = random_graph(rng), random_pattern(rng)
            delta = full_span(g)
            if not validate_pattern(p, delta).ok:
                continue
            matches, _ = run_search(g, p, delta, "index")
            assignments = [m.edge_assignment for m in matches]
            assert assignments == sorted(assignments)
            starts = [m.start for m in matches]
            assert starts == sorted(starts)


class TestIterMatches:
    def test_errors_raise_before_iteration(self):
        g = build_graph([("a", "b", 1), ("b", "c", 5)])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])
        with pytest.raises(InvalidPatternError):
            stream_search(g, p, 1, "index")
        with pytest.raises(ValueError):
            stream_search(g, p, 10, "index", limit=-1)

    def test_limit_closes_the_stream(self):
        # closed on reaching the limit, not left to garbage collection
        for limit in (0, 2):
            stream = (i for i in range(5))
            assert list(_limited(stream, limit)) == list(range(limit))
            assert stream.gi_frame is None

    @pytest.mark.parametrize("strategy", ["simple", "index"])
    def test_lazy(self, strategy):
        g = build_graph([("u", "v", t) for t in range(1, 10)])
        p = pattern_from_triples([(0, 1, 1)])
        _, full = run_search(g, p, 100, strategy)
        stream, stats = stream_search(g, p, 100, strategy)
        first = next(stream)
        assert stats == SearchStats()  # counters are written when the stream ends
        stream.close()
        assert first.edge_assignment == (0,)
        assert stats.matches_found == 1
        assert stats.candidates_examined < full.candidates_examined

    def test_match_is_an_immutable_hashable_tuple(self):
        m = Match((0, 1), (3,), 5, 5, 1)
        with pytest.raises(AttributeError):
            m.start = 6
        assert m == Match((0, 1), (3,), 5, 5, 1)
        assert len({m, Match((0, 1), (3,), 5, 5, 1)}) == 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_prefixes_and_counters_equal_the_list_api(self, seed):
        rng = random.Random(seed)
        g, p = random_graph(rng), random_pattern(rng)
        delta = full_span(g)
        if not validate_pattern(p, delta).ok:
            return
        everything = run_search(g, p, delta, "index")[0]
        n = len(everything)
        counted = {}  # (strategy, k or None for a full run) -> stats
        for strategy in ("simple", "index", "baseline", "oracle"):
            kernel = strategy in ("simple", "index")
            stream, stats = stream_search(g, p, delta, strategy)
            assert list(stream) == everything
            if kernel:
                assert stats == run_search(g, p, delta, strategy)[1]
                counted[strategy, None] = stats
            # every k up to 64 keeps the quadratic cost bounded on the rare
            # instance with thousands of matches; baseline and oracle redo
            # their whole search for every k, so they try one k
            ks = set(range(1, min(n, 64) + 1)) | {n // 2, n} if kernel else {(n + 1) // 2}
            for k in sorted(ks - {0}):
                expected, cut = run_search(g, p, delta, strategy, limit=k)
                assert expected == everything[:k]
                stream, stats = stream_search(g, p, delta, strategy)
                assert [next(stream) for _ in range(k)] == expected
                stream.close()
                if kernel:
                    # closing the stream right after its k-th match leaves the
                    # counters of a run stopped by limit=k: one edge per depth pushed
                    assert stats == cut
                    assert stats.pushes - stats.pops == len(p.edges)
                    counted[strategy, k] = stats
                    # closing a limited stream before its limit closes the kernel too
                    stream, stats = stream_search(g, p, delta, strategy, limit=k + 1)
                    assert [next(stream) for _ in range(k)] == expected
                    stream.close()
                    assert stats == cut
        # simple counts a scan by its loop position, index a walk per entry
        for (strategy, k), stats in counted.items():
            if strategy == "index":
                assert_same_admissions(counted["simple", k], stats)

    # the counters one added per examined candidate gives this case, under
    # each strategy
    LIVE_SCANS = {
        None: {"simple": (241, 2, 17, 39, 39), "index": (59, 2, 17, 39, 39)},
        1: {"simple": (21, 1, 17, 17, 0), "index": (17, 1, 17, 17, 0)},
    }

    def test_closed_stream_settles_its_live_scans(self):
        # a 17-edge path whose second edge is simultaneous with its first:
        # closed at its first match, simple has a scan live at the EQUAL
        # depth 1, three candidates into it, and one at depth 16, the first
        # depth of the second generated function
        chain = [f"n{i}" for i in range(18)]
        g = build_graph([("x", "y", 1), (chain[0], chain[1], 1), (chain[1], chain[2], 1),
                         ("y", "x", 1)]
                        + [(chain[i], chain[i + 1], i) for i in range(2, 17)]
                        + [("y", "x", 9), (chain[16], "z", 17), ("x", "z", 17)])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 1)] + [(i, i + 1, i) for i in range(2, 17)])
        for k, expected in self.LIVE_SCANS.items():
            for strategy in ("simple", "index"):
                matches, cut = run_search(g, p, 30, strategy, limit=k)
                assert len(matches) == (k or 2)
                assert tuple(cut.as_dict().values()) == expected[strategy], (k, strategy)
                if k:
                    stream, stats = stream_search(g, p, 30, strategy)
                    assert [next(stream) for _ in range(k)] == matches
                    stream.close()
                    assert stats == cut


class TestMatchingEdgeRoutines:
    def test_deadline_bound(self):
        # window 5 anchored at t=4 admits candidate times up to 8
        g = build_graph([("a", "b", 4), ("b", "c", 8), ("b", "d", 9)])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])
        matches, _ = run_search(g, p, 5, "index")
        assert [(m.start, m.end, m.dur) for m in matches] == [(4, 8, 5)]

    def test_fresh_pair_takes_first_feasible(self):
        g = build_graph([("a", "b", 2), ("c", "d", 5)])
        p = pattern_from_triples([(0, 1, 1)])
        for strategy in ("simple", "index"):
            matches, stats = run_search(g, p, 10, strategy, limit=1)
            assert [m.edge_assignment for m in matches] == [(0,)]
            assert stats.candidates_examined == 1

    def test_both_mapped_restricts_to_pair(self):
        g = build_graph([("a", "b", 1), ("b", "a", 2), ("a", "c", 3), ("a", "b", 4)])
        p = pattern_from_triples([(0, 1, 1), (0, 1, 2)])
        matches, _ = run_search(g, p, 10, "index")
        a, b = g.node_id("a"), g.node_id("b")
        assert [m.node_map for m in matches] == [(a, b)]
        assert matches[0].edge_assignment == (0, 3)
        assert set(matches) == brute_force(g, p, 10)

    def test_index_one_hop_on_parallel_edges(self):
        g = build_graph([("u1", "u5", 6), ("u1", "u5", 9), ("u1", "u5", 14)])
        p = pattern_from_triples([(0, 1, 1), (0, 1, 2)])
        matches, stats = run_search(g, p, 100, "index", limit=1)
        assert matches[0].edge_assignment == (0, 1) and g.times[1] == 9
        # the root at depth 0, then exactly one candidate at depth 1
        assert stats.candidates_examined == 2

    def test_index_examines_fewer_on_sparse_node(self):
        # node "a" has two outgoing edges among 298; the indexed walk
        # touches only those two at depth 1, the linear scan crawls the
        # whole tail of the list for every root
        edges = [("z", "a", 1)]
        edges += [(f"u{i}", f"w{i}", 2 + i) for i in range(295)]
        edges += [("a", "p", 500), ("a", "q", 600)]
        g = build_graph(edges)
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])
        simple, s_stats, index, i_stats = both_strategies(g, p, 10_000)
        assert simple == index and len(index) == 2
        assert i_stats.candidates_examined <= s_stats.candidates_examined
        # every edge once as a root candidate, plus the two chain hops
        assert i_stats.candidates_examined == len(g) + 2

    def test_returns_none_signals_backtrack(self):
        g = build_graph([("a", "b", 1)])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])
        for strategy in ("simple", "index"):
            matches, stats = run_search(g, p, 10, strategy)
            assert matches == []
            # the root is pushed, depth 1 has no candidate, the root is popped
            assert stats.as_dict() == {
                "candidates_examined": 1, "matches_found": 0,
                "max_depth_reached": 1, "pushes": 1, "pops": 1,
            }


def conditions(result):
    """The condition number that each violation of a verify_match report names."""
    return [int(v.removeprefix("condition ").partition(":")[0]) for v in result.violations]


class TestVerifyMatch:
    def setup_method(self):
        self.g = build_graph([("a", "b", 1), ("b", "c", 3)])
        self.p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])

    def test_emitted_matches_are_ok(self):
        matches, _ = run_search(self.g, self.p, 3, "index")
        assert all(verify_match(self.g, self.p, 3, m).ok for m in matches)

    def test_non_injective_mapping_violates_condition_1(self):
        m = Match((0, 1, 0), (0, 1), 1, 3, 3)
        result = verify_match(self.g, self.p, 3, m)
        assert 1 in conditions(result)

    def test_duration_violates_condition_3_only(self):
        good, _ = run_search(self.g, self.p, 3, "index")
        m = good[0]
        result = verify_match(self.g, self.p, 2, m)
        assert set(conditions(result)) == {3}

    def test_wrong_start_end_or_dur_violates_condition_3(self):
        g = build_graph([("a", "b", 5), ("b", "c", 7)])
        (good,), _ = run_search(g, self.p, 3, "index")
        assert (good.start, good.end, good.dur) == (5, 7, 3)
        assert verify_match(g, self.p, 3, good).ok
        for fields in ({"start": 1}, {"end": 99}, {"dur": 1},
                       {"start": 1, "end": 99, "dur": 1}):
            result = verify_match(g, self.p, 200, good._replace(**fields))
            assert conditions(result) == [3], fields

    def test_order_violation_condition_2(self):
        g = build_graph([("a", "b", 5), ("b", "c", 3)])
        m = Match((g.node_id("a"), g.node_id("b"), g.node_id("c")), (1, 0), 3, 5, 3)
        result = verify_match(g, self.p, 5, m)
        assert 2 in conditions(result)

    def test_reused_edge_position_condition_1(self):
        g = build_graph([("a", "b", 2), ("b", "a", 2)])
        p = pattern_from_triples([(0, 1, 1), (0, 1, 1)])
        m = Match((g.node_id("a"), g.node_id("b")), (0, 0), 2, 2, 1)
        result = verify_match(g, p, 5, m)
        assert 1 in conditions(result)

    @pytest.mark.parametrize("graph, triples, delta, match, text", [
        ([("a", "b", 1), ("b", "c", 3)], [(0, 1, 1), (1, 2, 2)], 3,
         Match((0, 1, 2), (0, 1), 1, 3, 3), "ok"),
        ([("a", "b", 1), ("b", "c", 3)], [(0, 1, 1), (1, 2, 2)], 3,
         Match((0, 1, 0), (0, 1), 1, 3, 3),
         "condition 1: node mapping is not injective; "
         "condition 1: edge 1 endpoints disagree with the node mapping"),
        ([("a", "b", 2), ("b", "a", 2)], [(0, 1, 1), (0, 1, 1)], 5,
         Match((0, 1), (0, 0), 2, 2, 1),
         "condition 1: a graph edge is assigned to two pattern edges"),
        ([("a", "b", 5), ("b", "c", 3)], [(0, 1, 1), (1, 2, 2)], 5,
         Match((0, 1, 2), (1, 0), 3, 5, 3),
         "condition 2: edges 0,1 must be strictly ordered"),
        ([("a", "b", 1), ("a", "c", 2)], [(0, 1, 1), (0, 2, 1)], 5,
         Match((0, 1, 2), (0, 1), 1, 2, 2),
         "condition 2: edges 0,1 must be simultaneous"),
        ([("a", "b", 1), ("b", "c", 3)], [(0, 1, 1), (1, 2, 2)], 2,
         Match((0, 1, 2), (0, 1), 1, 3, 3),
         "condition 3: dur=3 exceeds delta=2"),
        ([("a", "b", 1), ("b", "c", 3)], [(0, 1, 1), (1, 2, 2)], 3,
         Match((0, 1, 2), (0, 1), 2, 4, 1),
         "condition 3: start, end, dur 2, 4, 1 are not the edge times' 1, 3, 3"),
        ([("a", "b", 5), ("b", "c", 3)], [(0, 1, 1), (1, 2, 2)], 2,
         Match((0, 1, 0), (1, 0), 3, 5, 9),
         "condition 1: node mapping is not injective; "
         "condition 1: edge 1 endpoints disagree with the node mapping; "
         "condition 2: edges 0,1 must be strictly ordered; "
         "condition 3: dur=3 exceeds delta=2; "
         "condition 3: start, end, dur 3, 5, 9 are not the edge times' 3, 5, 3"),
    ])
    def test_report_text(self, graph, triples, delta, match, text):
        result = verify_match(build_graph(graph), pattern_from_triples(triples), delta, match)
        assert str(result) == text

    @pytest.mark.parametrize("match, message", [
        (Match((0, 1), (0, 1), 1, 3, 3), "match shape does not fit the pattern"),
        (Match((0, 1, 2), (0, 2), 1, 3, 3), "edge position 2 out of range"),
    ], ids=["short-node-map", "position-past-the-end"])
    def test_malformed_match_rejected(self, match, message):
        with pytest.raises(ValueError, match=message):
            verify_match(self.g, self.p, 3, match)

    def test_hand_built_pattern_out_of_time_order(self):
        # pattern_from_triples sorts its edges; a hand-built unsorted pattern is refused
        m = Match((0, 1, 2), (0, 1), 1, 3, 3)
        with pytest.raises(ValueError, match="^edges out of time order at position 1$"):
            verify_match(self.g, PatternGraph(3, (PatternEdge(0, 1, 2), PatternEdge(1, 2, 1))),
                         3, m)


class TestSearchProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_oracle_equivalence_and_work_bound(self, seed):
        rng = random.Random(seed)
        g, p = random_graph(rng), random_pattern(rng)
        delta = rng.choice([1, 2, 5, full_span(g)])
        if not validate_pattern(p, delta).ok:
            delta = max(full_span(g), p.edges[-1].time - p.edges[0].time + 1)
        simple, s_stats, index, i_stats = both_strategies(g, p, delta)
        assert simple == index
        assert set(simple) == brute_force(g, p, delta)
        assert_same_admissions(s_stats, i_stats)
        assert len(set(simple)) == len(simple)
        assert all(verify_match(g, p, delta, m).ok for m in simple)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_delta_monotonicity(self, seed):
        rng = random.Random(seed)
        g, p = random_graph(rng), random_pattern(rng)
        span = full_span(g)
        previous: set = set()
        for delta in sorted({1, 2, 5, span}):
            if not validate_pattern(p, delta).ok:
                continue
            matches, _ = run_search(g, p, delta, "index")
            current = set(matches)
            assert previous <= current
            previous = current

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_backtrack_integrity(self, seed):
        rng = random.Random(seed)
        g, p = random_graph(rng), random_pattern(rng)
        delta = full_span(g)
        if not validate_pattern(p, delta).ok:
            return
        first, stats = run_search(g, p, delta, "index")
        second, _ = run_search(g, p, delta, "index")
        assert first == second
        # a full run pops every edge it pushed; a run cut short after k
        # matches emits the first k and stops with one edge per depth pushed
        assert stats.pushes == stats.pops
        for k in sorted({1, (len(first) + 1) // 2, len(first)}) if first else ():
            cut, cut_stats = run_search(g, p, delta, "index", limit=k)
            assert cut == first[:k]
            assert cut_stats.pushes - cut_stats.pops == len(p.edges)

    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_next_out_gaps_change_no_counter(self, seed):
        # The same graph with every next-send gap read as 0 sends each root
        # to its walk and enters every chain walk: a walk whose first entry
        # is late examines it and stops, and an empty one examines nothing.
        # The real gaps only skip that work, so every counter, of a full
        # run and of each cut one, must come out the same.  Times are moved
        # below 0 or above 2**63 to keep the gaps independent of them.
        rng = random.Random(seed)
        offset = rng.choice([0, -30, 2**63])
        g = build_graph([(u, v, t + offset)
                         for u, v, t in random_graph(rng, self_loop_prob=0.2).export_edges()])
        p = (generate_path_query(rng.choice([2, 3, 4])) if seed % 3 == 0
             else pattern_from_triples(rng.choice([[(0, 1, 1), (1, 0, 2)],
                                                   [(0, 1, 1), (1, 2, 2), (2, 0, 3)],
                                                   [(0, 0, 1), (0, 1, 2)],
                                                   [(0, 1, 1), (1, 1, 2), (1, 2, 3)]]))
             if seed % 3 == 1
             else random_pattern(rng))
        delta = rng.choice([1, 2, 3, 5, full_span(g)])
        if not validate_pattern(p, delta).ok:
            return
        zeros = types.SimpleNamespace(**{c: getattr(g, c) for c in (
            "sources", "targets", "times", "out_positions", "in_positions")},
            next_out_gap=(0,) * len(g))
        everything, stats = run_search(g, p, delta, "index")
        assert run_search(zeros, p, delta, "index") == (everything, stats)
        n = len(everything)
        for k in sorted({1, (n + 1) // 2, n}) if everything else ():
            assert run_search(zeros, p, delta, "index", limit=k) == run_search(
                g, p, delta, "index", limit=k)
            for graph in (g, zeros):
                stream, cut = stream_search(graph, p, delta, "index")
                assert [next(stream) for _ in range(k)] == everything[:k]
                stream.close()
                assert cut == run_search(g, p, delta, "index", limit=k)[1]

    def test_concurrent_searches_share_one_graph(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = random.Random(3)
        g = random_graph(rng, max_nodes=8, max_edges=35)
        patterns = [random_pattern(rng) for _ in range(12)]
        delta = full_span(g)
        jobs = [(p, delta) for p in patterns if validate_pattern(p, delta).ok]
        expected = [run_search(g, p, d, "index")[0] for p, d in jobs]
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(
                lambda job: run_search(g, job[0], job[1], "index")[0],
                jobs,
            ))
        assert got == expected


class TestCompiledKernel:
    """Each pattern shape is compiled once into a kernel that every graph shares."""

    def test_one_pattern_on_two_graphs(self):
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2), (2, 0, 3)])
        small = build_graph([("a", "b", 1), ("b", "c", 2), ("c", "a", 3), ("b", "c", 4)])
        large = build_graph([(f"n{i % 5}", f"n{(i * i + 1) % 5}", i // 3) for i in range(60)])
        for strategy in ("simple", "index"):
            run_search(small, p, 6, strategy)
            counts = []
            for g in (large, small):  # the kernel is cached now
                before = _kernel.cache_info()
                matches, _ = run_search(g, p, 6, strategy)
                assert _kernel.cache_info().hits == before.hits + 1
                assert set(matches) == brute_force(g, p, 6)
                assert len(set(matches)) == len(matches)
                counts.append(len(matches))
            assert counts[0] > counts[1] == 1

    def test_same_shape_reuses_the_kernel(self):
        g = build_graph([("a", "b", 1), ("b", "c", 2), ("c", "d", 3)])
        triples = [(0, 1, 1), (1, 2, 2), (2, 3, 2)]
        first, _ = run_search(g, pattern_from_triples(triples), 4, "index")
        before = _kernel.cache_info()
        second, _ = run_search(g, pattern_from_triples(triples), 4, "index")
        after = _kernel.cache_info()
        assert second == first
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_kernel_source_reads_only_the_compiled_steps(self):
        assert list(inspect.signature(_kernel_source).parameters) == [
            "steps", "use_index", "lines"]

    PINNED_TRIPLES = {
        "ping-pong": [(0, 1, 1), (1, 0, 2)],
        "triangle": [(0, 1, 1), (1, 2, 2), (2, 0, 3)],
        "broadcast-reply": [(0, 1, 1), (0, 2, 1), (1, 0, 2)],
        "star3-simultaneous": [(0, 1, 1), (0, 2, 1), (0, 3, 1)],
        "relay-equal": [(0, 1, 1), (1, 2, 1)],
        "endpoint-cases": [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4), (2, 1, 5)],
    }

    # sha256 of each shape's kernel source under (simple, index): a change to
    # the generator that keeps the kernels keeps these.  The paths put chunk
    # boundaries (16 depths) on both sides; broadcast-reply chooses its
    # walked list at run time; endpoint-cases steps through an unbound
    # self-loop, source bound, both bound, a bound self-loop and target bound.
    PINNED_SOURCE = {
        1: (
            "a8e0ae473c9c07e59809a8affc460fd10c119e35ad25dd15b206d9c1878ee710",
            "a8e0ae473c9c07e59809a8affc460fd10c119e35ad25dd15b206d9c1878ee710"),
        2: (
            "d8988d44f01096cc7a42683a791aac7562023cb304f721313631326f930d60b5",
            "f189dfa5ecec87d6be1985d54c1f343ff70e5f443926c1b878f6d419f7ac4df8"),
        3: (
            "3893f431fb04fc955debd847216047ca3c9e450dc8780e17de7e63592e46ab2c",
            "7a690d4fe10194f5c053b295c5a0009d96f4ba9b1567da1def33330cbe118304"),
        4: (
            "9444fe4d81c081e2c61b4c305224a4b84b2ff599415ec3e1794fc667e45eb683",
            "b289b65912509032d893056c1338aa8d1b367277a558fcc6955ecd7f7c29d692"),
        16: (
            "4de73a3116f88a4d4b5530c6378ae20f2bc6af1709655e0d050d6fe831db6c9b",
            "e7fd5310b793b8d6a3127f82f178f11e07f8334bd2b95c8553b9af462b35c914"),
        17: (
            "ae1a6043321fea7322e67fcc1256d934e648a3e8d68c40815e17490340e1a208",
            "1498a1d1c4f4f5b7a8d409b6caa3895dd60c4bc4eea93afc0096c625c0f7bb2e"),
        25: (
            "f31183e74277ea54b410d3b044de66c020b9ff6c1e1a27d772943afc5dfe1007",
            "aed93faea23cd09499fe7b3710feef52e2e02ace62d8fa28681717ea6830b638"),
        "ping-pong": (
            "8ecf304eb661169fe411980bcfb3ed310390993db9dcb4cfd6a0f94b97958d0a",
            "49d2d29727227d018c12894f908056be99d501b33c00238264ebf869dd06ba77"),
        "triangle": (
            "20e486551dc24609543805b0f6dc4607702e3fd50d7c12e293836c87698ac084",
            "f8ee7aee0ad6a4511df9548e3e35623397a5e7377235d45439220d146f500878"),
        "broadcast-reply": (
            "e9b9408efe617e5862f380d7e3cdc7accdb532de21360e76fcdafd12f7bc0f99",
            "1d0fe1f2e39abffbf83f6e2ac47d0315fe66dcb571dab1b888e04c2b5b653e5f"),
        "star3-simultaneous": (
            "0ccd12af02ab6e2499153c81ba847887fb97349ee976676a29e636eec0d97433",
            "e1adb55d2c9765d3e4376e04105cef561e60556f7a505069bceda0c352123ba3"),
        "relay-equal": (
            "f89ac3eba8daa5974c29bdc4d893ec6eb12af64ade5e429fed4534e95bd8e0e8",
            "8bdb916759fefabfeef8ee798f747e96ed6f333745a0f06fddb46f13b90df6b2"),
        "endpoint-cases": (
            "397ee62c141924fe6e7292581572c865eafe74287d75a9842ccdfa71f0c233c5",
            "eaa1a36b44234b237e7e5729a3ade780bb5bd7481b34a0b55c182de8ecd05c78"),
    }

    def test_source_is_pinned(self):
        for shape, digests in self.PINNED_SOURCE.items():
            p = (generate_path_query(shape) if isinstance(shape, int)
                 else pattern_from_triples(self.PINNED_TRIPLES[shape]))
            for use_index, digest in zip((False, True), digests):
                source = _kernel_source(_compile(p), use_index).encode()
                assert hashlib.sha256(source).hexdigest() == digest, (shape, use_index)

    # the same shapes' kernels in line mode, which yield each match's JSON line
    PINNED_LINE_SOURCE = {
        1: (
            "2a30e373c5f0afd8563c0975511bc99eb1164e11e09c772a2567a355f4a2a60b",
            "2a30e373c5f0afd8563c0975511bc99eb1164e11e09c772a2567a355f4a2a60b"),
        2: (
            "7178badaf5494d8fcc9f62355e603a3e590f800b34fcb111fb5ccfb5d7f5556d",
            "5389e867e7be7bfb05a76b52a721212d4746a30c0648c4b019289d30893b3ab7"),
        3: (
            "90bc59274eeb2cfa1a20c811d5b6188e703d440565794f397082b978f26413fd",
            "597513bd6000a1be32cba8b4a4d68099e4823d71c0e2da5276f3e489acb40213"),
        4: (
            "dd8e59a934aea535c2f9b5e26af898835eefab110f590d1d68082b2a20aa3076",
            "39908b876d14caa4f0cd31fd5a36eadbf5f027912e9c59c531efa795ac783839"),
        16: (
            "83e7d3d3f510e2dc7e4970c1fea320bcd2e1d7050dbc86283e79b0b4d0b0d7f5",
            "b9b9888848c187c0da1cfcd0a74869360b7151c9021ce8dfb7dd313ddfa6f74a"),
        17: (
            "f3b8c05ecdf3955bc8e9e8fe86870275200aafcaeb49c9975aa777007a565e4d",
            "a13657e036041c0ea48f563b57ade5b8ff9b0b24fbb415b99676ba6e84b0d232"),
        25: (
            "e6df0c1e3eff5244aa717b3fce8de43d5aa4298ec54e51224385957811987586",
            "3712e82b4eed6375128f229e23955a648ce915ce4c90d9dff384577e06ced4ab"),
        "ping-pong": (
            "8feadc9a5cdde83e27cbc73906f5da9d4f7f823ac204f3eba09639025126362a",
            "f15b4a67d075c2c66f3df277627a30426f12f817e35aa4329d6b47286910b9d9"),
        "triangle": (
            "5a41ee4f42638b688ca88d92f47e499594b0347b5fbd0301acec41c22f47b929",
            "cf25613905f03f47d0318cafb43684a3bdeb0215edad1aab3ef47198cad50f71"),
        "broadcast-reply": (
            "50d9db58094924490ddf657084b3a45c7df5da0d36b50807f868c8fe2de736c7",
            "55c66071f67d497cbe9274f713348678943c3b67181cf53bb6eb4731b1a9aab4"),
        "star3-simultaneous": (
            "9a3618ee3ce9def275ae394edbea08cbf5c80ecc4a430f436ff21cc9f369cbed",
            "340dd9e9ff6c47c0cd16446067d1eb6026b68e765f619d0591e175bbfe8c11f5"),
        "relay-equal": (
            "5cb5c91f6fc69e7f9b05aa755fb9cf6b0149172daec77bd4fa77ff70e0305b03",
            "6ef60b88f3d31de50bf28bf1681e3dce0b8b2485a705a13a393c4e04aa6e01d4"),
        "endpoint-cases": (
            "5566367da3eec751871c9a196d4e03da919d05e1c9e0c828c1091f8fb2fc5f8e",
            "db7bc8067aac78bee7c5cc5b2d9d525ab0c7f6fee7542ef849c2520799e4fbbc"),
    }

    def test_line_source_is_pinned(self):
        for shape, digests in self.PINNED_LINE_SOURCE.items():
            p = (generate_path_query(shape) if isinstance(shape, int)
                 else pattern_from_triples(self.PINNED_TRIPLES[shape]))
            for use_index, digest in zip((False, True), digests):
                source = _kernel_source(_compile(p), use_index, True).encode()
                assert hashlib.sha256(source).hexdigest() == digest, (shape, use_index)

    @pytest.mark.parametrize("shape", list(PINNED_SOURCE))
    def test_kernel_takes_only_the_columns_it_reads(self, shape):
        # A graph that holds only the columns a kernel is meant to read
        # gives the stream the whole graph gives: every simple kernel reads
        # the three edge columns alone, and a path's index kernel no
        # in-edge list.  Three copies of the pattern's own edges, among
        # random edges on the same labels, give each shape matches.  An
        # index chain kernel also reads the gap column.
        p = (generate_path_query(shape) if isinstance(shape, int)
             else pattern_from_triples(self.PINNED_TRIPLES[shape]))
        rng = random.Random(len(p.edges))
        labels = [f"c{c}n{i}" for c in range(3) for i in range(p.node_count)]
        g = build_graph([(f"c{c}n{e.source}", f"c{c}n{e.target}", e.time + c)
                         for c in range(3) for e in p.edges]
                        + [(rng.choice(labels), rng.choice(labels), rng.randint(1, 30))
                           for _ in range(40)])
        delta = full_span(g)
        kernels = [("simple", ())] + [
            ("index", ("out_positions", "next_out_gap"))] * isinstance(shape, int)
        for strategy, walked in kernels:
            for lines in (False, True):
                columns = ("sources", "targets", "times") + walked + ("label_json",) * lines
                bare = types.SimpleNamespace(**{c: getattr(g, c) for c in columns})
                expected, stats = stream_search(g, p, delta, strategy, lines=lines)
                got, bare_stats = stream_search(bare, p, delta, strategy, lines=lines)
                expected = list(expected)
                assert len(expected) >= 3
                assert (list(got), bare_stats) == (expected, stats), (strategy, lines)

    @pytest.mark.parametrize("seed", range(40))
    def test_source_reads_next_out_time_exactly_at_a_chain_entry(self, seed):
        # A depth enters its walk from the next send's gap when it is
        # STRICT, is not its chunk's first, and walks the out-edges of the
        # node that the previous step's target bound, from after the
        # previous edge.  When that depth is 1 and the root is no
        # self-loop, the root loop tests the gap against the window
        # instead, so depth 1 tests only its sign, and the kernel settles
        # the skipped roots from the count of the roots it visited.
        rng = random.Random(seed)
        p = (generate_path_query(rng.choice([2, 3, 17, 33])) if seed % 4 == 0
             else random_pattern(rng, max_edges=6))
        steps = _compile(p)
        for use_index, lines in ((False, False), (True, False), (True, True)):
            source = _kernel_source(steps, use_index, lines)
            chained = []
            for d in range(1, len(steps)):
                walk = (f"s{d} = out_positions[v{steps[d - 1].target}]\n" in source
                        and f"k{d} = bisect_right(s{d}, p{d - 1})\n" in source)
                if not steps[d].equal and d % 16 and walk:
                    chained.append(d)
            skips = 1 in chained and steps[0].source != steps[0].target
            for d in range(1, len(steps)):
                assert (f"x{d} = next_out_gap[p{d - 1}]" in source) == (
                    d in chained and not (d == 1 and skips))
            header = "for p0 in compress(range(n), map(ge, repeat(span), next_out_gap)):"
            assert source.count(header) == skips
            assert source.count("if next_out_gap[p0] < 0: continue") == skips
            assert source.count("e1 += e0 - w0\n") == skips
            assert ("next_out_gap" in source) == bool(chained)
            assert not chained or use_index

    @pytest.mark.parametrize("seed", range(40))
    def test_each_equal_run_bisects_the_time_column_at_most_once(self, seed):
        # The root loop keeps the start of its edge's time block, so a
        # kernel whose depth 1 is EQUAL never searches the time column for
        # it; a run that starts at depth r > 0 searches it once, at its
        # first EQUAL step, for t{r}, and each later step of the run reuses
        # that start.  Seeds 30 and up draw deep patterns whose runs cross
        # a chunk boundary (16 depths).
        rng = random.Random(seed)
        if seed < 30:
            p = random_pattern(rng, max_edges=6)
        else:
            t, triples = 0, []
            for k in range(rng.randint(17, 34)):
                t += rng.random() < 0.4
                triples.append((k, k + 1, t))
            p = pattern_from_triples(triples)
        steps = _compile(p)
        deeper = [r for r in range(1, len(steps) - 1)
                  if not steps[r].equal and steps[r + 1].equal]
        for use_index, lines in ((False, False), (True, False), (True, True)):
            source = _kernel_source(steps, use_index, lines)
            assert "bisect_left(times, t0)" not in source
            assert source.count("bisect_left(") == len(deeper)
            for r in deeper:
                assert source.count(f"b{r} = bisect_left(times, t{r})\n") == 1
            assert ("if t0 != tb: tb, b0 = t0, p0\n" in source) == (
                len(steps) > 1 and steps[1].equal)

    def test_line_mode_changes_only_the_signatures_and_the_yield(self):
        # Line mode adds one "h0 = None" before the last depth and, for a
        # pattern of two or more edges, an "if h0 is None:" block that sets
        # each run h{j} of _line_split to an f-string of that run; the
        # yield is an f-string of the rest, whose fields name only what
        # the last depth binds, t0 and those runs.  The f-strings' text is
        # the layout's, and every other constant is an int or None.
        assert self.PINNED_LINE_SOURCE.keys() == self.PINNED_SOURCE.keys()
        for shape in self.PINNED_SOURCE:
            p = (generate_path_query(shape) if isinstance(shape, int)
                 else pattern_from_triples(self.PINNED_TRIPLES[shape]))
            steps, m = _compile(p), len(p.edges)
            out, runs = _line_split(steps)
            earlier = {n for step in steps[:-1] for n in (step.source, step.target)}
            last = {f"t{m - 1}"} | {f"v{n}" for n in (steps[-1].source, steps[-1].target)
                                    if n not in earlier}
            hoisted = {f"h{j}" for j in range(len(runs))}
            for use_index in (False, True):
                match_lines = _kernel_source(steps, use_index).splitlines()
                source = _kernel_source(steps, use_index, True)
                tree = ast.parse(source)
                nodes = list(ast.walk(tree))
                resets = [x for x in nodes if isinstance(x, ast.Assign)
                          and ast.unparse(x) == "h0 = None"]
                blocks = [x for x in nodes if isinstance(x, ast.If)
                          and ast.unparse(x.test) == "h0 is None"]
                yields = [x for x in nodes if isinstance(x, ast.Yield)]
                assert (len(resets), len(blocks), len(yields)) == (m > 1, m > 1, 1)
                text = set()  # the f-strings' literal parts
                for block in blocks:
                    assert [ast.unparse(x.targets[0]) for x in block.body] == sorted(
                        hoisted, key=lambda h: int(h[1:]))
                    for j, assign in enumerate(block.body):
                        for f in fstring_fields(assign.value, runs[j]):
                            assert {x.id for x in ast.walk(f) if isinstance(x, ast.Name)} <= (
                                {"label_json", "times"} | {f"{c}{i}" for c in "tvp"
                                                           for i in range(m)})
                        text |= {id(v) for v in assign.value.values}
                named = set()
                for f in fstring_fields(yields[0].value, out):
                    named |= {x.id for x in ast.walk(f) if isinstance(x, ast.Name)}
                assert named <= {"label_json", "t0"} | last | hoisted
                assert hoisted <= named
                text |= {id(v) for v in yields[0].value.values}
                assert len([x for x in nodes if isinstance(x, ast.JoinedStr)]) == len(runs) + 1
                for x in nodes:
                    if isinstance(x, ast.Constant) and id(x) not in text:
                        assert x.value is None or type(x.value) is int, ast.dump(x)
                # the run block comes just before the yield
                assert all(block.end_lineno + 1 == yields[0].lineno for block in blocks)
                added = {k for x in resets + blocks for k in range(x.lineno - 1, x.end_lineno)}
                line_lines = [line for k, line in enumerate(source.splitlines())
                              if k not in added]
                pairs = list(zip(match_lines, line_lines, strict=True))
                changed = [(a.strip(), b.strip()) for a, b in pairs if a != b]
                chunks = 1 + (m - 1) // 16
                # each chunk's signature, the calls of the chunks after the
                # first, and the yield
                assert len(changed) == 2 * chunks
                for a, b in changed[:-1]:
                    assert b.replace(", label_json", "", 1) == a
                assert changed[-1][0].startswith("yield new(Match, ")
                assert changed[-1][1].startswith("yield f")
