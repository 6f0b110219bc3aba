import hashlib
import inspect
import random
import re

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
from _generators import full_span, random_graph, random_pattern


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
        p = PatternGraph(1, ())
        assert "pattern has no edges" in validate_pattern(p, 5).violations
        g = build_graph([("a", "b", 1)])
        for strategy in STRATEGIES:
            with pytest.raises(InvalidPatternError, match="pattern has no edges"):
                run_search(g, p, 5, strategy)

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
        # pattern_from_triples sorts its edges, so only a hand-built pattern is unsorted
        p = PatternGraph(3, (PatternEdge(0, 1, 2), PatternEdge(1, 2, 1)))
        assert str(validate_pattern(p, 5)) == "edges out of time order at position 1"
        m = Match((0, 1, 2), (0, 1), 1, 3, 3)
        assert str(verify_match(self.g, p, 3, m)) == \
            "condition 2: edges 0,1 must be strictly ordered"


class TestSearchProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_oracle_equivalence_and_work_bound(self, seed):
        rng = random.Random(seed)
        g, p = random_graph(rng), random_pattern(rng)
        delta = rng.choice([1, 2, 5, full_span(g)])
        if not validate_pattern(p, delta).ok:
            delta = max(full_span(g), p.times()[-1] - p.times()[0] + 1)
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
            "e3979ebd158d51be64353fb167a77fddcd4118a3eb2525ca8f269ab38540cb36",
            "e3979ebd158d51be64353fb167a77fddcd4118a3eb2525ca8f269ab38540cb36"),
        2: (
            "4e5ab1d9df27574f148ff08d6d9af3022ff4284e33e67e879b756fdcfc99e5ac",
            "304637a0662c4c7dedb5fa1177fe162d8ef22d209ab42f64845999f81ec91baa"),
        3: (
            "6920085487714d0f896e8cf215654d59098bc062ecab4508a8055a03695610b0",
            "32c2c8b34a1f99c1f7ca51491fb45fe70ec32e55a4e1bf36deb02a5714a07b91"),
        4: (
            "517f438fc1a764ce12cb0d83cf9baf93215048ed4161bbb4918d5f25b4ba64f2",
            "f2cbf830377ecfce3fe753c60d7b386e8d0cd0cb58f31ca208d79f05b60b4cb7"),
        16: (
            "5046aeabefbe8110b91de03ec5c26220619dfb853a4ab4eefe875accbf4f5d43",
            "e33b359ad51f17f4f18ca04e91804704d3c00255009f1045ded34c98df71924f"),
        17: (
            "13ea809391fc9dc32281c198e1c17836ca44da267d5104e79abe4796f5d3b8f8",
            "af15f125c2abbdaad1de1af3f3fa15e037a91de9954419ceb9a00176c81099d6"),
        25: (
            "f07576366956c894a7bbfb82abb6dfe8f68d55b9ab59e420f360bd1f09777fd5",
            "e3587a8b3179d35adcdf06260b0c327612d2ef8ebfc04531ca5d162ae67f5c3d"),
        "ping-pong": (
            "36694ac17b1668dcf7344b3bd82094cdea1ef13fce64a5b5b6b6e9437b84ce6d",
            "70484f5d54c7e462530473131d99ac5490cba98f6ef6e3bbdaed7af9ad3089c8"),
        "triangle": (
            "cd623ebb0efc22a9a86f954b3b46ad5b9b2492b480710a0f03a50ee48196329b",
            "6bb669789cb505bdcfb02dbc1be378bc6bd7048f0c60c4e858d50a37144021d7"),
        "broadcast-reply": (
            "5f8d4f5fa77c736814ed1cc7ffdd62dd2730a6b23fe920c4cbba568b7e46882e",
            "253060816b9251e2f05acc0e3571af6ee34ca073361d41b74d574a6ac568ebe5"),
        "star3-simultaneous": (
            "15fbb3f0ec17c6694b53e2555bde84843e20d924a006117db3d487afc7db563a",
            "9c604bf338e2a8a7981c339bdb6c179854b5004e5d9052a463d93973a41b1c42"),
        "relay-equal": (
            "25e92086666806cf2dc4d50b8dffcd1e6099fcc898a3f932c5862e1c611d4c57",
            "442f0606eeb1f5f3d746c7447af6e7a1dbe469152991a69874fd9f66cb2190f8"),
        "endpoint-cases": (
            "6c7ccb4068666c2f3bbcc98b3e8734e13502667700648e79deebca66649890e2",
            "a6e82f0067d128e30f67b6f5e495397bedf2a7de6c2de9e211a86ff152dcc00e"),
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
            "e51629999f34aeeb161bee63a33b4c8fd92ce174e57050043674375b1453194d",
            "e51629999f34aeeb161bee63a33b4c8fd92ce174e57050043674375b1453194d"),
        2: (
            "f11e711d37d57a8764cc22d80ebde176edbe5bb9a746b1083b461d683f449bdb",
            "2581a6a688991f238bdeab306de89f7a3771e5b018df798aa945702cc697711a"),
        3: (
            "347d71cd1ab51599ef6b23109623c88876e0056a6a199c6e03e2a5778936bbcf",
            "0f1b7cf9ecca18f7b4a9be3725476e127fd35fa600de33a4396cf72862207113"),
        4: (
            "586a69446054d6cd755f45d3601e8c4f58501cbd5da6a3ca21263826984e4ba1",
            "a3edd03269f2042a1123c26b81479fbabd91f4912b0f995cd50ea50805a433a4"),
        16: (
            "5dc7d6740d17996b669fa19722aefe5a0c475ce00656725216b90b61b6a620f1",
            "967983c6249ae6008ffb465e7b3c3e549b605b6951bed13e8b3b3c0c20e8563e"),
        17: (
            "27c83e84ccf511d6ab998151b5459c2cb89784902e74c6af1ee7469568d5c942",
            "c8b32c1dfc8b3d9e4a2d46d31a9bac856d22082f0b9f263ac03c62261247e873"),
        25: (
            "773687413800dad1b00e23d898ead435c3162a4c67c87d8b93816c41d6874881",
            "a55dd04288a4a559394c25b5a178672888ed49034aeae3687ef376fa24e98247"),
        "ping-pong": (
            "1da9379968119d794d54c9acd561c9582838b0b51e5cc629e9c349cdf0d5998a",
            "6c3b0dffc4015db7365c58e9c41d07b8c3f7319ebbc74752add1fa76d4f6a35a"),
        "triangle": (
            "ee34604885b2da907c84a98969244efda785c9e65473adac49f6b91061324ae5",
            "cb365a2a34db56d595ba2f68773dd3ff6821ff8240fbd832736d2ff115b75a1b"),
        "broadcast-reply": (
            "c268871222261f3a2d78d4687c4415c27d6b7c6c9c7ba23c036e6ad0928b0a49",
            "aa3bd79289142922efb34f0816f25671744071298dee37865e55faf44b3deeab"),
        "star3-simultaneous": (
            "366070dc16e068df39574861fc9459f6c1ccf59a4d6254f5f058227ef812dac2",
            "149a93a94588cfc133c5d944a4ffb45a978e03a91d5db6781666cf358cdb27cc"),
        "relay-equal": (
            "90e9ad8fdb59601cc2811391c705bd8bc03ff18ab4b183f3ec8bc32cbe58e63b",
            "95858e6d7d2903b0dd6e627b0e0b48d70c5ff88aeb483d69c812550bfe2b0dba"),
        "endpoint-cases": (
            "b768bf3924df03e07deb13eae4f1a7307eaff8ec26ba36204cfdce8208f72f64",
            "17b8157d9eb9f8cc96d583c734b751de1ccab3f0683a0c6e33ae4947b7db06d2"),
    }

    def test_line_source_is_pinned(self):
        for shape, digests in self.PINNED_LINE_SOURCE.items():
            p = (generate_path_query(shape) if isinstance(shape, int)
                 else pattern_from_triples(self.PINNED_TRIPLES[shape]))
            for use_index, digest in zip((False, True), digests):
                source = _kernel_source(_compile(p), use_index, True).encode()
                assert hashlib.sha256(source).hexdigest() == digest, (shape, use_index)

    @pytest.mark.parametrize("seed", range(40))
    def test_source_reads_next_out_time_exactly_at_a_chain_entry(self, seed):
        # A depth enters its walk from the column when it is STRICT, is not
        # its chunk's first, and walks the out-edges of the node that the
        # previous step's target bound, from after the previous edge.
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
            for d in range(1, len(steps)):
                assert (f"x{d} = next_out_time[p{d - 1}]" in source) == (d in chained)
            assert ("next_out_time" in source) == bool(chained)
            assert not chained or use_index

    def test_line_mode_changes_only_the_signatures_and_the_yield(self):
        # Line mode adds one "h0 = None" before the last depth and, for a
        # pattern of two or more edges, a block that formats the runs of
        # the line the last depth does not set; the yield names only what
        # the last depth binds, t0 and those runs.
        assert self.PINNED_LINE_SOURCE.keys() == self.PINNED_SOURCE.keys()
        for shape in self.PINNED_SOURCE:
            p = (generate_path_query(shape) if isinstance(shape, int)
                 else pattern_from_triples(self.PINNED_TRIPLES[shape]))
            steps, m = _compile(p), len(p.edges)
            runs = len(_line_split(steps)[1])
            hoist = re.compile(r"h0 = None|if h0 is None:|h(\d+) = f\1 % \(.*\)")
            for use_index in (False, True):
                match_lines = _kernel_source(steps, use_index).splitlines()
                line_lines = _kernel_source(steps, use_index, True).splitlines()
                added = [k for k, line in enumerate(line_lines) if hoist.fullmatch(line.strip())]
                assert [line_lines[k].strip().split(" % ")[0] for k in added] == (m > 1) * (
                    ["h0 = None", "if h0 is None:"] + [f"h{j} = f{j}" for j in range(runs)])
                # the run block comes just before the yield
                assert m == 1 or "yield fmt % (" in line_lines[added[-1] + 1]
                line_lines = [line for k, line in enumerate(line_lines) if k not in added]
                pairs = list(zip(match_lines, line_lines, strict=True))
                changed = [(a.strip(), b.strip()) for a, b in pairs if a != b]
                chunks = 1 + (m - 1) // 16
                # each chunk's signature, the calls of the chunks after the
                # first, and the yield
                assert len(changed) == 2 * chunks
                for a, b in changed[:-1]:
                    assert b.replace(", label_json", "", 1) == a
                assert changed[-1][0].startswith("yield new(Match, ")
                assert changed[-1][1].startswith("yield fmt % (")
                earlier = {n for step in steps[:-1] for n in (step.source, step.target)}
                last = {f"t{m - 1}"} | {f"v{n}" for n in (steps[-1].source, steps[-1].target)
                                        if n not in earlier}
                named = set(re.findall(r"[A-Za-z_]\w*", changed[-1][1]))
                hoisted = {f"h{j}" for j in range(runs)}
                assert named <= {"yield", "fmt", "label_json", "t0"} | last | hoisted
                assert hoisted <= named
