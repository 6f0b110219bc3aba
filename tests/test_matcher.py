import hashlib
import inspect
import random

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
from ipmatch.matcher import _compile, _kernel, _kernel_source
from _generators import full_span, random_graph, random_pattern


def both_strategies(g, p, delta, **kw):
    simple, s_stats = run_search(g, p, delta, "simple", **kw)
    index, i_stats = run_search(g, p, delta, "index", **kw)
    return simple, s_stats, index, i_stats


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
        for strategy in ("simple", "index", "baseline", "oracle"):
            kernel = strategy in ("simple", "index")
            stream, stats = stream_search(g, p, delta, strategy)
            assert list(stream) == everything
            if kernel:
                assert stats == run_search(g, p, delta, strategy)[1]
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
                    # closing a limited stream before its limit closes the kernel too
                    stream, stats = stream_search(g, p, delta, strategy, limit=k + 1)
                    assert [next(stream) for _ in range(k)] == expected
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
        assert i_stats.candidates_examined <= s_stats.candidates_examined
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
            "30952dcd6b232fd96acbcd7bcc8dc907052f6e1562c46beb4bae3da148a0fc77",
            "30952dcd6b232fd96acbcd7bcc8dc907052f6e1562c46beb4bae3da148a0fc77"),
        2: (
            "ca4f7d9c4956ef48bb3acfa5e4735080aaa2d11a03217c5e8ee221d3ca2de0c6",
            "1ea537b9a0058f20ddf50fd7b692359d23783e4485da40fb377ed5c6ae211926"),
        3: (
            "14bf84a13404e26eadc120e34495c649767c5ff5453a5edd601f9f89088c0ccb",
            "135be729432e6411f67ecbc11328f509c48403df0a74cd15c825403a724881e3"),
        4: (
            "dae57715244cff363ba49a6b3e3df9da413d3f652b65ca323acc93395f7d5ea0",
            "7d37d93ba702b5a950d5460d1b0f149a9167cf1120aba6ffdf4cd8413a5ca540"),
        16: (
            "e82a2052bf754b9d13de4d5e203a6086482d56d9be4c8193d22070aac6a8ca9e",
            "20854e2051024c64ad084090cc2a48ed6cbfd4e9f0c36578af8ceac27cd15bcc"),
        17: (
            "930820867d5a2aa220d41bc22696ac147d8285f90c446b80c42a7564f3e568e6",
            "b030e135c969656f4ac3407a74be5260b1d8c1f646c022204cfebea5145c8556"),
        25: (
            "c1cbc39d6e5e81d9d3b64f6423e71a9acd4ada530eadd70c4621619b9cdbe0b0",
            "3fd76709db7f468e33810866402fefcbf7d3ae543b005f64e74bae42d5257c7b"),
        "ping-pong": (
            "99723cc1bc2b4fba09afbcda192386982b14a375e8575e354f2eafd537e03c86",
            "ffb11ed1ab87b3251b7120fdd791c0e7f62f2bce09367f30f9065465d1b02179"),
        "triangle": (
            "1f35cba4acaef33f31740ae502c0b27a597a28d0b0046d1a961db38e29426118",
            "4d4158f0fde16e2d2d1f99e3e9eaac7ca04d12e4568c5de2855394dbefef17dd"),
        "broadcast-reply": (
            "c6d02ef5747d4dcf3c1007ca6941721773b10c49e160b281d2d5b859fa801110",
            "d439114e41ec32bc8a76621559c03b1dad38159f63ce7fbed641a90369871986"),
        "star3-simultaneous": (
            "5c5fad155cdbc9b105ef9fa76a907e6bbd20c15a7b6a8ee63913ab7b2cdd1202",
            "995bf243ba9d374dc22a61524e4908c0521feea294b958c0f385dc71dd6cdfa2"),
        "relay-equal": (
            "14bffd32d39763684ff9bb995929ebbdf1dd04ec6f2c692cc6533ffe763836f3",
            "857d9ad9fbdfe900b248e272643041857042f62fd3005e68c3f04f4623c808fb"),
        "endpoint-cases": (
            "08af51c4abc4f5f636abb27e0f9925805f35263392981d098f3548325bf9ad51",
            "9f50f87a2e429e4b81a7beedde7897814333a5c05e06ad42cc24c8f7a5bdb72c"),
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
            "3be37e80ca7d6d851196453b62d9018015f2d5e27503265496e5d7b1f9fffcc1",
            "3be37e80ca7d6d851196453b62d9018015f2d5e27503265496e5d7b1f9fffcc1"),
        2: (
            "94f40c9aa95ae1da226470be80f13affb2d116b5abf51a6fa3a99e270b72bd62",
            "5efa79f464da588b3bbc99f900e833e7d296cc5bd8f7b8420787eb808867334e"),
        3: (
            "2c1517254e444e367c6ecf482eb714084812515b128cc97359391bf6ebf1a709",
            "7b6a9306aa4f1201732b478c4690a1822f911a373b6c23ed546fd33298998742"),
        4: (
            "1e7980164a1142132365e7c088320afe5cdcf80a6930a1104b8960839090f063",
            "355d503cd7c9aff45db08ea896eee4fd5a05c45730dd98d2930410a0efd992fe"),
        16: (
            "7bb8aeda36dcf759f6b42a4cdfabd52ea7e4c17a2dda0fdf8431bec93d87d5e1",
            "052f028b31f6c2dc59580043471f0380633d64924714f734177304f48b0f5188"),
        17: (
            "dbe27b59a11badee6ab64a0e9705f9a3c7ff0ff0af7f425ecdeaf9313d66b2da",
            "92706fe5624c40245952e69e613fa16ec1548b5b601fc9e55b22382c6e4f8214"),
        25: (
            "e1cfcffc6c757aa80a160fd613aed7c24c60fb0a2b9eee4bd7bdc0c4a9e9f341",
            "edd758f5b3a567e8b4a4c6647eb8dbb8e044a7d1b9433f356c27e8f78adbb7ef"),
        "ping-pong": (
            "43ac3ac29bbebe7f78d553f921cf4c2426a4d876049057e43d612993e454eef9",
            "7ee7e6e24b2fa6dc0686c94a09a5243fd38c78b7f5c939387f45c78087c11a41"),
        "triangle": (
            "2260d6c9bebb65d0587576674d9a2ee73fdd8f65473cb2c27e22e4e85e439eb8",
            "5a52ff519ee45dd1b764cc825134729abec13b700850776bf2bf15e6e161e1e9"),
        "broadcast-reply": (
            "64379744b1a6091cc3c68fe45275b3714a5a94cb258c1d12b22c7f7bb2006a29",
            "545b2514cc8927d6ae562e5977782d8b6f91dd98d8fccfb057a9ab6a643c120a"),
        "star3-simultaneous": (
            "7ab4dacd7e63e8effdbc3f19c4dc4603275d44ebc802d6c63ccb827f63e9f462",
            "c55deb97d162d07c4b6c39ba765843efb615392fb44165627d1d18ad21615792"),
        "relay-equal": (
            "e578648315688e05798ac6e78b27fd3d4d598d1772812fededd579c0eabe1f13",
            "1c4ec9e05881d7fc01ab1814c996500b54a1c28c8039fca980c8aef2af1bcd66"),
        "endpoint-cases": (
            "715710dc99f46cc206abebe248aeda96affa9c5c2e8c7d5fdabea32477518862",
            "696f874d72961eff4e93798f0b3570a116d92000f573bd687f34acdc5411252b"),
    }

    def test_line_source_is_pinned(self):
        for shape, digests in self.PINNED_LINE_SOURCE.items():
            p = (generate_path_query(shape) if isinstance(shape, int)
                 else pattern_from_triples(self.PINNED_TRIPLES[shape]))
            for use_index, digest in zip((False, True), digests):
                source = _kernel_source(_compile(p), use_index, True).encode()
                assert hashlib.sha256(source).hexdigest() == digest, (shape, use_index)

    def test_line_mode_changes_only_the_signatures_and_the_yield(self):
        assert self.PINNED_LINE_SOURCE.keys() == self.PINNED_SOURCE.keys()
        for shape in self.PINNED_SOURCE:
            p = (generate_path_query(shape) if isinstance(shape, int)
                 else pattern_from_triples(self.PINNED_TRIPLES[shape]))
            for use_index in (False, True):
                pairs = list(zip(_kernel_source(_compile(p), use_index).splitlines(),
                                 _kernel_source(_compile(p), use_index, True).splitlines(),
                                 strict=True))
                changed = [(a.strip(), b.strip()) for a, b in pairs if a != b]
                chunks = 1 + (len(p.edges) - 1) // 16
                # each chunk's signature, the calls of the chunks after the
                # first, and the yield
                assert len(changed) == 2 * chunks
                for a, b in changed[:-1]:
                    assert b.replace(", label_json", "", 1) == a
                assert changed[-1][0].startswith("yield new(Match, ")
                assert changed[-1][1].startswith("yield fmt % (")
