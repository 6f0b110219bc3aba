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
from ipmatch.io_cli import STRATEGIES
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
        assert 1 in {c for c, _ in result.violations}

    def test_duration_violates_condition_3_only(self):
        good, _ = run_search(self.g, self.p, 3, "index")
        m = good[0]
        result = verify_match(self.g, self.p, 2, m)
        assert {c for c, _ in result.violations} == {3}

    def test_wrong_start_end_or_dur_violates_condition_3(self):
        g = build_graph([("a", "b", 5), ("b", "c", 7)])
        (good,), _ = run_search(g, self.p, 3, "index")
        assert (good.start, good.end, good.dur) == (5, 7, 3)
        assert verify_match(g, self.p, 3, good).ok
        for fields in ({"start": 1}, {"end": 99}, {"dur": 1},
                       {"start": 1, "end": 99, "dur": 1}):
            result = verify_match(g, self.p, 200, good._replace(**fields))
            assert [c for c, _ in result.violations] == [3], fields

    def test_order_violation_condition_2(self):
        g = build_graph([("a", "b", 5), ("b", "c", 3)])
        m = Match((g.node_id("a"), g.node_id("b"), g.node_id("c")), (1, 0), 3, 5, 3)
        result = verify_match(g, self.p, 5, m)
        assert 2 in {c for c, _ in result.violations}

    def test_reused_edge_position_condition_1(self):
        g = build_graph([("a", "b", 2), ("b", "a", 2)])
        p = pattern_from_triples([(0, 1, 1), (0, 1, 1)])
        m = Match((g.node_id("a"), g.node_id("b")), (0, 0), 2, 2, 1)
        result = verify_match(g, p, 5, m)
        assert 1 in {c for c, _ in result.violations}


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
            "55c8974c49c0c9bdaab7dc6af521fe656ec3954b6e6063999e5f1094237b7966",
            "55c8974c49c0c9bdaab7dc6af521fe656ec3954b6e6063999e5f1094237b7966"),
        2: (
            "0119255d34bbe60ca9856b2625537624db660ff01c66b9f32353cd767dcd31f0",
            "59a9b82379660b0311118318fc51f2f4d288c1b4473b5b139a52f20e92477179"),
        3: (
            "46411209b160cafb0793c9e39466b47bd42922bc7a041dc6de8bc1ee01594e81",
            "93d867e4d61cc76c8132b75fd31010efd552081ad6ea2f9643b313d6735641a1"),
        4: (
            "c479eff20cfc85287b8c314aa0e79053198a87f80112f140eed492cf721ce82a",
            "c7de5665a913c06dda5f1073f49fc06b634ffb7b4ebbf8d284ea8348c79796b8"),
        16: (
            "cdf4e03215b5d4da78f7cf53b67b6353e6298e3cd57303924d257a110f7e7ae6",
            "800c1b12bc4f198206313fbee641ba722ccea5a456a938851cc056e948469a05"),
        17: (
            "78965141bc68712eab337b0dc30c01b9ea818e3c12062f6c7553219c565d080f",
            "5d4ae9d28b9310739a790a073a164aafa7c908ca8eabf173a76966acd8c3709d"),
        25: (
            "6e47b82c647085fdd958ce1ed4a5a4342678e17b0a765708103bbdacfe51af2f",
            "6f75098a07e2a2dd0dd011cd688210a2d0e113fd82ba3fa5d87575bae35f685b"),
        "ping-pong": (
            "66f0fd8ca50982e45cce49945560f6b17172034aa83bedb02928977b464b5f4b",
            "27e60315598fd2d157aa089aa0d6bf52c53777b9d53f514d7963fc744fc84ba8"),
        "triangle": (
            "6974bedf2e7c3d4ad5e606bed24c9a476b8d83ff4dc786be0a3700f9e20e8dac",
            "9d2858b90d700971711cb338aa188d062c820eff00fc106b13c3ccc4d2487c27"),
        "broadcast-reply": (
            "8e0d3a377451142272205e570f303672a17bcfe9bc01bbc5b4e43fc7d014c9d5",
            "eb1db6e7fdc5bce80e902e60b8e8c40dd4d156b4b22527c00f486ba5fb2d03b1"),
        "star3-simultaneous": (
            "e9f3c6da9a8353b1aa35ad7f19e21e65e1612568028b4cf92edfd6321899f3ae",
            "44f1ca35e42b0c6c4cd416b978bf846c1eff8261fa1c92910c799ca1125117f3"),
        "relay-equal": (
            "32b9d0aeb80070641f214572d355d73dd772d9c09aa80b65b9b9827f561c136b",
            "576cb507a2670502d960a3d186da9bcef3beb4912d71bb412b5585de738a39fe"),
        "endpoint-cases": (
            "66532c315553e312364bd3e25e411d50b757a1698a12a2094588768e5fc77599",
            "b9a8fef126d44ea9e6be6fe73849d6afc6cd9fcd46b5c25b3b3dc2f13f8b0dab"),
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
            "84ebf3d5316a55bf27e0e73610910c2d959f920e2a904949269f3d32dacaee78",
            "84ebf3d5316a55bf27e0e73610910c2d959f920e2a904949269f3d32dacaee78"),
        2: (
            "d2acb0874b8e4e99c785708981b2ac60c303497d5dfd7093ec4069d6b1fc2451",
            "6285760cd7ac45d798545ff45ebe8f3ce395d4985fff379170759571827a79c7"),
        3: (
            "c8b19575d660779c6d12f0ac5b2a0a5c91341fd935d18e06ba8ca8584af5d88e",
            "983cb16fd33e04709d3174846f8f3d7a06d4383821050118a93d2c2d30543fba"),
        4: (
            "0ecaebad1054d1469277bc1483d9279c7c2c4b3f479b5bd2e91e08213ac9782b",
            "bf98ff6830ce90de8fa10b4203a3396df14b2df4fd4dca1efc90fc6e476bff3c"),
        16: (
            "fa85821673f8eb3e7dd7067938a4f1071e3e3eb9ddc986584d7ffa9e2cd9bd1a",
            "119e056cff3b061850df26f5feb34934963a894c4b7f4e9d77e3e7f1df84f28e"),
        17: (
            "393af359f0f066eac3c3f7dad3ad67474b0a1213ab66c5255e0f104f585e5a25",
            "72c97d646e3d06a34ee4ab47e8a2d452d5622846bc5959a1775c27f62d8db852"),
        25: (
            "e7bb71859d292bf5ced4a8ad2c0b576d7a63b02fccb2ac92df4b8e3975fab25d",
            "a31d4c6aa1911df4e88834a9509605eec892643cc9edd2b650725a4035804536"),
        "ping-pong": (
            "5e90c9ef3d1313e52b1f18514b521892e83ac01c8b7107ca99ab4e962bea17c2",
            "a1ab970d20cd80b52770a2c0c93b64d3b0b7432a0c85ec4e449ead90c4ddf9c3"),
        "triangle": (
            "830c5bda939a0033c20322ea5f467ad71e85299e07b33d92baa85660bfb2e0d1",
            "f9e05e29d4a81fcbd9b5b297b200ceacb9a2122b7eda919a01c71fc56148eb2f"),
        "broadcast-reply": (
            "296924b017ab6e660fd5ce22ad0f129f5d8288148bfcf41613fee9fc7c61155c",
            "32d2c31d4860b51aae89c577338b73862a04c3062121263ffcaacca8f5261047"),
        "star3-simultaneous": (
            "c1613c67197e9ba3c067ac4dff99bf5502b544974c026c7a74ff41996e83086b",
            "f15a93f4eb3fb9a951b9f4bd57cbf69356e10674d13f62fd3976434eeaa04ae8"),
        "relay-equal": (
            "cc386057c6aa58038949f78d678066aba94179c7991efe55842206463807db49",
            "200a39df69146a34960949e40ed5971446dd78d662b1f1785fc0141f40dba43d"),
        "endpoint-cases": (
            "a63c215d46b14e5a03c1dad29d62fa425b249ddeca41646fff73960223c56c50",
            "789ed7236b0fc14e8d27e0296a6b3a319e22a9576f461d776e65ecac2c644973"),
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
