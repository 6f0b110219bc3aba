"""Pinned work counters on the bundled synthetic file.

Every value below was recorded from the search engine as it stood
before its kernel was rewritten, and any later change to the search
must reproduce them exactly: the match count, every ``SearchStats``
counter, and a digest of the match list in emitted order, under both
candidate generators.

The bundled file has no two edges at the same second, so the
broadcast-reply pattern (whose second edge is simultaneous with its
first, an EQUAL step) can only be pinned with zero matches there.  It is
also pinned on the same edges with timestamps truncated to whole days,
where simultaneous edges exist and the EQUAL step admits matches.

Paths of 19 to 40 edges on a 60-edge chain are pinned too: they run
deeper than one generated kernel function (16 depths) and so cross a
boundary between two of them.

A small hand-built graph pins the three ways an ``index`` walk can end
before its first step: a position list used up (no entry after the
previous edge), a first entry past the window's deadline, and, on an
EQUAL step, a first entry later than the previous edge's time.  Each
pattern reaches them before its first match as well as after it, so
they are pinned for the full run, for ``limit=1`` and for a stream
closed after its first match.

Ping-pong and triangle are pinned on the same graph with a few edges
added, before the kernel read a walk's first entry time from the
``next_out_time`` column: both walk the out-edges of the previous edge's
target at a depth where both endpoints are bound.  One added edge's next
out-edge has that edge's own time, so it passes the deadline test and is
then skipped as not strictly later.

A second hand-built graph pins the roots an ``index`` chain kernel may
leave unvisited: non-loop roots whose target's next send is past the
window or that have no next send, and self-loop roots, some with their
next send past the window and some with none.  Its times run from
negative ones to ones above 2^63.  Path-2, path-3, ping-pong, triangle
and a pattern rooted at a self-loop are pinned on it for the full run,
for ``limit=1`` and for a stream closed after its first match, recorded
before the kernel skipped any root.

The two-phase baseline is pinned too, on the bundled file and on
``parallel_family(3)``: its three counters and a digest of its match
list in the order it returns them, recorded from the baseline that
bound and unbound its nodes by hand before it became a generator
pipeline.
"""

import hashlib
from pathlib import Path

import pytest

from ipmatch import (
    build_graph, generate_path_query, load_graph, pattern_from_triples, run_search,
    stream_search, two_phase_search,
)

from _generators import full_span, parallel_family

DATA = Path(__file__).parent / "data" / "synthetic_1000.txt"
DAY = 86_400

PATTERNS = {
    "path-2": [(0, 1, 1), (1, 2, 2)],
    "path-3": [(0, 1, 1), (1, 2, 2), (2, 3, 3)],
    "broadcast-reply": [(0, 1, 1), (0, 2, 1), (1, 0, 2)],
}

# (time unit, pattern, delta, limit) -> digest of the match list and, per
# strategy, (candidates_examined, matches_found, max_depth_reached, pushes, pops)
PINNED = {
    ("seconds", "path-2", DAY, None): ("7cf12750ff7ab7d7", {
        "simple": (23815, 195, 2, 1185, 1185),
        "index": (2053, 195, 2, 1185, 1185)}),
    ("seconds", "path-2", 7 * DAY, None): ("d07d17a3bb0c6f88", {
        "simple": (143238, 1184, 2, 2174, 2174),
        "index": (2926, 1184, 2, 2174, 2174)}),
    ("seconds", "path-3", DAY, None): ("67d92dc6a407ce09", {
        "simple": (26303, 22, 3, 1207, 1207),
        "index": (2250, 22, 3, 1207, 1207)}),
    ("seconds", "path-3", 7 * DAY, None): ("f19c25fe5bcb10a7", {
        "simple": (235282, 758, 3, 2932, 2932),
        "index": (4654, 758, 3, 2932, 2932)}),
    ("seconds", "broadcast-reply", DAY, None): ("4f53cda18c2baa0c", {
        "simple": (2976, 0, 1, 990, 990),
        "index": (2859, 0, 1, 990, 990)}),
    ("seconds", "broadcast-reply", 7 * DAY, None): ("4f53cda18c2baa0c", {
        "simple": (2976, 0, 1, 990, 990),
        "index": (2859, 0, 1, 990, 990)}),
    ("days", "broadcast-reply", 24, None): ("8244aef73ffcb589", {
        "simple": (87728, 4, 3, 1160, 1160),
        "index": (3568, 4, 3, 1160, 1160)}),
    ("days", "broadcast-reply", 30, None): ("bef1b967e3ecba12", {
        "simple": (96396, 5, 3, 1161, 1161),
        "index": (3616, 5, 3, 1161, 1161)}),
    ("seconds", "path-2", DAY, 100): ("93cfed7b84901c4e", {
        "simple": (12581, 100, 2, 609, 607),
        "index": (1121, 100, 2, 609, 607)}),
}

# (path length, limit) -> the same, for generate_path_query(length) at
# delta 45 on the chain i -> i+1 at time i, i = 0..59, recorded from the
# explicit-stack search that preceded the generated kernel
DEEP_PINNED = {
    (19, None): ("955fdde0f6414646", {
        "simple": (21819, 42, 19, 969, 969),
        "index": (969, 42, 19, 969, 969)}),
    (20, None): ("0baecd60ce08b1fc", {
        "simple": (22575, 41, 20, 1010, 1010),
        "index": (1010, 41, 20, 1010, 1010)}),
    (21, None): ("ad9dac06b817c088", {
        "simple": (23290, 40, 21, 1050, 1050),
        "index": (1050, 40, 21, 1050, 1050)}),
    (40, None): ("98d32afcf89023e3", {
        "simple": (30415, 21, 40, 1620, 1620),
        "index": (1620, 21, 40, 1620, 1620)}),
    (19, 5): ("7b924e39f93ccb45", {
        "simple": (2651, 5, 19, 95, 76),
        "index": (95, 5, 19, 95, 76)}),
    (20, 5): ("7389159f2ffb8adb", {
        "simple": (2760, 5, 20, 100, 80),
        "index": (100, 5, 20, 100, 80)}),
    (21, 5): ("e94de912cd438333", {
        "simple": (2865, 5, 21, 105, 84),
        "index": (105, 5, 21, 105, 84)}),
    (40, 5): ("0ff53cccff9272dc", {
        "simple": (4100, 5, 40, 200, 160),
        "index": (200, 5, 40, 200, 160)}),
}

# At delta 10: "q r 0" leads to r, which sends nothing, and "e b 4" and
# "d a 3" to nodes whose sends all come earlier (a used-up walk); "s t 0"
# leads to t, whose first send is at 20 (past the deadline 9), and
# "z k 1" on path-3 to k's first send at 15; on the EQUAL steps of
# relay-equal and relay-tail, "a b 1" and "b c 2" lead to nodes whose
# first send is later than their own time.
WALK_ENTRY_EDGES = [
    ("q", "r", 0), ("s", "t", 0), ("y", "z", 0), ("z", "i", 1), ("z", "k", 1),
    ("a", "b", 1), ("b", "c", 2), ("c", "d", 3), ("d", "a", 3), ("e", "b", 4),
    ("c", "x", 12), ("x", "m", 12), ("k", "l", 15), ("t", "u", 20), ("u", "v", 21),
    ("u", "w", 21), ("w", "a", 22), ("v", "w", 35),
]

WALK_ENTRY_PATTERNS = {
    "path-2": [(0, 1, 1), (1, 2, 2)],
    "path-3": [(0, 1, 1), (1, 2, 2), (2, 3, 3)],
    "relay-equal": [(0, 1, 1), (1, 2, 1)],
    "relay-tail": [(0, 1, 1), (1, 2, 2), (2, 3, 2)],
}

# (pattern, how the run ends) -> the same, at delta 10 on WALK_ENTRY_EDGES,
# recorded from the kernel that entered every walk through its islice:
# "all" runs out, "limit" stops at limit=1, "closed" closes the stream
# after its first match
WALK_ENTRY_PINNED = {
    ("path-2", "all"): ("8e5a6c4f7c14a160", {
        "simple": (105, 7, 2, 25, 25), "index": (31, 7, 2, 25, 25)}),
    ("path-2", "limit"): ("17527547d18b4f26", {
        "simple": (24, 1, 2, 4, 2), "index": (5, 1, 2, 4, 2)}),
    ("path-2", "closed"): ("17527547d18b4f26", {
        "simple": (24, 1, 2, 4, 2), "index": (5, 1, 2, 4, 2)}),
    ("path-3", "all"): ("06a06431a6d3e2aa", {
        "simple": (129, 2, 3, 27, 27), "index": (37, 2, 3, 27, 27)}),
    ("path-3", "limit"): ("5b91b6a7ddbc8226", {
        "simple": (46, 1, 3, 8, 5), "index": (10, 1, 3, 8, 5)}),
    ("path-3", "closed"): ("5b91b6a7ddbc8226", {
        "simple": (46, 1, 3, 8, 5), "index": (10, 1, 3, 8, 5)}),
    ("relay-equal", "all"): ("5904d020ebab32f3", {
        "simple": (71, 2, 2, 20, 20), "index": (28, 2, 2, 20, 20)}),
    ("relay-equal", "limit"): ("77d1eeefc718e7f1", {
        "simple": (36, 1, 2, 9, 7), "index": (14, 1, 2, 9, 7)}),
    ("relay-equal", "closed"): ("77d1eeefc718e7f1", {
        "simple": (36, 1, 2, 9, 7), "index": (14, 1, 2, 9, 7)}),
    ("relay-tail", "all"): ("8cbf3c0ff50ac468", {
        "simple": (126, 1, 3, 26, 26), "index": (36, 1, 3, 26, 26)}),
    ("relay-tail", "limit"): ("8cbf3c0ff50ac468", {
        "simple": (65, 1, 3, 12, 9), "index": (16, 1, 3, 12, 9)}),
    ("relay-tail", "closed"): ("8cbf3c0ff50ac468", {
        "simple": (65, 1, 3, 12, 9), "index": (16, 1, 3, 12, 9)}),
}

# WALK_ENTRY_EDGES and, at delta 10: "g h 5" is followed by "h g 5" and
# "h j 5" at its own time, then "h g 6" and "h j 7" in time; "j g 8" and
# "g h 9" close a second ping-pong and a triangle.
NEXT_OUT_EDGES = WALK_ENTRY_EDGES + [
    ("g", "h", 5), ("h", "g", 5), ("h", "j", 5), ("h", "g", 6), ("h", "j", 7),
    ("j", "g", 8), ("g", "h", 9),
]

NEXT_OUT_PATTERNS = {
    "ping-pong": [(0, 1, 1), (1, 0, 2)],
    "triangle": [(0, 1, 1), (1, 2, 2), (2, 0, 3)],
}

# (pattern, how the run ends) -> the same, at delta 10 on NEXT_OUT_EDGES,
# recorded from the kernel that bisected every walk's first entry
NEXT_OUT_PINNED = {
    ("ping-pong", "all"): ("d184d1503e3ba99c", {
        "simple": (228, 3, 2, 28, 28), "index": (47, 3, 2, 28, 28)}),
    ("ping-pong", "limit"): ("7f2a8acb764dd41e", {
        "simple": (145, 1, 2, 12, 10), "index": (22, 1, 2, 12, 10)}),
    ("ping-pong", "closed"): ("7f2a8acb764dd41e", {
        "simple": (145, 1, 2, 12, 10), "index": (22, 1, 2, 12, 10)}),
    ("triangle", "all"): ("79d6dc72d3ba1ba8", {
        "simple": (298, 3, 3, 39, 39), "index": (56, 3, 3, 39, 39)}),
    ("triangle", "limit"): ("d659649aac4145e7", {
        "simple": (193, 1, 3, 17, 14), "index": (28, 1, 3, 17, 14)}),
    ("triangle", "closed"): ("d659649aac4145e7", {
        "simple": (193, 1, 3, 17, 14), "index": (28, 1, 3, 17, 14)}),
}

B = 2**63

# At delta 10: "k x -60", "m p B-50" and "n o -5" lead to a next send past
# the deadline, and "f h -11" to one at it; "a y -25", "c z -16", "h i 7"
# and "s w B+7" lead to nodes that send nothing.  The self-loops "a a -35"
# and "p p B-20" have their next send past the deadline, "h h -2" at it,
# "d d -12" and "w w B+9" none, and "b b -19", "q q B+1" and "s s B+6" one
# in the window.
ROOT_SKIP_EDGES = [
    ("k", "x", -60), ("x", "a", -40), ("a", "a", -35), ("a", "y", -25), ("a", "b", -20),
    ("b", "b", -19), ("b", "c", -18), ("b", "a", -17), ("c", "z", -16), ("c", "d", -15),
    ("c", "a", -14), ("d", "d", -12), ("f", "h", -11), ("h", "h", -2), ("h", "i", 7),
    ("n", "o", -5), ("m", "p", B - 50), ("p", "p", B - 20), ("o", "n", B), ("p", "q", B),
    ("q", "q", B + 1), ("q", "r", B + 2), ("r", "s", B + 3), ("q", "p", B + 4),
    ("r", "p", B + 5), ("s", "s", B + 6), ("s", "w", B + 7), ("w", "w", B + 9),
]

ROOT_SKIP_PATTERNS = {
    "path-2": [(0, 1, 1), (1, 2, 2)],
    "path-3": [(0, 1, 1), (1, 2, 2), (2, 3, 3)],
    "ping-pong": [(0, 1, 1), (1, 0, 2)],
    "triangle": [(0, 1, 1), (1, 2, 2), (2, 0, 3)],
    "loop-then-send": [(0, 0, 1), (0, 1, 2)],
}

# (pattern, how the run ends) -> the same, at delta 10 on ROOT_SKIP_EDGES,
# recorded from the kernel that visited every root
ROOT_SKIP_PINNED = {
    ("path-2", "all"): ("237dc871eb15439f", {
        "simple": (115, 8, 2, 28, 28), "index": (50, 8, 2, 28, 28)}),
    ("path-2", "limit"): ("b0005a271e01a70f", {
        "simple": (16, 1, 2, 5, 3), "index": (10, 1, 2, 5, 3)}),
    ("path-2", "closed"): ("b0005a271e01a70f", {
        "simple": (16, 1, 2, 5, 3), "index": (10, 1, 2, 5, 3)}),
    ("path-3", "all"): ("d49a6d08c3212768", {
        "simple": (149, 4, 3, 32, 32), "index": (59, 4, 3, 32, 32)}),
    ("path-3", "limit"): ("e32774bc7113fb79", {
        "simple": (18, 1, 3, 6, 3), "index": (11, 1, 3, 6, 3)}),
    ("path-3", "closed"): ("e32774bc7113fb79", {
        "simple": (18, 1, 3, 6, 3), "index": (11, 1, 3, 6, 3)}),
    ("ping-pong", "all"): ("44862d3eec1f4b67", {
        "simple": (115, 2, 2, 22, 22), "index": (50, 2, 2, 22, 22)}),
    ("ping-pong", "limit"): ("4ab68ddb404ad078", {
        "simple": (17, 1, 2, 5, 3), "index": (11, 1, 2, 5, 3)}),
    ("ping-pong", "closed"): ("4ab68ddb404ad078", {
        "simple": (17, 1, 2, 5, 3), "index": (11, 1, 2, 5, 3)}),
    ("triangle", "all"): ("728cd7a4603c1c13", {
        "simple": (149, 2, 3, 30, 30), "index": (59, 2, 3, 30, 30)}),
    ("triangle", "limit"): ("8e2ba1540a0a6498", {
        "simple": (20, 1, 3, 6, 3), "index": (13, 1, 3, 6, 3)}),
    ("triangle", "closed"): ("8e2ba1540a0a6498", {
        "simple": (20, 1, 3, 6, 3), "index": (13, 1, 3, 6, 3)}),
    ("loop-then-send", "all"): ("34056d725e511bbc", {
        "simple": (52, 6, 2, 14, 14), "index": (36, 6, 2, 14, 14)}),
    ("loop-then-send", "limit"): ("04e470acd55ede80", {
        "simple": (8, 1, 2, 3, 1), "index": (8, 1, 2, 3, 1)}),
    ("loop-then-send", "closed"): ("04e470acd55ede80", {
        "simple": (8, 1, 2, 3, 1), "index": (8, 1, 2, 3, 1)}),
}

COUNTERS = ("candidates_examined", "matches_found", "max_depth_reached", "pushes", "pops")


def assert_pinned(matches, stats, digest, counters):
    assert stats.as_dict() == dict(zip(COUNTERS, counters))
    assert len(matches) == stats.matches_found
    listing = repr([(m.node_map, m.edge_assignment) for m in matches]).encode()
    assert hashlib.sha256(listing).hexdigest()[:16] == digest


def run_to_end(g, p, end, strategy):
    """The matches and stats at delta 10 of a run that ends as ``end`` says."""
    if end == "closed":
        stream, stats = stream_search(g, p, 10, strategy)
        matches = [next(stream)]
        stream.close()
        return matches, stats
    return run_search(g, p, 10, strategy, limit=1 if end == "limit" else None)


@pytest.fixture(scope="module")
def graphs():
    g = load_graph(str(DATA))
    daily = build_graph([(u, v, t // DAY) for u, v, t in g.export_edges()])
    return {"seconds": g, "days": daily}


@pytest.mark.parametrize("strategy", ["simple", "index"])
@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_counters_unchanged(graphs, case, strategy):
    unit, name, delta, limit = case
    digest, counters = PINNED[case]
    matches, stats = run_search(
        graphs[unit], pattern_from_triples(PATTERNS[name]), delta,
        strategy, limit=limit,
    )
    assert_pinned(matches, stats, digest, counters[strategy])


@pytest.mark.parametrize("strategy", ["simple", "index"])
@pytest.mark.parametrize("case", list(DEEP_PINNED), ids=lambda c: "-".join(map(str, c)))
def test_deep_path_counters_unchanged(case, strategy):
    length, limit = case
    digest, counters = DEEP_PINNED[case]
    chain = build_graph([(str(i), str(i + 1), i) for i in range(60)])
    matches, stats = run_search(chain, generate_path_query(length), 45, strategy, limit=limit)
    assert_pinned(matches, stats, digest, counters[strategy])


@pytest.mark.parametrize("strategy", ["simple", "index"])
@pytest.mark.parametrize("case", list(WALK_ENTRY_PINNED), ids=lambda c: "-".join(c))
def test_walk_entry_counters_unchanged(case, strategy):
    name, end = case
    digest, counters = WALK_ENTRY_PINNED[case]
    g = build_graph(WALK_ENTRY_EDGES)
    p = pattern_from_triples(WALK_ENTRY_PATTERNS[name])
    assert_pinned(*run_to_end(g, p, end, strategy), digest, counters[strategy])


@pytest.mark.parametrize("strategy", ["simple", "index"])
@pytest.mark.parametrize("case", list(NEXT_OUT_PINNED), ids=lambda c: "-".join(c))
def test_next_out_counters_unchanged(case, strategy):
    name, end = case
    digest, counters = NEXT_OUT_PINNED[case]
    g = build_graph(NEXT_OUT_EDGES)
    p = pattern_from_triples(NEXT_OUT_PATTERNS[name])
    assert_pinned(*run_to_end(g, p, end, strategy), digest, counters[strategy])


@pytest.mark.parametrize("strategy", ["simple", "index"])
@pytest.mark.parametrize("case", list(ROOT_SKIP_PINNED), ids=lambda c: "-".join(c))
def test_root_skip_counters_unchanged(case, strategy):
    name, end = case
    digest, counters = ROOT_SKIP_PINNED[case]
    g = build_graph(ROOT_SKIP_EDGES)
    p = pattern_from_triples(ROOT_SKIP_PATTERNS[name])
    assert_pinned(*run_to_end(g, p, end, strategy), digest, counters[strategy])


# (pattern, delta) -> digest of the repr of two_phase_search's match list
# and its (static_matches, temporal_candidates, matches_found), on the
# bundled file
BASELINE_PINNED = {
    ("path-2", DAY): ("14d85bbfd06dbfee", (7536, 368, 195)),
    ("path-2", 7 * DAY): ("3f4348431faef68f", (7536, 2299, 1184)),
    ("path-3", DAY): ("61587a1efd32b0bd", (59056, 108, 22)),
    ("path-3", 7 * DAY): ("b80cf7eadaed2167", (59056, 4033, 758)),
    ("ping-pong", DAY): ("f814825088d47e58", (68, 4, 2)),
    ("ping-pong", 7 * DAY): ("aa53930149228eaf", (68, 16, 8)),
    ("triangle", DAY): ("4f53cda18c2baa0c", (426, 0, 0)),
    ("triangle", 7 * DAY): ("92e08e3f4674dc1c", (426, 36, 6)),
}

BASELINE_COUNTERS = ("static_matches", "temporal_candidates", "matches_found")


def assert_baseline_pinned(matches, stats, digest, counters):
    assert stats.as_dict() == dict(zip(BASELINE_COUNTERS, counters))
    assert len(matches) == stats.matches_found
    assert hashlib.sha256(repr(matches).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("case", list(BASELINE_PINNED), ids=lambda c: "-".join(map(str, c)))
def test_baseline_counters_unchanged(graphs, case):
    name, delta = case
    p = pattern_from_triples({**PATTERNS, **NEXT_OUT_PATTERNS}[name])
    assert_baseline_pinned(*two_phase_search(graphs["seconds"], p, delta), *BASELINE_PINNED[case])


def test_baseline_counters_unchanged_on_parallel_family():
    # every static match's k^3 window-fitting tuples break the time order
    g = parallel_family(3)
    p = pattern_from_triples(PATTERNS["path-3"])
    assert_baseline_pinned(*two_phase_search(g, p, full_span(g)),
                           "4f53cda18c2baa0c", (1, 27, 0))
