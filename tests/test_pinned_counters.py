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
"""

import hashlib
from pathlib import Path

import pytest

from ipmatch import build_graph, load_graph, pattern_from_triples, run_search

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

COUNTERS = ("candidates_examined", "matches_found", "max_depth_reached", "pushes", "pops")


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
    assert stats.as_dict() == dict(zip(COUNTERS, counters[strategy]))
    assert len(matches) == stats.matches_found
    listing = repr([(m.node_map, m.edge_assignment) for m in matches]).encode()
    assert hashlib.sha256(listing).hexdigest()[:16] == digest
