import dataclasses
import errno
import gc
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
import time
import tokenize
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmatch import (
    EmptyGraphError,
    GraphBuildError,
    InvalidPatternError,
    Match,
    ParseError,
    build_graph,
    generate_path_query,
    graph_summary,
    load_graph,
    load_pattern,
    match_from_dict,
    match_json_line,
    save_graph,
    save_pattern,
    pattern_from_triples,
    run_search,
    stream_search,
    validate_pattern,
    verify_match,
)
from ipmatch import io_cli, matcher, temporal_graph
from ipmatch.cli import main
from ipmatch.pattern import MAX_PATTERN_EDGES

from _generators import full_span, random_graph, random_pattern

DATA = Path(__file__).parent / "data"


def match_to_dict(m, g) -> dict:
    """The JSON object of a match, in the graph's external labels: the spec
    that ``match_json_line`` and the line kernel are checked against."""
    labels, sources, targets, times = g.labels, g.sources, g.targets, g.times
    return {
        "nodes": {str(i): labels[node] for i, node in enumerate(m.node_map)},
        "edges": [
            [labels[sources[pos]], labels[targets[pos]], times[pos]]
            for pos in m.edge_assignment
        ],
        "start": m.start,
        "end": m.end,
        "dur": m.dur,
    }


def spec_line(m, g) -> str:
    """``match_to_dict`` as the compact, key-sorted line ``query`` writes."""
    return json.dumps(match_to_dict(m, g), sort_keys=True, separators=(",", ":"))


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


@pytest.fixture
def toy_graph_file(tmp_path):
    return write(tmp_path / "g.txt", "a b 1\nb c 3\nb d 9\na b 2\n")


@pytest.fixture
def path2_pattern_file(tmp_path):
    return write(tmp_path / "p.txt", "nodes 3\n0 1 1\n1 2 2\n")


# Every token a graph file can hold as a label: printable ASCII or
# non-whitespace control characters, not starting with "#".
_FILE_LABELS = st.text(
    st.characters(max_codepoint=127).filter(lambda ch: not ch.isspace()),
    min_size=1, max_size=4,
).filter(lambda s: s[0] != "#")


def test_every_exported_name_resolves():
    import ipmatch
    assert [name for name in ipmatch.__all__ if not hasattr(ipmatch, name)] == []


class TestLoadGraph:
    def test_three_parallel_edges_counts(self, tmp_path):
        path = write(tmp_path / "g.txt", "u1 u5 6\nu1 u5 9\nu1 u5 14\n")
        g = load_graph(path)
        s = graph_summary(g)
        assert (s.nodes, s.static_edges, s.temporal_edges) == (2, 1, 3)

    def test_comment_lines_ignored(self, tmp_path):
        plain = write(tmp_path / "plain.txt", "a b 1\nb c 2\n")
        commented = write(
            tmp_path / "commented.txt", "# head\na b 1\n\n# mid\nb c 2\n# tail\n"
        )
        assert load_graph(plain).export_edges() == load_graph(commented).export_edges()

    def test_decimal_timestamp_rejected_with_line(self, tmp_path):
        path = write(tmp_path / "g.txt", "a b 1\na b 2.5\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_graph(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = write(tmp_path / "g.txt", "a b 1 extra\n")
        with pytest.raises(ParseError, match="expected 3 fields"):
            load_graph(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path / "g.txt", "# nothing here\n")
        with pytest.raises(ParseError, match="no edges"):
            load_graph(path)

    def test_save_load_round_trip(self, tmp_path):
        g = build_graph([("a", "b", 3), ("a", "c", 1), ("a", "b", 3)])
        path = tmp_path / "out.txt"
        save_graph(g, str(path))
        g2 = load_graph(str(path))
        assert g.export_edges() == g2.export_edges()

    @given(st.lists(
        st.tuples(_FILE_LABELS, _FILE_LABELS, st.integers(-10**12, 10**12)),
        min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_save_load_reproduces_the_columns(self, edges):
        edges += edges[: len(edges) // 3]  # exact duplicates
        g = build_graph(edges)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            save_graph(g, path)
            g2 = load_graph(path)

        def by_label(graph):
            labels = graph.labels
            return (
                [labels[u] for u in graph.sources], [labels[v] for v in graph.targets],
                graph.times,
                {labels[n]: positions for n, positions in enumerate(graph.out_positions)},
                {labels[n]: positions for n, positions in enumerate(graph.in_positions)},
            )

        assert by_label(g2) == by_label(g)
        assert sorted(g2.labels) == sorted(g.labels)

    def test_hash_target_label_exits_1_naming_it(self, tmp_path, path2_pattern_file, capsys):
        # the bad edge is the second edge but the fifth line of the file
        gpath = write(tmp_path / "g.txt", "# header\na b 1\n\n  # c d 2\na #x 5\nb c 6\n")
        assert main(["query", "--graph", gpath, "--pattern", path2_pattern_file,
                     "--delta", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {gpath}:5: malformed label '#x'\n"
        with pytest.raises(ParseError) as exc:
            load_graph(gpath)
        assert (exc.value.path, exc.value.line_no) == (gpath, 5)

    def test_save_non_ascii_label_rejected_before_writing(self, tmp_path):
        g = build_graph([("a", "b", 1), ("caf\u00e9", "b", 1)])
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match="'caf\u00e9' is not ASCII"):
            save_graph(g, str(path))
        assert not path.exists()
        path.write_text("x y 7\n")
        with pytest.raises(ValueError, match="'caf\u00e9' is not ASCII"):
            save_graph(g, str(path))
        assert path.read_text() == "x y 7\n"

    def test_int_syntax_timestamps_load_and_save_plain(self, tmp_path):
        # timestamps are read by int(): digit separators and a sign are accepted
        g = load_graph(write(tmp_path / "g.txt", "a b 1_000\nb c +5\n"))
        assert g.times == (5, 1000)
        save_graph(g, str(tmp_path / "out.txt"))
        assert (tmp_path / "out.txt").read_text() == "b c 5\na b 1000\n"

    def test_bundled_synthetic_file(self):
        g = load_graph(str(DATA / "synthetic_1000.txt"))
        s = graph_summary(g)
        assert s.nodes == 120
        assert s.static_edges == 962
        assert s.temporal_edges == 997
        assert abs(s.span_days - 44.9145) < 0.001


def graph_fields(g) -> dict:
    """Every field of ``g``, its label index as items in order."""
    fields = {f.name: getattr(g, f.name) for f in dataclasses.fields(g)}
    fields["label_index"] = list(g.label_index.items())
    return fields


# Lines a graph file may hold between edges: blank, whitespace only, or
# a comment, indented or not.
_FILLER = st.sampled_from(["", " ", "\t", "#", "# a b 1", "  # c d 2", "\t#\tx"])
_GAP = st.sampled_from([" ", "\t", "  ", " \t ", "\t\t"])


@st.composite
def _graph_files(draw):
    """Edges, with exact duplicates, and the text of a graph file that
    holds them in order: filler lines between them, runs of spaces and
    tabs around the fields, LF and CRLF endings, and times written as
    ``+5`` or ``1_000``."""
    edges = draw(st.lists(
        st.tuples(_FILE_LABELS, _FILE_LABELS, st.integers(-10**7, 10**7)),
        min_size=1, max_size=20))
    edges += draw(st.lists(st.sampled_from(edges), max_size=5))
    lines = []
    for u, v, t in edges:
        lines += draw(st.lists(_FILLER, max_size=2))
        time = draw(st.sampled_from([str(t), f"{t:_}", f"{t:+}", f"{t:+_}"]))
        lead, mid, last, trail = (draw(st.sampled_from(["", " ", "\t "])), draw(_GAP),
                                  draw(_GAP), draw(st.sampled_from(["", " ", "\t"])))
        lines.append(f"{lead}{u}{mid}{v}{last}{time}{trail}")
    lines += draw(st.lists(_FILLER, max_size=2))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line ending after the last line
    return edges, text


@st.composite
def _faulty_graph_files(draw):
    """A file from :func:`_graph_files` with 1 to 3 of its edge lines made
    bad: a ``#x`` target, a timestamp ``int()`` refuses, or 2 or 4 fields.
    Returns the entries ``build_graph`` would get for those lines (a bad
    timestamp as its token, a wrong-length line as its tuple of fields),
    the file's text and each entry's line number."""
    edges, text = draw(_graph_files())
    lines = text.split("\n")
    entry_lines = [n for n, line in enumerate(lines) if line.lstrip()[:1] not in ("", "#")]
    entries = list(edges)
    for k in draw(st.sets(st.sampled_from(range(len(edges))), min_size=1, max_size=3)):
        u, v, t = edges[k]
        fields = draw(st.sampled_from([
            (u, "#x", t), (u, v, "1.5"), (u, v, "x"), (u, v, "1e3"), (u, v), (u, v, t, t),
        ]))
        entries[k] = fields
        n = entry_lines[k]
        lines[n] = " ".join(map(str, fields)) + ("\r" if lines[n].endswith("\r") else "")
    return entries, "\n".join(lines), [n + 1 for n in entry_lines]


class TestOneBuilder:
    """``load_graph`` and ``build_graph`` feed one builder."""

    @given(_graph_files())
    @settings(max_examples=150, deadline=None)
    def test_load_graph_equals_build_graph_of_its_triples(self, case):
        edges, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
            loaded = load_graph(path)
        assert graph_fields(loaded) == graph_fields(build_graph(edges))

    @given(_faulty_graph_files())
    @settings(max_examples=150, deadline=None)
    def test_load_graph_names_the_entry_build_graph_names(self, case):
        entries, text, entry_lines = case
        with pytest.raises(GraphBuildError) as built:
            build_graph(entries)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
            with pytest.raises(ParseError) as loaded:
                load_graph(path)
        assert str(loaded.value) == (
            f"{path}:{entry_lines[built.value.entry]}: {built.value.reason}")

    @pytest.mark.parametrize("text, line_no, message", [
        (b"a #b 1\nc d x\n", 1, "malformed label '#b'"),
        (b"a b 1\nc d x\ne #f 3\n", 2, "timestamp 'x' is not an integer"),
        (b"a b 1\na #x 2\n# caf\xc3\xa9\nb c 3\n", 2, "malformed label '#x'"),
        (b"a b 1\nb caf\xc3\xa9 2\na #x 3\n", 2, "non-ASCII byte"),
        (b"a b 1\n# \xff\na #x 3\n", 2, "non-ASCII byte"),
    ], ids=["label-then-timestamp", "timestamp-then-label", "label-then-non-ascii",
            "non-ascii-then-label", "non-ascii-comment-then-label"])
    def test_load_graph_names_the_first_bad_line(self, tmp_path, text, line_no, message):
        path = tmp_path / "g.txt"
        path.write_bytes(text)
        with pytest.raises(ParseError) as exc:
            load_graph(str(path))
        assert str(exc.value) == f"{path}:{line_no}: {message}"


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The cyclic collector set to the param's state for the test, and
    restored to the state it was in after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorState:
    """Building a graph pauses the cyclic collector and leaves it as the
    caller had it, whether the build succeeds or raises.  Only the builder
    runs paused: the caller's iterable and the file's parse run under the
    caller's setting."""

    @pytest.fixture
    def builder_states(self, monkeypatch):
        """The collector state each call of the builder's graph
        constructor saw, in order."""
        seen = []
        real = temporal_graph.TemporalGraph

        def spy(*fields):
            seen.append(gc.isenabled())
            return real(*fields)

        monkeypatch.setattr(temporal_graph, "TemporalGraph", spy)
        return seen

    def test_build_graph_pauses_it_and_restores_it(self, collector, builder_states):
        seen = []

        def entries():
            seen.append(gc.isenabled())
            # a nested build restores the caller's setting for the outer one
            build_graph([("x", "y", 0)])
            seen.append(gc.isenabled())
            yield from [("a", "b", 1), ("b", "c", 2)]

        assert len(build_graph(entries())) == 2
        assert seen == [collector, collector]
        assert builder_states == [False, False]
        assert gc.isenabled() is collector

    def test_build_graph_collects_the_callers_cycles(self):
        # the collector runs while the build reads the caller's entries, so
        # the cycles they leave are freed before the builder starts
        collected = []

        def count(phase, info):
            if phase == "stop":
                collected.append(info["collected"])

        def entries():
            for i in range(5000):
                cycle = {}
                cycle["self"] = cycle
                yield ("a", "b", i)
            freed.append(sum(collected))

        freed = []
        was_enabled = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(count)
        try:
            assert len(build_graph(entries())) == 5000
        finally:
            gc.callbacks.remove(count)
            (gc.enable if was_enabled else gc.disable)()
        assert freed[0] > 0

    @pytest.mark.parametrize("edges, error, message", [
        ([("a", "b", 1), ("b", "#c", 2)], GraphBuildError, r"^edge 1: malformed label '#c'$"),
        ([("a", "b", 1), ("b", "c", 2.5)], GraphBuildError,
         r"^edge 1: timestamp 2.5 is not an integer$"),
        ([("a", "b", 1), ("a", "b")], GraphBuildError, r"^edge 1: expected 3 fields, got 2$"),
        ([], EmptyGraphError, r"^cannot build a graph from an empty edge list$"),
    ], ids=["label", "timestamp", "length", "empty"])
    def test_build_graph_error_restores_it(self, collector, edges, error, message):
        with pytest.raises(error, match=message):
            build_graph(edges)
        assert gc.isenabled() is collector

    def test_load_graph_pauses_it_and_restores_it(self, collector, tmp_path, monkeypatch,
                                                  builder_states):
        seen = []
        build = io_cli._build_columns

        def spy(*columns):
            seen.append(gc.isenabled())
            return build(*columns)

        monkeypatch.setattr(io_cli, "_build_columns", spy)
        g = load_graph(write(tmp_path / "g.txt", "a b 1\nb c 2\n"))
        assert (len(g), seen, builder_states) == (2, [collector], [False])
        assert gc.isenabled() is collector

    def test_concurrent_builds_restore_it(self, collector):
        # a switch between one build reading the state and pausing it must
        # not leave the collector paused after the last build ends
        stop = threading.Event()

        def builds():
            while not stop.is_set():
                build_graph([("a", "b", 1), ("b", "c", 2)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(25):
                stop.clear()
                threads = [threading.Thread(target=builds) for _ in range(4)]
                for thread in threads:
                    thread.start()
                time.sleep(0.02)
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert gc.isenabled() is collector
        finally:
            stop.set()
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("text, line_no, message", [
        ("a b 1\na b 2.5\nb c 3\n", 2, "timestamp '2.5' is not an integer"),
        ("a b 1\na b 2 3\nb c 3\n", 2, "expected 3 fields, got 4"),
        ("a b 1\n\n# x\nb #c 2\n", 4, "malformed label '#c'"),
        ("# nothing here\n\n", 0, "no edges in file"),
    ], ids=["timestamp", "length", "label", "empty"])
    def test_load_graph_error_restores_it(self, collector, tmp_path, text, line_no, message):
        path = write(tmp_path / "g.txt", text)
        with pytest.raises(ParseError) as exc:
            load_graph(path)
        assert str(exc.value) == f"{path}:{line_no}: {message}"
        assert gc.isenabled() is collector


class TestLoadPattern:
    def test_header_and_edges(self, path2_pattern_file):
        p = load_pattern(path2_pattern_file)
        assert p.node_count == 3
        assert p.times() == (1, 2)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path / "p.txt", "0 1 1\n")
        with pytest.raises(ParseError, match="nodes"):
            load_pattern(path)

    @pytest.mark.parametrize("text, line_no, message", [
        ("# only a comment\n\n", 0, "missing 'nodes <n>' header"),
        ("nodes 2\n", 0, "pattern has no edges"),
        ("nodes 2\n0 1\n", 2, "expected 3 fields, got 2"),
    ], ids=["no-header", "no-edges", "two-fields"])
    def test_malformed_file_names_the_line(self, tmp_path, text, line_no, message):
        path = write(tmp_path / "p.txt", text)
        with pytest.raises(ParseError) as info:
            load_pattern(path)
        assert str(info.value) == f"{path}:{line_no}: {message}"

    def test_comment_and_blank_line_between_edges(self, tmp_path):
        p = load_pattern(write(tmp_path / "p.txt", "nodes 3\n0 1 1\n# note\n\n1 2 2\n"))
        assert [(e.source, e.target, e.time) for e in p.edges] == [(0, 1, 1), (1, 2, 2)]

    def test_int_syntax_loads_and_saves_plain(self, tmp_path):
        p = load_pattern(write(tmp_path / "p.txt", "nodes +3\n0 1 1_0\n+1 2 2_0\n"))
        assert [(e.source, e.target, e.time) for e in p.edges] == [(0, 1, 10), (1, 2, 20)]
        save_pattern(p, str(tmp_path / "out.txt"))
        assert (tmp_path / "out.txt").read_text() == "nodes 3\n0 1 10\n1 2 20\n"

    def test_save_round_trip(self, tmp_path):
        p = pattern_from_triples([(0, 1, 2), (1, 2, 1)])
        path = tmp_path / "p.txt"
        save_pattern(p, str(path))
        p2 = load_pattern(str(path))
        assert p2.times() == p.times()
        assert [(e.source, e.target) for e in p2.edges] == \
            [(e.source, e.target) for e in p.edges]


class TestMatchSerialization:
    def test_json_round_trip_verifies(self):
        g = build_graph([("a", "b", 1), ("b", "c", 3), ("a", "b", 1)])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])
        matches, _ = run_search(g, p, 3, "index")
        assert matches
        for m in matches:
            line = match_json_line(m, g)
            rebuilt = match_from_dict(json.loads(line), g, p)
            assert verify_match(g, p, 3, rebuilt).ok

    def test_labels_not_ids_in_output(self):
        g = build_graph([("alice", "bob", 1)])
        p = pattern_from_triples([(0, 1, 1)])
        matches, _ = run_search(g, p, 1, "index")
        obj = json.loads(match_json_line(matches[0], g))
        assert obj["nodes"] == {"0": "alice", "1": "bob"}
        assert obj["edges"] == [["alice", "bob", 1]]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exact_duplicates_resolve_to_distinct_positions(self, k):
        # k copies of a -> b at time 5, among edges sharing the pair, the
        # source or the time
        g = build_graph([("a", "b", 4), ("a", "c", 5), ("c", "b", 5)]
                        + [("a", "b", 5)] * k + [("a", "b", 6), ("b", "a", 5)])
        p = pattern_from_triples([(0, 1, 1)] * k)
        matches, _ = run_search(g, p, 1, "index")
        duplicates = tuple(pos for pos in range(len(g)) if g.times[pos] == 5 and (
            g.labels[g.sources[pos]], g.labels[g.targets[pos]]) == ("a", "b"))
        on_duplicates = [m for m in matches if set(m.edge_assignment) == set(duplicates)]
        assert len(on_duplicates) == math.factorial(k)
        for m in matches:
            rebuilt = match_from_dict(json.loads(match_json_line(m, g)), g, p)
            # equal triples resolve in list order, each to a distinct position
            assert rebuilt.edge_assignment == tuple(sorted(m.edge_assignment))
            assert verify_match(g, p, 1, rebuilt).ok

    def test_unknown_edge_rejected(self):
        g = build_graph([("a", "b", 5), ("a", "b", 5)])
        p = pattern_from_triples([(0, 1, 1)] * 3)
        obj = {"nodes": {"0": "a", "1": "b"}, "edges": [["a", "b", 5]] * 3,
               "start": 5, "end": 5, "dur": 1}
        with pytest.raises(ValueError, match="no unused graph edge"):
            match_from_dict(obj, g, p)
        for t in (6, "5", None):
            obj["edges"] = [["a", "b", t]]
            with pytest.raises(ValueError, match="no unused graph edge"):
                match_from_dict(obj, g, pattern_from_triples([(0, 1, 1)]))
        # labels the graph does not have
        obj["edges"] = [["a", "zz", 5]]
        with pytest.raises(ValueError, match="unknown node label 'zz'"):
            match_from_dict(obj, g, pattern_from_triples([(0, 1, 1)]))
        obj["nodes"], obj["edges"] = {"0": "a", "1": "yy"}, [["a", "b", 5]]
        with pytest.raises(ValueError, match="unknown node label 'yy'"):
            match_from_dict(obj, g, pattern_from_triples([(0, 1, 1)]))
        # a pattern node without a label, a malformed edge, the wrong edge count
        obj["nodes"] = {"0": "a"}
        with pytest.raises(ValueError, match="no label for pattern node '1'"):
            match_from_dict(obj, g, pattern_from_triples([(0, 1, 1)]))
        obj["nodes"], obj["edges"] = {"0": "a", "1": "b"}, [["a", "b"]]
        with pytest.raises(ValueError, match=r"malformed edge \['a', 'b'\]"):
            match_from_dict(obj, g, pattern_from_triples([(0, 1, 1)]))
        for edges in ([], [["a", "b", 5]] * 2):
            obj["edges"] = edges
            with pytest.raises(ValueError, match=f"expected 1 edges, got {len(edges)}"):
                match_from_dict(obj, g, pattern_from_triples([(0, 1, 1)]))
        # a line that is not an object, lacks a key, or has a key of the wrong type
        one = pattern_from_triples([(0, 1, 1)])
        good = {"nodes": {"0": "a", "1": "b"}, "edges": [["a", "b", 5]],
                "start": 5, "end": 5, "dur": 1}
        assert match_from_dict(good, g, one).edge_assignment == (0,)
        for line in ([good], "x", 5, None):
            with pytest.raises(ValueError, match="is not a JSON object"):
                match_from_dict(line, g, one)
        for key in good:
            with pytest.raises(ValueError, match=f"match has no '{key}'"):
                match_from_dict({k: v for k, v in good.items() if k != key}, g, one)
        for key, value, message in [
            ("edges", 5, "edges 5 is not a list"),
            ("edges", {"0": ["a", "b", 5]}, "is not a list"),
            ("edges", [5], "malformed edge 5"),
            ("edges", ["abc"], "malformed edge abc"),
            ("nodes", ["a", "b"], r"nodes \['a', 'b'\] is not an object"),
            ("nodes", 5, "nodes 5 is not an object"),
            # only what match_json_line writes: int times, str labels and
            # the node keys "0" to "n-1"
            ("start", True, "start True is not an integer"),
            ("start", 5.0, "start 5.0 is not an integer"),
            ("end", 5.0, "end 5.0 is not an integer"),
            ("dur", 1.0, "dur 1.0 is not an integer"),
            ("edges", [["a", "b", True]], "no unused graph edge"),
            ("edges", [["a", "b", 5.0]], "no unused graph edge"),
            ("nodes", {"0": "a", "1": 7}, "label 7 is not a string"),
            ("edges", [["a", 7, 5]], "label 7 is not a string"),
            ("nodes", {"0": "a", "1": "b", "2": "a"}, "key '2' names no pattern node"),
            ("nodes", {"0": "a", "01": "a", "1": "b"}, "key '01' names no pattern node"),
        ]:
            with pytest.raises(ValueError, match=message):
                match_from_dict({**good, key: value}, g, one)


# Labels may hold anything but whitespace and a leading "#": quotes,
# backslashes, control characters and non-ASCII text all need escaping in
# JSON, and "%" must not be read as a format.
_LABEL_CHARS = st.one_of(
    st.sampled_from('"\\/%\x00\x01\x08\x1b\x7f\x80\u00e9\u2028\ufeff\U0001f600'),
    st.characters(),
)
_LABELS = st.text(_LABEL_CHARS, min_size=1, max_size=5).filter(
    lambda s: s[0] != "#" and not any(ch.isspace() for ch in s))


_HOSTILE_PATHS = (
    st.lists(_LABELS, min_size=12, max_size=16, unique=True),
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(1, 20)),
             max_size=25),
)


def hostile_path(labels, extra):
    """A time-ordered path through every label plus the ``extra`` edges, and
    the path pattern of 11 or more nodes that it matches, whose node keys
    sort as strings."""
    edges = [(labels[i], labels[i + 1], i + 1) for i in range(len(labels) - 1)]
    edges += [(labels[u % len(labels)], labels[v % len(labels)], t) for u, v, t in extra]
    p = generate_path_query(len(labels) - 1)
    assert p.node_count >= 11
    return build_graph(edges), p


class TestMatchJsonLine:
    @given(*_HOSTILE_PATHS)
    @settings(max_examples=80, deadline=None)
    def test_equals_json_dumps(self, labels, extra):
        g, p = hostile_path(labels, extra)
        matches, _ = run_search(g, p, 10**6, "index")
        assert matches
        for m in matches:
            assert match_json_line(m, g) == spec_line(m, g)

    def test_small_pattern_on_hostile_labels(self):
        g = build_graph([('a"b', "c\\d", 1), ("c\\d", "\u00e9\x01", 2)])
        p = pattern_from_triples([(0, 1, 1), (1, 2, 2)])
        (m,), _ = run_search(g, p, 5, "index")
        assert match_json_line(m, g) == spec_line(m, g)

    @pytest.mark.parametrize("edges", [1, MAX_PATTERN_EDGES])
    def test_shortest_and_longest_match(self, edges):
        labels = [f'%{i}"\\' for i in range(edges + 1)]
        g = build_graph([(labels[i], labels[i + 1], i) for i in range(edges)])
        (m,), _ = run_search(g, generate_path_query(edges), edges, "index")
        assert match_json_line(m, g) == spec_line(m, g)

    @pytest.mark.parametrize("nodes, edges", [(1, 1), (2, 1), (11, 10), (65, 64), (3, 5)])
    def test_writer_source_holds_only_ints_and_fixed_names(self, nodes, edges):
        source = matcher._writer_source(nodes, edges)
        fixed = {"def", "return", "_w", "m", "fmt", "label_json", "sources", "targets",
                 "times", "start", "end", "dur"}
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            assert token.type != tokenize.STRING
            if token.type == tokenize.NAME:
                assert token.string in fixed or re.fullmatch(r"[vp]\d+", token.string)
            if token.type == tokenize.NUMBER:
                assert token.string.isdigit()

    def test_writer_cache_is_bounded(self):
        g = build_graph([("a", "b", 1)])
        bound = matcher._writer.cache_info().maxsize
        for nodes in range(1, bound + 10):
            m = Match((0,) * nodes, (0, 0), 1, 1, 1)
            assert match_json_line(m, g) == spec_line(m, g)
        assert matcher._writer.cache_info().currsize == bound


def assert_line_stream_equals_match_stream(g, p, delta, k):
    """For ``simple`` and ``index``: the line stream is ``match_json_line``
    over the match stream, with equal counters, at the limits None, 0, 1
    and ``k``; and a line stream closed after ``k`` lines reports the
    counters of a ``limit=k`` run."""
    for strategy in ("simple", "index"):
        for limit in (None, 0, 1, k):
            matches, stats = stream_search(g, p, delta, strategy, limit)
            lines, line_stats = stream_search(g, p, delta, strategy, limit, lines=True)
            assert list(lines) == [match_json_line(m, g) for m in matches]
            assert line_stats == stats
        lines, closed = stream_search(g, p, delta, strategy, lines=True)
        with closing(lines):
            prefix = list(itertools.islice(lines, k))
        cut, cut_stats = run_search(g, p, delta, strategy, k)
        assert prefix == [match_json_line(m, g) for m in cut]
        assert closed == cut_stats


class TestLineStream:
    """``stream_search(..., lines=True)`` under ``simple`` and ``index`` runs
    a kernel that formats each line itself."""

    @given(st.integers(0, 10_000), st.integers(2, 40))
    @settings(max_examples=80, deadline=None)
    def test_generated_instances(self, seed, k):
        # EQUAL steps, self-loops and parallel edges
        rng = random.Random(seed)
        g, p = random_graph(rng), random_pattern(rng)
        delta = full_span(g)
        if validate_pattern(p, delta).ok:
            assert_line_stream_equals_match_stream(g, p, delta, k)

    @given(*_HOSTILE_PATHS, st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_hostile_labels(self, labels, extra, k):
        g, p = hostile_path(labels, extra)
        assert_line_stream_equals_match_stream(g, p, 10**6, k)

    @pytest.mark.parametrize("edges", [16, 17, 25])
    def test_paths_across_the_chunk_boundary(self, edges):
        # a path through 27 hostile labels, hop i at time 2i + 1; hops 1 and
        # 5 have a later parallel edge and hop 3 an exact duplicate, so
        # matches differ in the times of the first function's depths
        labels = [f'n"{i}\\' if i % 2 else f"\u00e9{i}\x01" for i in range(27)]
        triples = [(labels[i], labels[i + 1], 2 * i + 1) for i in range(26)]
        triples += [(labels[1], labels[2], 4), (labels[3], labels[4], 7),
                    (labels[5], labels[6], 12)]
        g = build_graph(triples)
        p = generate_path_query(edges)
        matches, _ = run_search(g, p, 10**6, "index")
        assert len(matches) >= 8
        for m in matches:
            assert match_json_line(m, g) == spec_line(m, g)
        assert_line_stream_equals_match_stream(g, p, 10**6, 5)

    @pytest.mark.parametrize("edges", [1, 2, 3, 17])
    def test_labels_with_percent(self, edges):
        # a path through labels a format would read; the first, middle and
        # last hops have a later parallel edge
        labels = ["%s", "%d", "50%", "%%"] + [f"%{i}%s" for i in range(4, edges + 1)]
        triples = [(labels[i], labels[i + 1], 2 * i + 1) for i in range(edges)]
        triples += [(labels[i], labels[i + 1], 2 * i + 2) for i in {0, edges // 2, edges - 1}]
        g = build_graph(triples)
        p = generate_path_query(edges)
        for strategy in ("simple", "index"):
            matches, _ = run_search(g, p, 10**6, strategy)
            lines, _ = stream_search(g, p, 10**6, strategy, lines=True)
            assert len(matches) >= 2
            assert list(lines) == [spec_line(m, g) for m in matches]
            assert [match_json_line(m, g) for m in matches] == [spec_line(m, g) for m in matches]

    @pytest.mark.parametrize("edges", [2, 3])
    def test_runs_follow_the_depth_above(self, edges):
        # consecutive matches share their last edge "c d" and differ in the
        # parallel edge bound at the depth above, so a line that kept the
        # runs of the previous binding would repeat its time
        above = [("b", "c", t) for t in (2, 3, 4)]
        g = build_graph([("a", "b", 1)] * (edges == 3) + above + [("c", "d", 9)])
        p = generate_path_query(edges)
        matches, _ = run_search(g, p, 100, "index")
        assert len(matches) == 3
        assert len({m.edge_assignment[-1] for m in matches}) == 1
        assert len({m.edge_assignment[-2] for m in matches}) == 3
        for strategy in ("simple", "index"):
            lines, _ = stream_search(g, p, 100, strategy, lines=True)
            assert list(lines) == [spec_line(m, g) for m in matches]
            for k in range(1, 4):
                lines, _ = stream_search(g, p, 100, strategy, lines=True)
                with closing(lines):
                    prefix = list(itertools.islice(lines, k))
                assert prefix == [spec_line(m, g) for m in matches[:k]]


class _FailingSink(io.StringIO):
    """Text sink whose every write raises ``exc``; counts the attempts."""

    def __init__(self, exc: OSError):
        super().__init__()
        self.exc = exc
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        raise self.exc


def _many_matches_files(tmp_path, n: int = 5000):
    gpath = write(tmp_path / "g.txt", "".join(f"u v {t}\n" for t in range(1, n + 1)))
    ppath = write(tmp_path / "p.txt", "nodes 2\n0 1 1\n")
    return gpath, ppath


class TestStreamingQuery:
    @pytest.mark.parametrize("strategy", ["simple", "index", "baseline", "oracle"])
    @pytest.mark.parametrize("limit", [None, 0, 1, 7])
    @pytest.mark.parametrize("seed", [11, 35, 107])  # 13, 11 and 68 matches
    def test_output_equals_run_search_lines(self, tmp_path, capsys, strategy, limit, seed):
        rng = random.Random(seed)
        g, p = random_graph(rng, max_nodes=8, max_edges=25), random_pattern(rng, max_edges=3)
        delta = full_span(g)
        save_graph(g, str(tmp_path / "g.txt"))
        save_pattern(p, str(tmp_path / "p.txt"))
        g = load_graph(str(tmp_path / "g.txt"))
        p = load_pattern(str(tmp_path / "p.txt"))
        argv = ["query", "--graph", str(tmp_path / "g.txt"), "--pattern",
                str(tmp_path / "p.txt"), "--delta", str(delta), "--strategy", strategy]
        if limit is not None:
            argv += ["--limit", str(limit)]
        code = main(argv)
        out = capsys.readouterr().out
        matches, stats = run_search(g, p, delta, strategy, limit)
        assert code == 0
        assert out == "".join(match_json_line(m, g) + "\n" for m in matches)
        assert list(stream_search(g, p, delta, strategy, limit)[0]) == matches
        # a stream closed after its k-th match holds the limit=k prefix and counters
        stream, streamed = stream_search(g, p, delta, strategy)
        with closing(stream):
            prefix = list(itertools.islice(stream, limit))
        assert prefix == matches and streamed == stats

    @pytest.mark.parametrize("strategy", ["simple", "index"])
    def test_stats_summary_counts_the_stream(self, tmp_path, capsys, strategy):
        gpath, ppath = _many_matches_files(tmp_path, 50)
        code = main(["query", "--graph", gpath, "--pattern", ppath, "--delta", "100",
                     "--strategy", strategy, "--limit", "20", "--stats"])
        lines = capsys.readouterr().out.splitlines()
        summary = json.loads(lines[-1])["summary"]
        _, stats = run_search(load_graph(gpath), load_pattern(ppath), 100,
                              strategy, limit=20)
        assert code == 0 and len(lines) == 21
        assert summary.pop("millis") >= 0
        assert summary == {"matches": 20, **stats.as_dict()}

    @pytest.mark.parametrize("strategy", ["simple", "index", "baseline", "oracle"])
    def test_broken_pipe_stops_quietly(self, tmp_path, capsys, monkeypatch, strategy):
        # the sink has no file descriptor, so stdout is left as it is
        gpath, ppath = _many_matches_files(tmp_path, 50)
        out = _FailingSink(BrokenPipeError(errno.EPIPE, "Broken pipe"))
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["query", "--graph", gpath, "--pattern", ppath, "--delta", "100",
                     "--strategy", strategy, "--stats"]) == 0
        assert out.writes == 1
        assert capsys.readouterr().err == ""

    def test_other_write_error_exit_2(self, tmp_path, capsys, monkeypatch):
        gpath, ppath = _many_matches_files(tmp_path, 50)
        out = _FailingSink(OSError(errno.ENOSPC, "No space left on device"))
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["query", "--graph", gpath, "--pattern", ppath, "--delta", "100"]) == 2
        assert out.writes == 1
        assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"


class TestQueryCommand:
    def test_trivial_query_single_line(self, tmp_path, capsys):
        gpath = write(tmp_path / "g.txt", "a b 1\n")
        ppath = write(tmp_path / "p.txt", "nodes 2\n0 1 1\n")
        code = main(["query", "--graph", gpath, "--pattern", ppath, "--delta", "1"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["dur"] == 1

    def test_strategies_byte_identical(self, toy_graph_file, path2_pattern_file, capsys):
        outputs = {}
        for strategy in ("simple", "index", "baseline", "oracle"):
            code = main([
                "query", "--graph", toy_graph_file, "--pattern", path2_pattern_file,
                "--delta", "10", "--strategy", strategy,
            ])
            assert code == 0
            outputs[strategy] = capsys.readouterr().out
        assert len(set(outputs.values())) == 1

    def test_limit_truncates(self, tmp_path, capsys):
        gpath = write(tmp_path / "g.txt", "".join(f"u v {t}\n" for t in range(1, 10)))
        ppath = write(tmp_path / "p.txt", "nodes 2\n0 1 1\n")
        code = main([
            "query", "--graph", gpath, "--pattern", ppath,
            "--delta", "100", "--limit", "5", "--stats",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6  # 5 matches + summary
        assert "summary" in lines[-1]
        assert json.loads(lines[-1])["summary"]["matches"] == 5

    def test_baseline_limit_bounds_output_not_search(self, tmp_path, capsys):
        # the README's example: the baseline's counters cover all 4 matches
        gpath = write(tmp_path / "g.txt", "u v 1\nu v 2\nu v 3\nu v 4\n")
        ppath = write(tmp_path / "p.txt", "nodes 2\n0 1 1\n")
        assert main(["query", "--graph", gpath, "--pattern", ppath, "--delta", "10",
                     "--strategy", "baseline", "--limit", "2", "--stats"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        summary = json.loads(lines[-1])["summary"]
        assert (summary["matches"], summary["matches_found"]) == (2, 4)

    @pytest.mark.parametrize("strategy", ["simple", "index", "baseline", "oracle"])
    def test_negative_limit_rejected(self, tmp_path, capsys, strategy):
        gpath = write(tmp_path / "g.txt", "u v 1\nu v 2\nu v 3\n")
        ppath = write(tmp_path / "p.txt", "nodes 2\n0 1 1\n")
        g, p = load_graph(gpath), load_pattern(ppath)
        with pytest.raises(ValueError, match="limit"):
            run_search(g, p, 10, strategy, limit=-1)
        # every fault raises on the call itself, before the stream is advanced
        with pytest.raises(ValueError, match="limit"):
            stream_search(g, p, 10, strategy, limit=-1)
        with pytest.raises(InvalidPatternError):
            stream_search(g, generate_path_query(3), 2, strategy, limit=-1)
        with pytest.raises(ValueError, match="unknown strategy 'fast'"):
            stream_search(g, p, 10, "fast")
        code = main([
            "query", "--graph", gpath, "--pattern", ppath, "--delta", "10",
            "--strategy", strategy, "--limit", "-1",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "limit" in captured.err

    @pytest.mark.parametrize("strategy", ["simple", "index", "baseline", "oracle"])
    @pytest.mark.parametrize("limit", [[], ["--limit", "-1"]])
    def test_invalid_pattern_exit_1(self, tmp_path, capsys, strategy, limit):
        # 16 nodes, over the oracle's size limit: the pattern is reported first
        gpath = write(tmp_path / "g.txt", "".join(f"n{i} n{i + 1} {i}\n" for i in range(15)))
        ppath = write(tmp_path / "p.txt", "nodes 4\n0 1 1\n1 2 2\n2 3 3\n")
        code = main(["query", "--graph", gpath, "--pattern", ppath, "--delta", "2",
                     "--strategy", strategy, "--stats", *limit])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "invalid pattern: dur(P)=3 exceeds delta=2\n"

    def test_zero_matches_still_exit_zero(self, toy_graph_file, tmp_path, capsys):
        ppath = write(tmp_path / "p.txt", "nodes 2\n0 1 1\n0 1 2\n0 1 3\n")
        code = main([
            "query", "--graph", toy_graph_file, "--pattern", ppath, "--delta", "100",
        ])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_delta_unit_conversion(self, tmp_path, capsys):
        gpath = write(tmp_path / "g.txt", "a b 0\nb c 3600\n")
        ppath = write(tmp_path / "p.txt", "nodes 3\n0 1 1\n1 2 2\n")
        code = main([
            "query", "--graph", gpath, "--pattern", ppath,
            "--delta", "2", "--delta-unit", "hours",
        ])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_unknown_delta_unit_rejected(self):
        with pytest.raises(ValueError, match="unknown delta unit 'weeks'"):
            io_cli.effective_delta(5, "weeks")

    def test_missing_file_exit_2(self, path2_pattern_file, capsys):
        code = main([
            "query", "--graph", "/nonexistent/g.txt",
            "--pattern", path2_pattern_file, "--delta", "1",
        ])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_parse_failure_exit_1(self, tmp_path, path2_pattern_file, capsys):
        gpath = write(tmp_path / "g.txt", "a b 1.5\n")
        code = main([
            "query", "--graph", gpath, "--pattern", path2_pattern_file, "--delta", "1",
        ])
        assert code == 1

    def test_determinism_two_runs(self, toy_graph_file, path2_pattern_file, capsys):
        runs = []
        for _ in range(2):
            code = main([
                "query", "--graph", toy_graph_file, "--pattern", path2_pattern_file,
                "--delta", "10",
            ])
            assert code == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]


class TestNonAsciiInput:
    """A non-ASCII byte is reported with its file and line, exit status 1."""

    @pytest.fixture
    def files(self, tmp_path):
        good_graph = write(tmp_path / "g.txt", "a b 1\nb c 2\n")
        good_pattern = write(tmp_path / "p.txt", "nodes 3\n0 1 1\n1 2 2\n")
        bad_graph = tmp_path / "bad_g.txt"
        bad_graph.write_bytes(b"a b 1\nb caf\xc3\xa9 2\n")
        bad_pattern = tmp_path / "bad_p.txt"
        bad_pattern.write_bytes(b"nodes 3\n0 1 1\n# \xff\n1 2 2\n")
        return good_graph, good_pattern, str(bad_graph), str(bad_pattern)

    def test_graph_file(self, files, capsys):
        good_graph, good_pattern, bad_graph, _ = files
        for command in ("query", "validate"):
            assert main([command, "--graph", bad_graph, "--pattern", good_pattern,
                         "--delta", "5"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {bad_graph}:2: non-ASCII byte\n"

    def test_pattern_file(self, files, capsys):
        good_graph, good_pattern, _, bad_pattern = files
        for command in ("query", "validate"):
            assert main([command, "--graph", good_graph, "--pattern", bad_pattern,
                         "--delta", "5"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {bad_pattern}:3: non-ASCII byte\n"

    def test_direct_loaders_raise_parse_error(self, files):
        _, _, bad_graph, bad_pattern = files
        with pytest.raises(ParseError, match=r":2: non-ASCII byte$"):
            load_graph(bad_graph)
        with pytest.raises(ParseError, match=r":3: non-ASCII byte$"):
            load_pattern(bad_pattern)


class TestValidateCommand:
    def test_valid_pair_ok_with_counts(self, toy_graph_file, path2_pattern_file, capsys):
        code = main([
            "validate", "--graph", toy_graph_file,
            "--pattern", path2_pattern_file, "--delta", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out
        assert "4 temporal edges" in out

    def test_duration_violation_exit_1(self, toy_graph_file, tmp_path, capsys):
        ppath = write(tmp_path / "p.txt", "nodes 4\n0 1 1\n1 2 2\n2 3 3\n")
        code = main([
            "validate", "--graph", toy_graph_file, "--pattern", ppath, "--delta", "2",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "dur(P)=3" in out

    def test_node_id_out_of_declared_range(self, toy_graph_file, tmp_path, capsys):
        ppath = write(tmp_path / "p.txt", "nodes 2\n0 5 1\n")
        code = main([
            "validate", "--graph", toy_graph_file, "--pattern", ppath, "--delta", "5",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "out of range" in out

    @pytest.mark.parametrize("command", ["validate", "query"])
    def test_huge_node_count_exits_1_briefly(self, toy_graph_file, tmp_path, capsys, command):
        ppath = write(tmp_path / "p.txt", "nodes 1000000000\n0 1 1\n")
        t0 = time.perf_counter()
        code = main([command, "--graph", toy_graph_file, "--pattern", ppath, "--delta", "5"])
        assert time.perf_counter() - t0 < 1
        captured = capsys.readouterr()
        assert code == 1
        assert len(captured.out) + len(captured.err) < 1024
        assert "and 999999988 more" in captured.out + captured.err

    def test_zero_delta_same_error_as_query(self, toy_graph_file, path2_pattern_file, capsys):
        args = ["--graph", toy_graph_file, "--pattern", path2_pattern_file,
                "--delta", "0", "--delta-unit", "hours"]
        assert main(["query", *args]) == 1
        query = capsys.readouterr()
        assert main(["validate", *args]) == 1
        validate = capsys.readouterr()
        assert query.out == validate.out == ""
        assert query.err == validate.err == (
            "error: delta must be >= 1 after unit conversion, got 0\n")


class TestGenCommand:
    def test_gen_path_writes_loadable_pattern(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        assert main(["gen", "path", "--length", "4", "--output", str(out)]) == 0
        p = load_pattern(str(out))
        assert len(p.edges) == 4
        assert p.node_count == 5

    def test_gen_random_seeded(self, toy_graph_file, tmp_path):
        out1, out2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
        for out in (out1, out2):
            code = main(["gen", "random", "--graph", toy_graph_file,
                         "--nodes", "3", "--seed", "4", "--output", str(out)])
            assert code == 0
        assert out1.read_text() == out2.read_text()
        p = load_pattern(str(out1))
        assert p.node_count == 3

    @pytest.mark.parametrize("generator", [
        ["path", "--length", str(MAX_PATTERN_EDGES + 1)],
        ["random", "--nodes", str(MAX_PATTERN_EDGES + 2), "--graph", "unread.txt"],
    ])
    def test_gen_past_the_edge_bound_exits_1_writing_nothing(self, tmp_path, capsys, generator):
        out = tmp_path / "p.txt"
        assert main(["gen", *generator, "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: pattern would have {MAX_PATTERN_EDGES + 1} edges, "
            f"limit is {MAX_PATTERN_EDGES}\n")
        assert not out.exists()

    def test_gen_path_at_the_edge_bound_is_queried(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        assert main(["gen", "path", "--length", str(MAX_PATTERN_EDGES), "--output", str(out)]) == 0
        gpath = write(tmp_path / "g.txt", "".join(
            f"{i} {i + 1} {i}\n" for i in range(MAX_PATTERN_EDGES)))
        capsys.readouterr()
        assert main(["query", "--graph", gpath, "--pattern", str(out),
                     "--delta", str(MAX_PATTERN_EDGES)]) == 0
        assert capsys.readouterr().out.count("\n") == 1

    def test_gen_random_unreachable_exit_1(self, tmp_path, capsys):
        gpath = write(tmp_path / "g.txt", "a b 1\n")
        code = main(["gen", "random", "--graph", gpath, "--nodes", "5",
                     "--seed", "0", "--output", str(tmp_path / "p.txt")])
        assert code == 1


class TestCliEntryPoint:
    def test_subprocess_smoke(self, tmp_path):
        gpath = write(tmp_path / "g.txt", "a b 1\nb c 2\n")
        ppath = write(tmp_path / "p.txt", "nodes 3\n0 1 1\n1 2 2\n")
        result = subprocess.run(
            [sys.executable, "-m", "ipmatch.cli", "query", "--graph", gpath,
             "--pattern", ppath, "--delta", "5"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("limit", [None, 3])
    def test_reader_closing_the_pipe_exits_zero_quietly(self, tmp_path, unbuffered, limit):
        # Without a limit, 5,000 lines overflow the pipe, so the query is
        # still writing when the reader closes its end after one line.  With
        # --limit 3, the reader closes first and buffered stdout fails only
        # on the final flush, with the text still pending at exit.
        gpath, ppath = _many_matches_files(tmp_path)
        argv = ["query", "--graph", gpath, "--pattern", ppath, "--delta", "10000"]
        if limit is not None:
            argv += ["--limit", str(limit)]
        assert _run_closing_stdout(argv, unbuffered, read_first=limit is None) == (0, b"")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_validate_into_a_closed_pipe_exits_zero_quietly(
            self, toy_graph_file, path2_pattern_file, unbuffered):
        # the reader closes its end before validate prints its first line
        argv = ["validate", "--graph", toy_graph_file, "--pattern", path2_pattern_file,
                "--delta", "10"]
        assert _run_closing_stdout(argv, unbuffered, read_first=False) == (0, b"")

    def test_closed_pipe_points_stdout_at_the_null_device(self, tmp_path):
        # the reader is gone before the first write, so the write that fails
        # leaves its text in the buffered writer, and flushing that fails
        # again: only then is stdout's descriptor pointed at the null device
        gpath, ppath = _many_matches_files(tmp_path, 20000)
        r, w = os.pipe()
        os.close(r)
        out = io.TextIOWrapper(io.BufferedWriter(io.FileIO(w, "w")), encoding="ascii")
        stdout, sys.stdout = sys.stdout, out
        try:
            assert main(["query", "--graph", gpath, "--pattern", ppath,
                         "--delta", "20000"]) == 0
            assert os.path.samestat(os.fstat(w), os.stat(os.devnull))
        finally:
            sys.stdout = stdout
            out.close()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("command", ["query", "validate"])
    def test_full_device_exit_2(self, toy_graph_file, path2_pattern_file, unbuffered,
                                command):
        # the text a failed write leaves buffered must not fail again at exit
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "ipmatch.cli", command, "--graph", toy_graph_file,
                 "--pattern", path2_pattern_file, "--delta", "10"],
                stdout=full, stderr=subprocess.PIPE, env=_child_env(unbuffered), timeout=60)
        assert result.returncode == 2
        assert result.stderr == b"i/o error: [Errno 28] No space left on device\n"


def _child_env(unbuffered: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


def _run_closing_stdout(argv, unbuffered: str, read_first: bool) -> tuple[int, bytes]:
    """Run ``ipmatch <argv>`` in a child whose reader closes stdout, after
    one line if ``read_first``; returns (exit status, stderr)."""
    proc = subprocess.Popen([sys.executable, "-m", "ipmatch.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env(unbuffered))
    try:
        if read_first:
            assert json.loads(proc.stdout.readline())["start"] == 1
        proc.stdout.close()
        stderr = proc.stderr.read()
        return proc.wait(timeout=60), stderr
    finally:
        proc.kill()
        proc.stderr.close()


class TestErrorContract:
    """Every command maps an error to one message and status through cli.main."""

    COMMANDS = ["query", "validate", "gen random", "bench"]

    @staticmethod
    def argv(command, graph, pattern, output):
        return {
            "query": ["query", "--graph", graph, "--pattern", pattern, "--delta", "5"],
            "validate": ["validate", "--graph", graph, "--pattern", pattern, "--delta", "5"],
            "gen random": ["gen", "random", "--graph", graph, "--nodes", "2",
                           "--output", output],
            "bench": ["bench", "--graph", graph, "--family", "path", "--sizes", "1",
                      "--deltas", "5", "--output", output],
        }[command]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_graph_exit_2(self, tmp_path, path2_pattern_file, capsys, command):
        missing, output = str(tmp_path / "absent.txt"), tmp_path / "out.txt"
        assert main(self.argv(command, missing, path2_pattern_file, str(output))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"i/o error: [Errno 2] No such file or directory: '{missing}'\n"
        assert not output.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_ascii_graph_exit_1(self, tmp_path, path2_pattern_file, capsys, command):
        bad = tmp_path / "bad_g.txt"
        bad.write_bytes(b"a b 1\nb caf\xc3\xa9 2\n")
        output = tmp_path / "out.txt"
        assert main(self.argv(command, str(bad), path2_pattern_file, str(output))) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}:2: non-ASCII byte\n"
        assert not output.exists()

    @pytest.mark.parametrize("command", ["gen path", "bench"])
    def test_output_into_missing_directory_exit_2(self, toy_graph_file, path2_pattern_file,
                                                   tmp_path, capsys, command):
        output = str(tmp_path / "absent" / "out.txt")
        argv = (["gen", "path", "--length", "2", "--output", output] if command == "gen path"
                else self.argv(command, toy_graph_file, path2_pattern_file, output))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"i/o error: [Errno 2] No such file or directory: '{output}'\n"


class TestCliLooksUpAtCallTime:
    """``query`` calls the engine through ``io_cli`` when it runs, and so does
    the engine the encoder of ``baseline`` and ``oracle`` lines, so that
    replacing either changes what it prints."""

    @pytest.fixture
    def argv(self, toy_graph_file, path2_pattern_file):
        return ["query", "--graph", toy_graph_file, "--pattern", path2_pattern_file,
                "--delta", "10"]

    def test_replaced_engine(self, argv, capsys, monkeypatch):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        real = io_cli.stream_search

        def drop_last(*args):
            matches, stats = real(*args)
            return iter(list(matches)[:-1]), stats

        monkeypatch.setattr(io_cli, "stream_search", drop_last)
        assert main(argv) == 0
        assert len(lines) == 4
        assert capsys.readouterr().out.splitlines() == lines[:-1]

    def test_replaced_encoder(self, argv, capsys, monkeypatch):
        assert main(argv) == 0
        lines = capsys.readouterr().out
        monkeypatch.setattr(io_cli, "match_json_line", lambda m, g: str(m.edge_assignment))
        for strategy in ("baseline", "oracle"):
            assert main(argv + ["--strategy", strategy]) == 0
            assert capsys.readouterr().out == "(0, 2)\n(0, 3)\n(1, 2)\n(1, 3)\n"
        # the kernel strategies format their lines themselves
        for strategy in ("simple", "index"):
            assert main(argv + ["--strategy", strategy]) == 0
            assert capsys.readouterr().out == lines
