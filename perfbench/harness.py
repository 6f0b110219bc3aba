"""Measurement core: set-up timing, output gate, closed-loop timing, CLI runs.

Everything here calls ipmatch only through its public functions.  A
``Tracer`` records one span per call into the package (or per batch of
``match_json_line`` calls, one batch per query execution) and keeps the
spans in memory; ``NullTracer`` is the same interface recording nothing,
used for the untraced end-to-end numbers.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import json
import random
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field

import ipmatch
from ipmatch import cli

from workloads import Query

MIN_SAMPLES = 100  # p90 needs ten samples beyond it
VERIFY_SAMPLE = 2000  # emitted lines re-checked per query, seeded sample


# --- host speed ---------------------------------------------------------------

CAL_REF_S = 0.0055  # calibrate() on the reference host: 2-vCPU VM, Python 3.11


def _calibration_input() -> list[str]:
    rng = random.Random("calibration")
    return [f"{rng.randrange(300)} {rng.randrange(300)} {rng.randrange(86400)}"
            for _ in range(2500)]


_CAL_LINES = _calibration_input()


def calibrate() -> float:
    """Seconds this host takes for a fixed piece of pure-Python work.

    The work imitates the package's own without calling it: parse edge
    lines, build per-node maps and lists of small objects, sort them and
    count two-edge time-ordered paths.  Its input never changes and the
    collector is off while it runs, so its time depends neither on the
    package nor on how many objects the package keeps alive, only on
    the speed of the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out: dict[str, list] = {}
        names: dict[str, list] = {}
        for i, line in enumerate(_CAL_LINES):
            u, v, t = line.split()
            out.setdefault(u, []).append((int(t), v))
            names[f"{u}:{i}"] = [i, v, (u, t)]
        for edges in out.values():
            edges.sort()
        paths = 0
        for edges in out.values():
            for t, v in edges:
                for t2, _ in out.get(v, ()):
                    if t < t2 <= t + 3600:
                        paths += 1
        json.dumps({"paths": paths, "names": len(names)})
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Span:
    """One timed call; ``scale`` is the host speed factor of its round (see Series)."""

    __slots__ = ("id", "parent", "exec_id", "name", "start_ns", "end_ns", "attrs", "scale")

    def __init__(self, sid, parent, exec_id, name, attrs):
        self.id = sid
        self.parent = parent
        self.exec_id = exec_id
        self.name = name
        self.attrs = attrs
        self.start_ns = self.end_ns = 0
        self.scale = 1.0

    def __enter__(self):
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end_ns = time.perf_counter_ns()
        return False

    @property
    def seconds(self) -> float:
        """Duration scaled to the reference host speed."""
        return (self.end_ns - self.start_ns) * self.scale / 1e9

    def as_list(self) -> list:
        return [self.id, self.parent, self.exec_id, self.name,
                self.start_ns, self.end_ns, self.scale, self.attrs]


class Tracer:
    """In-memory spans; one exec_id per query execution."""

    def __init__(self):
        self.spans: list[Span] = []

    def span(self, name: str, parent: Span | None = None, exec_id=None, **attrs) -> Span:
        s = Span(len(self.spans), parent.id if parent else None, exec_id, name, attrs)
        self.spans.append(s)
        return s


class _NullSpan:
    def __init__(self):
        self.attrs: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    spans: tuple = ()  # records nothing

    def span(self, name, parent=None, exec_id=None, **attrs):
        return _NullSpan()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus time covered by children.

    A span and its children share a round, so they share its scale.
    """
    child: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0) + s.end_ns - s.start_ns
    out: dict[str, float] = {}
    for s in spans:
        self_ns = s.end_ns - s.start_ns - child.get(s.id, 0)
        out[s.name] = out.get(s.name, 0.0) + self_ns * s.scale / 1e9
    return out


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- set-up -----------------------------------------------------------------

def load_once(path: str, tracer, exec_id):
    """One timed ``load_graph`` of the workload file; returns (graph, seconds)."""
    with tracer.span("io_cli.load_graph", exec_id=exec_id):
        t0 = time.perf_counter()
        g = ipmatch.load_graph(path)
        return g, time.perf_counter() - t0


def build_once(edges: list, tracer, exec_id) -> float:
    """One timed ``build_graph`` on the pre-parsed triples of the graph file."""
    with tracer.span("temporal_graph.build_graph", exec_id=exec_id):
        t0 = time.perf_counter()
        g = ipmatch.build_graph(edges)
        seconds = time.perf_counter() - t0
    del g  # freed outside the timed region
    return seconds


def graph_bytes_per_edge(path: str) -> float:
    """Bytes a loaded graph keeps alive, per temporal edge (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = ipmatch.load_graph(path)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / len(g)


# --- one query execution ----------------------------------------------------

def execute(g, p, q: Query, tracer, exec_id, on_line=None):
    """validate_pattern + search + match_json_line for every match.

    Returns (seconds, match count, stats).  Each serialized line is passed
    to ``on_line`` when given, otherwise dropped as it is made.
    """
    t0 = time.perf_counter()
    with tracer.span("query", exec_id=exec_id, query=q.name) as root:
        with tracer.span("pattern.validate_pattern", root, exec_id):
            report = ipmatch.validate_pattern(p, q.delta)
        if not report.ok:
            raise ValueError(f"invalid pattern for {q.name}: {report}")
        with tracer.span(f"matcher.{q.strategy}.run_search", root, exec_id):
            matches, stats = ipmatch.run_search(g, p, q.delta, q.strategy)
        with tracer.span("io_cli.match_json_line", root, exec_id, calls=len(matches)):
            if on_line is None:
                for m in matches:
                    ipmatch.match_json_line(m, g)
            else:
                for m in matches:
                    on_line(ipmatch.match_json_line(m, g))
    return time.perf_counter() - t0, len(matches), stats


# --- output gate ------------------------------------------------------------

@dataclass
class Reference:
    """What one query must produce, taken from the gated reference pass."""

    query: Query
    matches: int
    candidates: int
    pushes: int
    out_sha: str  # sha256 of the lines in emitted order, as the CLI prints them


class LineCheck:
    """Digests of a stream of output lines, and a seeded sample of them.

    Holds at most ``limit`` lines, so checking an output costs no more
    memory than the sample: the sha256 of the lines in emitted order,
    an order-free digest of the lines as a multiset (the sum of their
    sha256 values), the count, and a uniform reservoir sample.
    """

    def __init__(self, rng: random.Random, limit: int = VERIFY_SAMPLE):
        self.rng = rng
        self.limit = limit
        self.sha = hashlib.sha256()
        self.bag = 0
        self.count = 0
        self.sample: list[str] = []

    def add(self, line: str) -> None:
        data = line.encode("ascii")
        self.sha.update(data + b"\n")
        self.bag = (self.bag + int.from_bytes(hashlib.sha256(data).digest(), "big")) % 2**256
        if self.count < self.limit:
            self.sample.append(line)
        else:
            j = self.rng.randrange(self.count + 1)
            if j < self.limit:
                self.sample[j] = line
        self.count += 1


def verify_lines(g, p, delta: int, lines: list[str]) -> list[str]:
    """Re-check emitted lines with match_from_dict + verify_match."""
    failures = []
    for line in lines:
        try:
            m = ipmatch.match_from_dict(json.loads(line), g, p)
            result = ipmatch.verify_match(g, p, delta, m)
        except (ValueError, KeyError, TypeError) as exc:
            failures.append(f"unreadable line {line[:80]!r}: {exc!r}")
            continue
        if not result.ok:
            failures.append(f"line fails verify_match ({result}): {line[:80]}")
        elif ipmatch.match_json_line(m, g) != line:
            failures.append(f"line does not re-serialize to itself: {line[:80]}")
    return failures


def compare_outputs(a: tuple[str, int, int], b: tuple[str, int, int]) -> list[str]:
    """a and b are (producer, match count, order-free digest of the lines)."""
    if a[1] != b[1]:
        return [f"{a[0]} gave {a[1]} matches, {b[0]} gave {b[1]}"]
    if a[2] != b[2]:
        return [f"{a[0]} and {b[0]} emitted different lines"]
    return []


def reference_pass(g, patterns: dict, queries: list[Query], tracer, rng: random.Random,
                   expected: dict | None = None, baseline: bool = False):
    """Run every query once, untimed, and check its output.

    Returns (references, failures, baseline_totals).  ``failures`` maps
    a query name to what went wrong with it; a query failing any check
    fails the whole run.  The totals are empty unless ``baseline``.
    """
    refs: list[Reference] = []
    failures: dict[str, list[str]] = {}
    by_cell: dict[tuple[str, int], list[tuple[str, int, str]]] = {}
    for q in queries:
        p = patterns[q.pattern]
        bad = failures.setdefault(q.name, [])
        lines = LineCheck(rng)
        try:
            _, _, stats = execute(g, p, q, tracer, f"ref:{q.name}", lines.add)
        except Exception as exc:  # any exception is a failed execution
            bad.append(repr(exc))
            traceback.print_exc(file=sys.stderr)
            continue
        with tracer.span("gate.verify_lines", exec_id=f"ref:{q.name}"):
            bad += verify_lines(g, p, q.delta, lines.sample)
        if stats.matches_found != lines.count:
            bad.append(f"stats count {stats.matches_found} matches, {lines.count} emitted")
        if expected is not None and expected.get(q.name) != lines.count:
            bad.append(f"{lines.count} matches, recorded count is {expected.get(q.name)}")
        refs.append(Reference(q, lines.count, stats.candidates_examined, stats.pushes,
                              lines.sha.hexdigest()))
        by_cell.setdefault((q.pattern, q.delta), []).append((q.name, lines.count, lines.bag))

    cand = {(r.query.pattern, r.query.delta, r.query.strategy): r for r in refs}
    totals = {}
    if baseline:
        totals = {"search_s": 0.0, "temporal_candidates": 0, "static_matches": 0,
                  "matches": 0}
    for (pattern, delta), outputs in by_cell.items():
        for other in outputs[1:]:
            failures[other[0]] += compare_outputs(outputs[0], other)
        simple = cand.get((pattern, delta, "simple"))
        index = cand.get((pattern, delta, "index"))
        if simple and index and index.candidates > simple.candidates:
            failures[index.query.name].append(
                f"index examined {index.candidates} candidates, simple {simple.candidates}")
        if baseline:
            try:
                with tracer.span("baseline.two_phase_search",
                                 exec_id=f"ref:{pattern}@{delta}s") as s:
                    t0 = time.perf_counter()
                    matches, stats = ipmatch.two_phase_search(g, patterns[pattern], delta)
                    totals["search_s"] += time.perf_counter() - t0
            except Exception as exc:  # any exception is a failed execution
                failures[outputs[0][0]].append(f"two_phase_search: {exc!r}")
                traceback.print_exc(file=sys.stderr)
                continue
            s.attrs.update(stats.as_dict())
            totals["temporal_candidates"] += stats.temporal_candidates
            totals["static_matches"] += stats.static_matches
            totals["matches"] += len(matches)
            lines = LineCheck(rng)
            for m in matches:
                lines.add(ipmatch.match_json_line(m, g))
            failures[outputs[0][0]] += compare_outputs(
                outputs[0], ("two_phase_search", lines.count, lines.bag))
    return refs, {k: v for k, v in failures.items() if v}, totals


# --- the CLI, end to end ----------------------------------------------------

class OutputCheckError(Exception):
    """An execution ran but its output differs from the reference."""


class FirstWriteSink:
    """Text sink that hashes what it is given and stamps its first write.

    With ``lines``, it also splits the text into lines and adds each to
    that LineCheck.
    """

    def __init__(self, lines: LineCheck | None = None):
        self.first_write = None
        self.sha = hashlib.sha256()
        self.lines = lines
        self.partial = ""

    def write(self, text: str) -> int:
        if self.first_write is None:
            self.first_write = time.perf_counter()
        self.sha.update(text.encode("ascii"))
        if self.lines is not None:
            *done, self.partial = (self.partial + text).split("\n")
            for line in done:
                self.lines.add(line)
        return len(text)

    def flush(self) -> None:
        pass


def cli_once(argv: list[str], out_sha: str | None, tracer, exec_id,
             lines: LineCheck | None = None) -> tuple[float, float, str]:
    """One in-process ``cli.main`` run; returns (total s, first byte s, output sha256).

    The output must hash to ``out_sha`` unless that is None.
    """
    sink = FirstWriteSink(lines)
    with tracer.span("cli.main", exec_id=exec_id):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        t1 = time.perf_counter()
    if code != 0:
        raise OutputCheckError(f"cli: exit code {code}")
    sha = sink.sha.hexdigest()
    if sink.first_write is None or out_sha is not None and sha != out_sha:
        raise OutputCheckError("cli: output differs from the reference")
    return t1 - t0, sink.first_write - t0, sha


def cli_reference(argv: list[str], q: Query, p, graph_path: str, rng: random.Random,
                  expected: dict | None = None, same: Reference | None = None):
    """Run the CLI query once, untimed, and check its output as it is printed.

    Call it holding no graph: the CLI loads its own, and one is loaded
    after it to verify a seeded sample of the lines, so that no more
    than one graph is alive at a time.  ``same`` is the reference pass's
    record of the same query, whose lines the CLI must print in order.
    Returns (graph, output sha256, line count, failures).
    """
    lines = LineCheck(rng)
    try:
        _, _, sha = cli_once(argv, None, NullTracer(), "ref:cli", lines)
    except (Exception, SystemExit) as exc:  # argparse exits on bad argv
        return ipmatch.load_graph(graph_path), None, 0, [repr(exc)]
    g = ipmatch.load_graph(graph_path)
    failures = verify_lines(g, p, q.delta, lines.sample)
    if expected is not None and expected.get(q.name) != lines.count:
        failures.append(f"{lines.count} lines, recorded count is {expected.get(q.name)}")
    if same is not None and same.out_sha != sha:
        failures.append("printed other lines than run_search + match_json_line")
    return g, sha, lines.count, failures


# --- the closed loop --------------------------------------------------------

@dataclass
class Workload:
    """Everything one closed loop needs, fixed after the gate but for ``g``.

    ``g`` is dropped before each CLI run and build and replaced by the
    round's timed load, so the loop holds one graph at a time.
    """

    g: object
    patterns: dict
    refs: list[Reference]
    graph_path: str
    cli_argv: list[str]
    cli_sha: str
    edges: list | None  # pre-parsed triples, for build_graph in traced runs


class Series:
    """Timings of one kind, as measured and scaled to the reference host speed.

    ``scaled`` is ``raw`` times the speed factor of the round each value
    was taken in: CAL_REF_S over the median ``calibrate()`` time of that
    round.  It is what the same work would have taken on a host where
    ``calibrate()`` takes CAL_REF_S, so slow phases of a shared host
    show in ``raw`` but hardly in ``scaled``.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)

    def end_round(self, factor: float) -> None:
        self.scaled.extend(x * factor for x in self.raw[len(self.scaled):])


@dataclass
class LoopResult:
    samples: Series = field(default_factory=Series)
    per_query: dict[str, Series] = field(default_factory=dict)
    matches: int = 0
    loads: Series = field(default_factory=Series)
    builds: Series = field(default_factory=Series)
    cli_total: Series = field(default_factory=Series)
    cli_first: Series = field(default_factory=Series)
    factors: list[float] = field(default_factory=list)  # one per round
    attempted: int = 0
    failed: int = 0

    def pass_seconds(self) -> float:
        """Time of one pass over the query mix: per-query medians, summed (scaled)."""
        return sum(statistics.median(v.scaled) for v in self.per_query.values())

    def end_round(self, cal: list[float]) -> None:
        """Scale the round's timings by the host speed its calibrations saw."""
        factor = CAL_REF_S / statistics.median(cal)
        self.factors.append(factor)
        for series in (self.samples, self.loads, self.builds, self.cli_total,
                       self.cli_first, *self.per_query.values()):
            series.end_round(factor)

    def attempt(self, fn):
        """Call fn; an exception or failed check counts as a failed attempt."""
        self.attempted += 1
        try:
            return fn()
        except (Exception, SystemExit):  # argparse exits on bad argv
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def closed_loop(w: Workload, seconds: float, tracers: list, builds: bool = False
                ) -> list[LoopResult]:
    """One client doing one thing at a time, in whole rounds.

    A round runs every query once, then one ``cli.main`` query run
    (and, with ``builds``, one ``build_graph``) and one ``load_graph``
    of the workload file, whose graph the next round queries.
    Spreading set-up and CLI samples over the whole run exposes them to
    the same machine-speed swings as the queries, instead of to
    whatever the first second happened to be.  Before each timed call
    the round times ``calibrate()``, and the round's timings are scaled
    by the speed those calibrations saw (see ``Series``).  Rounds take
    the tracers in turn, one result per tracer, so a traced and an
    untraced series see the same machine.

    Runs until ``seconds`` have passed and every result holds at least
    MIN_SAMPLES query executions, or four times ``seconds`` at most.
    Each execution must reproduce the reference counts.
    """
    results = [LoopResult(per_query={r.query.name: Series() for r in w.refs})
               for _ in tracers]
    start = time.perf_counter()
    ids = itertools.count()

    def run_query(ref: Reference, tracer):
        q = ref.query
        dt, found, stats = execute(w.g, w.patterns[q.pattern], q, tracer, f"loop:{next(ids)}")
        if (found, stats.candidates_examined, stats.pushes) != \
                (ref.matches, ref.candidates, ref.pushes):
            raise OutputCheckError(f"{q.name}: counts differ from the reference pass")
        return dt, found

    for rnd in itertools.count():
        res, tracer = results[rnd % len(tracers)], tracers[rnd % len(tracers)]
        first_span = len(tracer.spans)
        cal = []
        for ref in w.refs:
            cal.append(calibrate())
            done = res.attempt(lambda: run_query(ref, tracer))
            if done is not None:
                res.samples.add(done[0])
                res.per_query[ref.query.name].add(done[0])
                res.matches += done[1]
        # each CLI run, build and load starts from the same collector state,
        # with no other graph alive
        w.g = None
        gc.collect()
        cal.append(calibrate())
        done = res.attempt(lambda: cli_once(w.cli_argv, w.cli_sha, tracer,
                                            f"loop:{next(ids)}"))
        if done is not None:
            res.cli_total.add(done[0])
            res.cli_first.add(done[1])
        if builds:
            gc.collect()
            cal.append(calibrate())
            done = res.attempt(lambda: build_once(w.edges, tracer, f"loop:{next(ids)}"))
            if done is not None:
                res.builds.add(done)
        gc.collect()
        cal.append(calibrate())
        done = res.attempt(lambda: load_once(w.graph_path, tracer, f"loop:{next(ids)}"))
        if done is not None:
            w.g = done[0]
            res.loads.add(done[1])
        res.end_round(cal)
        for span in tracer.spans[first_span:]:
            span.scale = res.factors[-1]
        if done is None:  # nothing left to query; the run has failed
            return results
        elapsed = time.perf_counter() - start
        if elapsed >= 4 * seconds or (
                elapsed >= seconds and min(len(r.samples.raw) for r in results) >= MIN_SAMPLES):
            return results


def layer_metrics(loop_spans: list[Span], refs: list[Reference], setup: dict,
                  overhead: float, baseline: dict) -> dict:
    """Per-layer metrics from the traced loop's spans and the reference counters.

    Times are per pass over the query mix: for each query the median of
    its spans, summed over the queries.  Counts are exact per pass.
    Returns {name: (value, unit)}.
    """
    query_of = {s.exec_id: s.attrs["query"] for s in loop_spans if s.name == "query"}

    def per_pass(span_name: str) -> float:
        by_query: dict[str, list[float]] = {}
        for s in loop_spans:
            if s.name == span_name:
                by_query.setdefault(query_of[s.exec_id], []).append(s.seconds)
        return sum(statistics.median(v) for v in by_query.values())

    validate = [s.seconds for s in loop_spans if s.name == "pattern.validate_pattern"]
    lines = sum(r.matches for r in refs)
    serialize_s = per_pass("io_cli.match_json_line")
    m = {
        "io_cli.load_s": (setup["load_s"], "s"),
        "io_cli.parse_s": (setup["load_s"] - setup["build_s"], "s"),
        "temporal_graph.build_s": (setup["build_s"], "s"),
        "temporal_graph.bytes_per_edge": (setup["bytes_per_edge"], "B"),
        "pattern.validate_ms": (statistics.median(validate) * 1e3, "ms"),
    }
    for strategy in sorted({r.query.strategy for r in refs}):
        mine = [r for r in refs if r.query.strategy == strategy]
        cand = sum(r.candidates for r in mine)
        push = sum(r.pushes for r in mine)
        found = sum(r.matches for r in mine)
        search_s = per_pass(f"matcher.{strategy}.run_search")
        k = f"matcher.{strategy}."
        m[k + "search_s"] = (search_s, "s")
        m[k + "candidates"] = (cand, "count")
        m[k + "pushes"] = (push, "count")
        m[k + "matches"] = (found, "count")
        m[k + "ns_per_candidate"] = (search_s / cand * 1e9, "ns")
        m[k + "us_per_push"] = (search_s / push * 1e6, "us")
        m[k + "admit_ratio"] = (push / cand, "ratio")
        m[k + "yield_ratio"] = (found / push, "ratio")
    m["io_cli.serialize_s"] = (serialize_s, "s")
    m["io_cli.us_per_line"] = (serialize_s / lines * 1e6 if lines else 0.0, "us")
    m["io_cli.buffered_rss_mb"] = (setup["buffered_rss_mb"], "MB")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    if baseline:
        m["baseline.search_s"] = (baseline["search_s"], "s")
        m["baseline.temporal_candidates"] = (baseline["temporal_candidates"], "count")
        m["baseline.static_matches"] = (baseline["static_matches"], "count")
    return m


def latency_ms(samples: list[float]) -> tuple[float, float]:
    """(p50, p90) in milliseconds."""
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return statistics.median(samples) * 1e3, deciles[8] * 1e3
