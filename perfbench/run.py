#!/usr/bin/env python3
"""Seeded benchmark of ipmatch queries, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py                       # every workload, one process each
    python3 perfbench/run.py --workload motif-dense --seed 3 --seconds 20 --trace 1

One workload runs in one process, so its peak RSS is its own.  The
process generates the workload's graph from the seed, writes it in SNAP
format under ``.perfbench_out/``, loads it, checks every query's output
(the gate) and then runs the query mix in a closed loop: one client,
one query at a time.  ``--trace 1`` alternates untraced and traced
rounds and reports per-layer metrics from the spans instead of the
end-to-end ones.  Reported times are scaled to a reference host speed,
measured by ``harness.calibrate`` in every round; the times as measured
are printed beside them.

Human-readable lines come first; the last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SRC = os.path.join(ROOT, "src")


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected_counts.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_harness():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ipmatch", "__init__.py")):
        sys.exit(f"error: no ipmatch sources under {SRC}")
    sys.path.insert(0, SRC)
    import harness
    import ipmatch
    if not os.path.abspath(ipmatch.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported ipmatch from {ipmatch.__file__}, not from {SRC}")
    return harness


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def select(metrics: dict, declared: list[dict]) -> dict:
    """The declared metrics, in BENCHMARK.json form; each must be measured."""
    out = {}
    for spec in declared:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit}, declared {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def report_trace(harness, name: str, seed: int, tracer, untraced, traced, refs,
                 setup: dict, baseline: dict) -> dict:
    """Print the per-layer metrics and self times, write the spans; returns the metrics."""
    plain, spanned = untraced.pass_seconds(), traced.pass_seconds()
    loop_spans = [s for s in tracer.spans if str(s.exec_id).startswith("loop:")]
    per_layer = harness.layer_metrics(loop_spans, refs, setup, spanned / plain, baseline)
    print_metrics("per-layer (traced rounds, per pass over the query mix)", per_layer)
    print(f"tracing overhead: one pass over the query mix takes {plain * 1e3:.1f} ms "
          f"untraced, {spanned * 1e3:.1f} ms traced ({(spanned / plain - 1) * 100:+.2f}%)")
    passes = len(traced.samples.raw) / len(refs)
    selfs = harness.self_times(loop_spans)
    print("self time per pass (traced rounds)")
    for span_name, total in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {span_name:34s} {total / passes * 1e3:12.3f} ms")
    trace_path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed,
                   "span_fields": ["id", "parent", "exec_id", "name",
                                   "start_ns", "end_ns", "scale", "attrs"],
                   "spans": [s.as_list() for s in tracer.spans],
                   "self_time_s": selfs,
                   "per_layer": {k: v for k, (v, _) in per_layer.items()}}, fh)
    print(f"spans written to {os.path.relpath(trace_path, ROOT)} ({len(tracer.spans)} spans)")
    return per_layer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    harness = import_harness()
    import ipmatch
    import workloads

    config = load_config()
    expected = load_expected()
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        tracer = harness.Tracer() if trace else harness.NullTracer()
        edges = workloads.generate_edges(name, seed)
        graph_path = os.path.join(work, "graph.snap")
        workloads.write_snap(edges, graph_path)
        if not trace:
            edges = None  # only build_graph in traced rounds needs them

        g, _ = harness.load_once(graph_path, tracer, "setup")
        rss_after_setup = harness.rss_mb()
        queries = workloads.queries(name)
        cli_q = workloads.cli_query(name)
        patterns = {pn: workloads.build_pattern(pn)
                    for pn in dict.fromkeys([q.pattern for q in queries] + [cli_q.pattern])}

        counts = expected["counts"][name] if seed == expected["seed"] else None
        rng = random.Random(f"verify:{name}:{seed}")
        refs, failures, baseline = harness.reference_pass(
            g, patterns, queries, tracer, rng, counts,
            workloads.PARAMS[name].get("baseline", False))

        pattern_path = os.path.join(work, "pattern.txt")
        ipmatch.save_pattern(patterns[cli_q.pattern], pattern_path)
        cli_argv = ["query", "--graph", graph_path, "--pattern", pattern_path,
                    "--delta", str(cli_q.delta), "--strategy", cli_q.strategy]
        g = None  # the CLI loads its own graph
        g, cli_sha, cli_lines, cli_failures = harness.cli_reference(
            cli_argv, cli_q, patterns[cli_q.pattern], graph_path, rng, counts,
            next((r for r in refs if r.query == cli_q), None))
        if cli_failures:
            failures[f"cli {cli_q.name}"] = cli_failures
        # the gate and the CLI run have made the largest buffers of the run
        buffered_rss_mb = harness.peak_rss_mb() - rss_after_setup

        print(f"workload {name} seed {seed}: {len(g)} edges, {g.node_count} nodes, "
              f"{len(queries)} queries")
        for r in refs:
            print(f"  count {r.query.name:34s} matches {r.matches:8d} "
                  f"candidates {r.candidates:9d} pushes {r.pushes:9d}")
        print(f"  count {cli_q.name:34s} matches {cli_lines:8d} (cli)")
        if failures:
            for query, what in failures.items():
                for f in what:
                    print(f"GATE FAILED: {query}: {f}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": len(queries) + 1,
                              "failed": len(failures), "metrics": {}}))
            return 1

        w = harness.Workload(g, patterns, refs, graph_path, cli_argv, cli_sha, edges)
        del g  # the loop replaces w.g every round

        # with tracing, untraced and traced rounds alternate
        tracers = [harness.NullTracer(), tracer] if trace else [tracer]
        results = harness.closed_loop(w, seconds, tracers, builds=trace)
        loop, traced = results[0], results[-1]
        attempted = len(queries) + 1 + sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)

        def timings(kind: str) -> dict:
            """The timed end-to-end metrics from the ``raw`` or ``scaled`` series."""
            samples = getattr(loop.samples, kind)
            p50, p90 = harness.latency_ms(samples)
            return {
                "setup_s": (statistics.median(getattr(loop.loads, kind)), "s"),
                "query_p50_ms": (p50, "ms"),
                "query_p90_ms": (p90, "ms"),
                "matches_per_s": (loop.matches / sum(samples), "1/s"),
                "cli_query_s": (statistics.median(getattr(loop.cli_total, kind)), "s"),
                "cli_first_byte_s": (statistics.median(getattr(loop.cli_first, kind)), "s"),
            }

        end_to_end = {**timings("scaled"),
                      "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
                      "error_rate": (failed / attempted, "ratio")}
        speed = statistics.median(loop.factors)
        print(f"closed loop: 1 client, {len(loop.samples.raw)} query executions, "
              f"{len(loop.loads.raw)} loads and {len(loop.cli_total.raw)} CLI runs of "
              f"{cli_q.name}, interleaved")
        print(f"host speed: median factor {speed:.4f} over {len(loop.factors)} rounds "
              f"(range {min(loop.factors):.4f}-{max(loop.factors):.4f}); times below are "
              f"scaled to the reference speed")
        print_metrics("end-to-end", end_to_end)
        print_metrics("end-to-end timings as measured (not scaled)", timings("raw"))

        if trace:
            setup = {"load_s": statistics.median(traced.loads.scaled),
                     "build_s": statistics.median(traced.builds.scaled),
                     "bytes_per_edge": harness.graph_bytes_per_edge(graph_path),
                     "buffered_rss_mb": buffered_rss_mb}
            per_layer = report_trace(harness, name, seed, tracer, loop, traced, refs, setup,
                                     baseline)
            metrics = select(per_layer, config["per_layer"])
        else:
            metrics = select(end_to_end, config["end_to_end"])
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; ends with one JSON line for all of them."""
    import workloads

    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            code = code or 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all",) + workloads.WORKLOADS, default="all")
    parser.add_argument("--seed", type=int, default=load_expected()["seed"])
    parser.add_argument("--seconds", type=float, default=load_config()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
