"""Command-line interface: query, validate, gen, bench subcommands.

Each subcommand reads its parsed arguments and raises on failure;
:func:`main` alone maps an exception to a message and an exit status.
Only ``gen`` and ``bench`` import :mod:`ipmatch.bench`, so ``query`` and
``validate`` start without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time as _time
from typing import Optional, Sequence

from . import io_cli
from .matcher import InvalidPatternError
from .pattern import MAX_PATTERN_EDGES, validate_pattern


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipmatch",
        description="Find time-ordered interaction patterns in temporal graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="run one pattern query, matches as JSON lines")
    q.add_argument("--graph", required=True)
    q.add_argument("--pattern", required=True)
    q.add_argument("--delta", type=int, required=True)
    q.add_argument("--delta-unit", choices=sorted(io_cli.DELTA_UNITS), default="raw")
    q.add_argument("--strategy", choices=io_cli.STRATEGIES, default="index")
    q.add_argument("--limit", type=int, default=None)
    q.add_argument("--stats", action="store_true")

    v = sub.add_parser("validate", help="check a graph/pattern/delta combination")
    v.add_argument("--graph", required=True)
    v.add_argument("--pattern", required=True)
    v.add_argument("--delta", type=int, required=True)
    v.add_argument("--delta-unit", choices=sorted(io_cli.DELTA_UNITS), default="raw")

    gen = sub.add_parser("gen", help="generate pattern files")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    gp = gen_sub.add_parser("path", help="path query with consecutive timestamps")
    gp.add_argument("--length", type=int, required=True)
    gp.add_argument("--output", required=True)
    gr = gen_sub.add_parser("random", help="seeded random out-tree query over a graph")
    gr.add_argument("--graph", required=True)
    gr.add_argument("--nodes", type=int, required=True)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--output", required=True)

    b = sub.add_parser("bench", help="delta/size sweep with a CSV report")
    b.add_argument("--graph", required=True)
    b.add_argument("--family", choices=["path", "random"], required=True)
    b.add_argument("--sizes", type=_int_list, required=True,
                   help="comma-separated path lengths or random query sizes")
    b.add_argument("--deltas", type=_int_list, required=True)
    b.add_argument("--delta-unit", choices=sorted(io_cli.DELTA_UNITS), default="raw")
    b.add_argument("--strategies", default="simple,index",
                   help="comma-separated subset of simple,index,baseline")
    b.add_argument("--count", type=int, default=100,
                   help="random queries per size")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--output", required=True)
    return parser


def _cmd_query(args) -> int:
    """Write each output line as :func:`io_cli.stream_search` yields it."""
    delta = io_cli.effective_delta(args.delta, args.delta_unit)
    g = io_cli.load_graph(args.graph)
    p = io_cli.load_pattern(args.pattern)
    t0 = _time.perf_counter()
    # looked up per call: a caller may redirect stdout, a test replace the engine
    lines, stats = io_cli.stream_search(g, p, delta, args.strategy, args.limit, True)
    write = sys.stdout.write
    count = 0
    for count, line in enumerate(lines, 1):
        write(line)
    if args.stats:
        millis = (_time.perf_counter() - t0) * 1000.0
        summary = {"millis": round(millis, 3), "matches": count}
        if stats is not None:
            summary.update(stats.as_dict())
        write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    return 0


def _cmd_validate(args) -> int:
    """Report both inputs' counts and any pattern violations (status 1)."""
    delta = io_cli.effective_delta(args.delta, args.delta_unit)
    g = io_cli.load_graph(args.graph)
    p = io_cli.load_pattern(args.pattern)
    s = io_cli.graph_summary(g)
    print(f"graph: {s.nodes} nodes, {s.temporal_edges} temporal edges, "
          f"{s.static_edges} static edges, span {s.span_days:.2f} days")
    print(f"pattern: {p.node_count} nodes, {len(p.edges)} edges")
    report = validate_pattern(p, delta)
    if report.ok:
        print("ok")
        return 0
    for violation in report.violations:
        print(f"violation: {violation}")
    return 1


def _cmd_gen(args) -> int:
    # a path of length k has k edges, a random query of n nodes n - 1; every
    # command that reads a pattern refuses one past the bound, so none is written
    edges = args.length if args.generator == "path" else args.nodes - 1
    if edges > MAX_PATTERN_EDGES:
        raise ValueError(f"pattern would have {edges} edges, limit is {MAX_PATTERN_EDGES}")
    from . import bench as bench_mod
    if args.generator == "path":
        pattern = bench_mod.generate_path_query(args.length)
    else:
        g = io_cli.load_graph(args.graph)
        pattern = bench_mod.generate_random_query(g, args.nodes, args.seed)
    io_cli.save_pattern(pattern, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    from . import bench as bench_mod
    plan = bench_mod.BenchPlan(
        graph_path=args.graph,
        family=args.family,
        sizes=args.sizes,
        deltas=args.deltas,
        strategies=[s for s in args.strategies.split(",") if s],
        count=args.count,
        delta_unit=args.delta_unit,
        seed=args.seed,
        output=args.output,
    )
    rows = bench_mod.run_bench(plan)
    print(f"wrote {args.output} ({len(rows)} rows)", file=sys.stderr)
    return 0


def _drop_unwritten_output() -> None:
    """Point stdout at the null device if the text a failed write left in its
    buffer still cannot be written (in-memory sinks never fail to flush)."""
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _bench_errors() -> tuple[type[Exception], ...]:
    """The errors of ``gen`` and ``bench`` besides ``ValueError``.  Only
    :mod:`ipmatch.bench` raises them, so while it is not imported there
    are none; reading them never imports it."""
    bench = sys.modules.get(f"{__package__}.bench")
    return (bench.QueryGenerationError, bench.StrategyMismatchError) if bench else ()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; returns the exit status: 0 success, a closed
    pipe included; 1 parse or validation failure; 2 I/O failure."""
    args = build_parser().parse_args(argv)
    handlers = {
        "query": _cmd_query,
        "validate": _cmd_validate,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader went away, which is not an error
        _drop_unwritten_output()
        return 0
    except OSError as exc:
        _drop_unwritten_output()
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except InvalidPatternError as exc:  # its text reads "invalid pattern: ..."
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, *_bench_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
