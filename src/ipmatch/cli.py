"""Command-line interface: query, validate, gen, bench subcommands."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import bench as bench_mod
from . import io_cli
from .io_cli import QuerySpec


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
    gr = gen_sub.add_parser("random", help="seeded DFS query over a graph")
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
    spec = QuerySpec(
        graph_path=args.graph,
        pattern_path=args.pattern,
        delta=args.delta,
        delta_unit=args.delta_unit,
        strategy=args.strategy,
        limit=args.limit,
        stats=args.stats,
    )
    code = io_cli.run_query(spec, sys.stdout, sys.stderr)
    try:
        sys.stdout.flush()
    except OSError:
        # run_query has dealt with the failed write (a closed pipe is not
        # an error); point stdout at the null device so that the exit
        # flush does not fail on the text still buffered
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _cmd_validate(args) -> int:
    try:
        delta = io_cli.effective_delta(args.delta, args.delta_unit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return io_cli.validate_files(args.graph, args.pattern, delta,
                                 sys.stdout, sys.stderr)


def _cmd_gen(args) -> int:
    try:
        if args.generator == "path":
            pattern = bench_mod.generate_path_query(args.length)
        else:
            g = io_cli.load_graph(args.graph)
            pattern = bench_mod.generate_random_query(g, args.nodes, args.seed)
        io_cli.save_pattern(pattern, args.output)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, bench_mod.QueryGenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    try:
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
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, io_cli.ParseError, bench_mod.QueryGenerationError,
            bench_mod.StrategyMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.output} ({len(rows)} rows)", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "query": _cmd_query,
        "validate": _cmd_validate,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
