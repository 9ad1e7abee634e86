"""Command-line runner for the benchmark suite.

Reads nothing; produces a result table (csv or markdown) on stdout or --out.
Diagnostics — fused optimize times, the dead-code sink checksum, check
failures — go to stderr so the data stream stays parseable.

Exit status: 0 on success, 1 when a result check fails (a timed run produced
a wrong value, or --check found a mismatch), 2 for bad flags.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from functools import partial

from .counters import CounterSet
from .errors import ResultMismatch
from .fuse import compile_plan, exec_fused, optimize, render_plan
from .harness import DEFAULT_SINK, BenchTask, measure
from .parallel import ParallelConfig, run_parallel
from .pull import run_pull
from .push import DEFAULT_SPLIT_THRESHOLD, run_push
from .suite import define_suite, oracle_run

ENGINE_NAMES = ("baseline", "pull", "push", "fused", "push-par", "fused-par")

CSV_HEADER = ("benchmark,engine,n,threads,warmup,iters,mean_ms,stddev_ms,ci95_ms,"
              "result_hex,control_dispatches,lambda_applies,closure_instantiations")
_FIELDS = CSV_HEADER.split(",")

DEFAULT_N = 10_000_000
_SHOW_PLAN_N = 8


@dataclass
class ResultRow:
    benchmark: str
    engine: str
    n: int
    threads: int
    warmup: int
    iters: int
    mean_ms: float
    stddev_ms: float
    ci95_ms: float
    result_hex: str
    control_dispatches: int
    lambda_applies: int
    closure_instantiations: int

    def cells(self) -> list[str]:
        return [
            self.benchmark, self.engine, str(self.n), str(self.threads),
            str(self.warmup), str(self.iters),
            f"{self.mean_ms:.3f}", f"{self.stddev_ms:.3f}", f"{self.ci95_ms:.3f}",
            self.result_hex, str(self.control_dispatches),
            str(self.lambda_applies), str(self.closure_instantiations),
        ]


def _hex64(value: int) -> str:
    return f"0x{value & 0xFFFFFFFFFFFFFFFF:016x}"


# ---------------------------------------------------------------------------
# Engine dispatch
# ---------------------------------------------------------------------------


def _make_body(bench, engine: str, query, datasets, args):
    """Return (body, threads) where body() -> (value, CounterSet); each
    engine gives run(counters), one run that counts into counters."""
    threads = 1
    if engine == "baseline":
        baseline = bench.baseline

        def run(counters):
            return baseline(datasets)
    elif engine == "pull":
        run = partial(run_pull, query, datasets)
    elif engine == "push":
        run = partial(run_push, query, datasets)
    elif engine == "fused":
        t0 = time.perf_counter()
        plan = optimize(query)
        optimize_ms = (time.perf_counter() - t0) * 1e3
        print(f"# {bench.name} fused optimize: {optimize_ms:.3f} ms "
              "(excluded from samples; code generation runs inside them)",
              file=sys.stderr)
        run = partial(exec_fused, plan, datasets)
    else:
        config = ParallelConfig(workers=args.threads,
                                split_threshold=args.split_threshold)
        target = query if engine == "push-par" else optimize(query)
        run = partial(run_parallel, target, datasets, config)
        threads = config.resolved_workers()

    def body():
        counters = CounterSet()
        return run(counters), counters
    return body, threads


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def format_csv(rows) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(row.cells()) for row in rows)
    return "\n".join(lines) + "\n"


def format_md(rows) -> str:
    lines = ["| " + " | ".join(_FIELDS) + " |",
             "| " + " | ".join("---" for _ in _FIELDS) + " |"]
    lines.extend("| " + " | ".join(row.cells()) + " |" for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streambench",
        description="Run stream pipeline benchmarks across execution strategies.")
    parser.add_argument("--bench", default="all",
                        help="benchmark name or 'all' (default: all)")
    parser.add_argument("--engine", default="all",
                        help="engine name or 'all' (default: all)")
    parser.add_argument("--n", type=int, default=DEFAULT_N,
                        help=f"input size (default: {DEFAULT_N})")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes for parallel engines (default: logical cores)")
    parser.add_argument("--warmup", type=int, default=10,
                        help="warmup iterations (default: 10)")
    parser.add_argument("--iters", type=int, default=10,
                        help="timed iterations (default: 10)")
    parser.add_argument("--split-threshold", type=int,
                        default=DEFAULT_SPLIT_THRESHOLD,
                        help=f"parallel leaf size (default: {DEFAULT_SPLIT_THRESHOLD})")
    parser.add_argument("--format", choices=("csv", "md"), default="csv",
                        help="output table format (default: csv)")
    parser.add_argument("--check", action="store_true",
                        help="validate results against the brute-force oracle, no timing")
    parser.add_argument("--show-plan", action="store_true",
                        help="print the fused plan and its generated source for "
                             "each selected benchmark and exit")
    parser.add_argument("--out", default=None,
                        help="write the table to a file instead of stdout")
    return parser


def _select(parser, args):
    suite = define_suite()
    by_name = {b.name: b for b in suite}
    if args.bench == "all":
        benches = list(suite)
    elif args.bench in by_name:
        benches = [by_name[args.bench]]
    else:
        parser.error(f"unknown benchmark: {args.bench!r} "
                     f"(choose from {', '.join(by_name)} or all)")
    if args.engine == "all":
        engines = list(ENGINE_NAMES)
    elif args.engine in ENGINE_NAMES:
        engines = [args.engine]
    else:
        parser.error(f"unknown engine: {args.engine!r} "
                     f"(choose from {', '.join(ENGINE_NAMES)} or all)")
    return benches, engines


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.warmup < 0:
        parser.error("--warmup must be >= 0")
    if args.iters < 2:
        parser.error("--iters must be >= 2")
    if args.split_threshold < 1:
        parser.error("--split-threshold must be >= 1")
    benches, engines = _select(parser, args)

    if args.show_plan:
        for bench in benches:
            plan = optimize(bench.build_query())
            print(f"# plan {bench.name}")
            print(render_plan(plan))
            # the source binds the data by name, so any size shows the same text
            print(f"# source {bench.name}")
            print(compile_plan(plan, bench.gen_inputs(_SHOW_PLAN_N)).source, end="")
        return 0

    failures = 0
    rows = []
    for bench in benches:
        datasets = bench.gen_inputs(args.n)
        query = bench.build_query()
        if args.check:
            expected = oracle_run(query, datasets)
            for engine in engines:
                body, _threads = _make_body(bench, engine, query, datasets, args)
                value, _counters = body()
                if value == expected:
                    print(f"check {bench.name} {engine}: ok")
                else:
                    failures += 1
                    print(f"check {bench.name} {engine}: MISMATCH "
                          f"got {_hex64(value)} want {_hex64(expected)}",
                          file=sys.stderr)
            continue
        expected = bench.baseline(datasets)
        for engine in engines:
            body, threads = _make_body(bench, engine, query, datasets, args)
            last = {}

            def run_once(_state, _body=body, _last=last):
                value, counters = _body()
                _last["value"] = value
                _last["counters"] = counters
                return value

            task = BenchTask(f"{bench.name}/{engine}", lambda: None,
                             run_once, expected)
            try:
                stats = measure(task, warmup=args.warmup, iters=args.iters)
            except ResultMismatch as exc:
                print(f"result mismatch: {exc}", file=sys.stderr)
                return 1
            counters = last["counters"]
            rows.append(ResultRow(
                bench.name, engine, args.n, threads, args.warmup, args.iters,
                stats.mean, stats.stddev, stats.ci95_half,
                _hex64(last["value"]),
                counters.control_dispatches, counters.lambda_applies,
                counters.instantiations))

    if args.check:
        print(f"# sink checksum: {_hex64(DEFAULT_SINK.checksum)}", file=sys.stderr)
        return 1 if failures else 0

    text = format_csv(rows) if args.format == "csv" else format_md(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# sink checksum: {_hex64(DEFAULT_SINK.checksum)}", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run_cli())
