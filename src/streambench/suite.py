"""The benchmark suite: five pipelines, their inputs, baselines and oracle.

    sum                 fold the source
    sumOfSquares        map x*x, fold
    sumOfSquaresEven    filter x % 2 == 0, map x*x, fold
    cart                flat-map an inner source, inner map y * (captured x)
    refs                two filters over indirected records, count

Inputs are ranges: 0..n-1 for the linear pipelines and refs; cart uses an
outer range of n // 10 and an inner range of 10, so the default n keeps the
same number of inner visits as the linear benchmarks.  Baselines are the
loops a programmer would write by hand — no query machinery at all.

oracle_run() executes a query by direct recursion over the reference
interpreter.  It shares no code with any engine, which is what makes it worth
checking them against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .exprs import Arith, Capture, Cmp, Const, Param, eval_scalar, wrap_i64, I64_MAX, I64_MIN
from .lambdas import make_lambda
from .query import (
    Filter,
    FlatMap,
    Map,
    QueryExpr,
    Terminal,
    build_query,
    dataset_values,
    ints_dataset,
    refs_dataset,
    resolve_dataset,
)

_X = Param(0)
_MASK = (1 << 64) - 1
_BIAS = 1 << 63


def square_lambda():
    return make_lambda(Arith("mul", _X, _X))


def even_lambda():
    return make_lambda(Cmp("eq", Arith("mod", _X, Const(2)), Const(0)))


def multiple_of_lambda(k: int):
    return make_lambda(Cmp("eq", Arith("mod", _X, Const(k)), Const(0)))


def scale_by_outer_lambda():
    return make_lambda(Arith("mul", _X, Capture(0)), captures=1)


# ---------------------------------------------------------------------------
# Baselines: hand-written loops
# ---------------------------------------------------------------------------
# The 64-bit wrap idiom stays inline here on purpose: a baseline is the loop
# a programmer would write, with no helper call per element.


def _baseline_sum(datasets) -> int:
    acc = 0
    for v in resolve_dataset(datasets, "data").data:
        acc += v
    return wrap_i64(acc)


def _baseline_sum_squares(datasets) -> int:
    acc = 0
    for v in resolve_dataset(datasets, "data").data:
        t = v * v
        if t > I64_MAX:
            t = ((t + _BIAS) & _MASK) - _BIAS
        acc += t
    return wrap_i64(acc)


def _baseline_sum_squares_even(datasets) -> int:
    acc = 0
    for v in resolve_dataset(datasets, "data").data:
        if v % 2 == 0:
            t = v * v
            if t > I64_MAX:
                t = ((t + _BIAS) & _MASK) - _BIAS
            acc += t
    return wrap_i64(acc)


def _baseline_cart(datasets) -> int:
    outer = resolve_dataset(datasets, "outer").data
    inner = resolve_dataset(datasets, "inner").data
    acc = 0
    for a in outer:
        for b in inner:
            t = b * a
            if t < I64_MIN or t > I64_MAX:
                t = ((t + _BIAS) & _MASK) - _BIAS
            acc += t
    return wrap_i64(acc)


def _baseline_refs(datasets) -> int:
    n = 0
    for r in resolve_dataset(datasets, "data").data:
        v = r.value
        if v % 3 == 0 and v % 5 == 0:
            n += 1
    return n


# ---------------------------------------------------------------------------
# Suite definition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Benchmark:
    name: str
    build_query: Callable[[], QueryExpr]
    gen_inputs: Callable[[int], dict]
    baseline: Callable[[dict], int]


def _linear_inputs(n: int) -> dict:
    return {"data": ints_dataset(range(n))}


def _cart_inputs(n: int) -> dict:
    return {"outer": ints_dataset(range(n // 10)),
            "inner": ints_dataset(range(10))}


def _refs_inputs(n: int) -> dict:
    return {"data": refs_dataset(range(n))}


def define_suite() -> tuple[Benchmark, ...]:
    return (
        Benchmark(
            "sum",
            lambda: build_query("data", (), Terminal.SUM),
            _linear_inputs, _baseline_sum),
        Benchmark(
            "sumOfSquares",
            lambda: build_query("data", (Map(square_lambda()),), Terminal.SUM),
            _linear_inputs, _baseline_sum_squares),
        Benchmark(
            "sumOfSquaresEven",
            lambda: build_query(
                "data",
                (Filter(even_lambda()), Map(square_lambda())),
                Terminal.SUM),
            _linear_inputs, _baseline_sum_squares_even),
        Benchmark(
            "cart",
            lambda: build_query(
                "outer",
                (FlatMap("inner", (Map(scale_by_outer_lambda()),)),),
                Terminal.SUM),
            _cart_inputs, _baseline_cart),
        Benchmark(
            "refs",
            lambda: build_query(
                "data",
                (Filter(multiple_of_lambda(3)), Filter(multiple_of_lambda(5))),
                Terminal.COUNT),
            _refs_inputs, _baseline_refs),
    )


def suite_by_name() -> dict[str, Benchmark]:
    return {b.name: b for b in define_suite()}


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def oracle_run(query: QueryExpr, datasets) -> int:
    """Direct nested-loop execution via the reference interpreter."""
    emitted: list[int] = []
    emit = emitted.append
    source_values = dataset_values(resolve_dataset(datasets, query.source))
    stages = query.stages
    # a flat-map's inner values, read once per run as every engine reads them
    inner_values = [dataset_values(resolve_dataset(datasets, s.inner_source))
                    if isinstance(s, FlatMap) else None for s in stages]

    def feed(v, pos: int, captures: tuple) -> None:
        while pos < len(stages):
            stage = stages[pos]
            if isinstance(stage, Map):
                v = eval_scalar(stage.fn.body, (v,), captures)
            elif isinstance(stage, Filter):
                if not eval_scalar(stage.predicate.body, (v,), captures):
                    return
            else:
                for w in inner_values[pos]:
                    u = w
                    keep = True
                    for inner in stage.stages:
                        if isinstance(inner, Map):
                            u = eval_scalar(inner.fn.body, (u,), (v,))
                        else:
                            if not eval_scalar(inner.predicate.body, (u,), (v,)):
                                keep = False
                                break
                    if keep:
                        feed(u, pos + 1, ())
                return
            pos += 1
        emit(v)

    for v in source_values:
        feed(v, 0, ())
    if query.terminal is Terminal.SUM:
        return wrap_i64(sum(emitted))
    return len(emitted)
