"""Shared helpers: random pipeline generation and cross-engine running.

The generators are plain seeded `random.Random` so the equivalence sweeps are
reproducible and cheap; hypothesis is reserved for the algebraic properties
where shrinking earns its keep.
"""

from __future__ import annotations

import random

from streambench.counters import CounterSet
from streambench.errors import StreamError
from streambench.exprs import Arith, Capture, Cmp, Const, Param, wrap_i64
from streambench.fuse import optimize, exec_fused
from streambench.lambdas import make_lambda
from streambench.parallel import ParallelConfig, run_parallel
from streambench.pull import run_pull
from streambench.push import run_push
from streambench.query import Filter, FlatMap, Map, Terminal, build_query, ints_dataset
from streambench.suite import oracle_run

INTERESTING_VALUES = (
    0, 1, 2, 3, 5, 7, 10, -1, -2, -7, 63, 64, -64, 1000,
    (1 << 62), -(1 << 62), (1 << 63) - 1, -(1 << 63), 123456789,
)


def random_value(rng: random.Random) -> int:
    if rng.random() < 0.5:
        return rng.randint(-50, 50)
    return wrap_i64(rng.choice(INTERESTING_VALUES) + rng.randint(-2, 2))


def random_arith(rng: random.Random, depth: int, captures: int):
    """A random arithmetic tree referencing Param(0) and allowed captures."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.45:
            return Param(0)
        if roll < 0.7 or captures == 0:
            return Const(random_value(rng))
        return Capture(rng.randrange(captures))
    op = rng.choice(("add", "sub", "mul", "mod"))
    return Arith(op, random_arith(rng, depth - 1, captures),
                 random_arith(rng, depth - 1, captures))


def random_predicate(rng: random.Random, depth: int, captures: int):
    op = rng.choice(("eq", "lt"))
    return Cmp(op, random_arith(rng, depth - 1, captures),
               random_arith(rng, depth - 1, captures))


def random_map_lambda(rng: random.Random, captures: int = 0):
    body = random_arith(rng, rng.randint(1, 3), captures)
    declared = captures if rng.random() < 0.8 else 0
    if declared == 0:
        body = random_arith(rng, rng.randint(1, 3), 0)
    return make_lambda(body, captures=declared)


def random_filter_lambda(rng: random.Random, captures: int = 0):
    declared = captures if rng.random() < 0.8 else 0
    body = random_predicate(rng, rng.randint(1, 3), declared)
    return make_lambda(body, captures=declared)


def random_pipeline(rng: random.Random):
    """(query, datasets) with depth <= 4 and arrays <= 64."""
    datasets = {"src": ints_dataset(random_value(rng)
                                    for _ in range(rng.randint(0, 64)))}
    n_stages = rng.randint(0, 4)
    flatmap_used = False
    stages = []
    for _ in range(n_stages):
        roll = rng.random()
        if roll < 0.25 and not flatmap_used:
            flatmap_used = True
            datasets["inner"] = ints_dataset(
                random_value(rng) for _ in range(rng.randint(0, 16)))
            inner_stages = []
            for _ in range(rng.randint(0, 2)):
                if rng.random() < 0.5:
                    inner_stages.append(Map(random_map_lambda(rng, captures=1)))
                else:
                    inner_stages.append(Filter(random_filter_lambda(rng, captures=1)))
            stages.append(FlatMap("inner", tuple(inner_stages)))
        elif roll < 0.6:
            stages.append(Map(random_map_lambda(rng)))
        else:
            stages.append(Filter(random_filter_lambda(rng)))
    terminal = Terminal.SUM if rng.random() < 0.7 else Terminal.COUNT
    return build_query("src", stages, terminal), datasets


def outcome(fn):
    """('ok', value) or ('err', exception type) — errors are outcomes too."""
    try:
        return ("ok", fn())
    except StreamError as exc:
        return ("err", type(exc))


def engine_outcomes(query, datasets, workers: int = 3, split_threshold: int = 7,
                    counters: dict | None = None):
    """Run every strategy plus the oracle; parallel uses a tiny leaf size so
    even 64-element sources actually split.  `counters`, when given, receives
    each engine's CounterSet under the engine's name."""
    config = ParallelConfig(workers=workers, split_threshold=split_threshold)
    if counters is None:
        counters = {}
    for name in ("pull", "push", "fused", "push-par", "fused-par"):
        counters[name] = CounterSet()
    results = {
        "oracle": outcome(lambda: oracle_run(query, datasets)),
        "pull": outcome(lambda: run_pull(query, datasets, counters["pull"])),
        "push": outcome(lambda: run_push(query, datasets, counters["push"])),
        "fused": outcome(
            lambda: exec_fused(optimize(query), datasets, counters["fused"])),
        "push-par": outcome(
            lambda: run_parallel(query, datasets, config, counters["push-par"])),
        "fused-par": outcome(
            lambda: run_parallel(optimize(query), datasets, config,
                                 counters["fused-par"])),
    }
    return results


def pytest_collection_modifyitems(items):
    """Run the acceptance gate after the module tests.

    The module tests take seconds and the acceptance gate takes minutes at
    full size, so a run stopped part-way still reports every module test.
    The sort is stable: each group keeps its collection order.
    """
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")
