"""Workload inputs, the queries run over them, and the reference they are checked against.

Every input comes from the seed the benchmark is given; the engines see only
the generated datasets.  Four workloads, each chosen to load a different part
of the program:

    linear  sumOfSquaresEven over 1e6 ints (an 8 MB array, 4x a 2 MB L2):
            per-element lambda applies, pull/push dispatch and the fused loop.
    nested  cart over 1e5 outer x 10 inner ints: one capturing bind per outer
            element, per-outer inner chains and the two-level fused nest.
    refs    two filters (%3, %5) and a count over 1e6 Ref records: the
            pointer-chasing layout, selective filters and the count terminal.
    adhoc   100 random pipelines over seeded data, each built with fresh call
            sites and run once: per-query build, link, compile, optimize and
            split costs.

The reference (`reference`) walks a query element by element with the
benchmark's own evaluator of the lambda trees, and records, per stage slot,
how many elements entered and left and how many times the stage was
instantiated.  The counter laws are stated over those
numbers (`expected_stage_counts`, `check_counters`).
"""

from __future__ import annotations

import math
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from streambench import (
    DEFAULT_SPLIT_THRESHOLD,
    Arith,
    CallSiteCache,
    Capture,
    Cmp,
    Const,
    CounterSet,
    Filter,
    FlatMap,
    Map,
    Param,
    Terminal,
    build_query,
    dataset_values,
    ints_dataset,
    layout_query,
    make_lambda,
    mod_i64,
    optimize,
    refs_dataset,
    resolve_dataset,
    wrap_i64,
)
from streambench.suite import suite_by_name

HOT = ("linear", "nested", "refs")
WORKLOADS = HOT + ("adhoc",)
WORKERS = 2

LINEAR_N = 1_000_000
NESTED_OUTER = 100_000
NESTED_INNER = 10
REFS_N = 1_000_000
ADHOC_QUERIES = 100
ADHOC_MIN_SIZE = 100
ADHOC_MAX_SIZE = 30_000
ADHOC_MAX_INNER = 8
ADHOC_GRAMMAR_SEED = "adhoc-pipelines"

_HALF_32 = 1 << 31
CAL_BLOCK = 1024


class NullTracer:
    """Stands in for tracing.Tracer when nothing is recorded."""

    def span(self, name):
        return nullcontext()


NULL_TRACER = NullTracer()


@dataclass
class Item:
    """One query and its inputs: what every engine runs in one operation.

    `build` returns the query with fresh call sites each time it is called.
    `query` and `plan` are built once at set-up; hot workloads time engines
    on them, adhoc builds a new query inside every operation instead.
    `cal` is the calibration list: plain ints, one per element the source
    loops visit (outer x inner for a flat-map).
    """

    build: Callable
    datasets: dict
    cal: list
    baseline: Callable | None = None
    query: object = None
    plan: object = None
    expected: int | None = None
    ref: object = None


@dataclass
class Workload:
    name: str
    seed: int
    items: list
    sizes: dict

    @property
    def hot(self) -> bool:
        return self.name in HOT


def _ints(rng: random.Random, n: int) -> list:
    bits = rng.getrandbits
    return [bits(32) - _HALF_32 for _ in range(n)]


def calibration_list(rng: random.Random, n: int) -> list:
    """A plain list of n ints cycling through one seeded block of CAL_BLOCK.

    The loop streams n pointers as the engines stream their sources, while
    the int objects stay in cache.  Against a list of n distinct ints, whose
    loop is bound by memory bandwidth, the ratios spread less between runs
    on a shared machine.
    """
    block = _ints(rng, CAL_BLOCK)
    return (block * (n // CAL_BLOCK + 1))[:n]


def _hot_item(bench_name: str, datasets: dict, cal: list, tracer) -> Item:
    bench = suite_by_name()[bench_name]
    with tracer.span("query.build"):
        query = bench.build_query()
    with tracer.span("fuse.optimize"):
        plan = optimize(query)
    cache = CallSiteCache(CounterSet())
    for lam in top_lambdas(query):
        with tracer.span("lambdas.link"):
            cache.bind(lam)
    return Item(bench.build_query, datasets, cal, bench.baseline, query, plan)


def setup(name: str, seed: int, scale: float = 1.0, tracer=NULL_TRACER) -> Workload:
    """Generate a workload's inputs and build its queries.

    This is the whole set-up that `setup_s` times.  `scale` shrinks every
    size, for the benchmark's self-tests.
    """
    rng = random.Random(f"{name}:{seed}")

    def size(n):
        return max(1, int(n * scale))

    if name == "linear":
        n = size(LINEAR_N)
        values = _ints(rng, n)
        with tracer.span("query.dataset_build"):
            datasets = {"data": ints_dataset(values)}
        cal = calibration_list(rng, n)
        item = _hot_item("sumOfSquaresEven", datasets, cal, tracer)
        return Workload(name, seed, [item], {"n": n})
    if name == "nested":
        outer = size(NESTED_OUTER)
        outer_values = _ints(rng, outer)
        inner_values = _ints(rng, NESTED_INNER)
        cal = calibration_list(rng, outer * NESTED_INNER)
        with tracer.span("query.dataset_build"):
            datasets = {"outer": ints_dataset(outer_values),
                        "inner": ints_dataset(inner_values)}
        item = _hot_item("cart", datasets, cal, tracer)
        return Workload(name, seed, [item], {"outer": outer, "inner": NESTED_INNER})
    if name == "refs":
        n = size(REFS_N)
        values = _ints(rng, n)
        with tracer.span("query.dataset_build"):
            datasets = {"data": refs_dataset(values)}
        cal = calibration_list(rng, n)
        item = _hot_item("refs", datasets, cal, tracer)
        return Workload(name, seed, [item], {"n": n})
    if name == "adhoc":
        return _adhoc_setup(rng, seed, size(ADHOC_QUERIES), tracer)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# adhoc: random pipelines
# ---------------------------------------------------------------------------
# The grammar follows the random pipelines of the test suite (1-4 stages, at
# most one flat-map with capturing inner lambdas, sum or count) with one
# change: a mod divisor is always a non-zero constant, so no query raises and
# every operation measures a full run.

_INTERESTING = (
    0, 1, 2, 3, 5, 7, 10, -1, -2, -7, 63, 64, -64, 1000,
    (1 << 62), -(1 << 62), (1 << 63) - 1, -(1 << 63), 123456789,
)
_SMALL = tuple(range(-50, 51))
_EDGE = tuple(sorted({wrap_i64(v + d) for v in _INTERESTING for d in range(-2, 3)}))
# half the values small, half near an interesting edge
_VALUES = _SMALL + _EDGE
_WEIGHTS = (1 / len(_SMALL),) * len(_SMALL) + (1 / len(_EDGE),) * len(_EDGE)


def _value(rng):
    return rng.choices(_VALUES, _WEIGHTS)[0]


def _divisor(rng):
    while True:
        v = _value(rng)
        if v:
            return Const(v)


def _arith(rng, depth: int, captures: int):
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.45:
            return Param(0)
        if roll < 0.7 or captures == 0:
            return Const(_value(rng))
        return Capture(rng.randrange(captures))
    op = rng.choice(("add", "sub", "mul", "mod"))
    left = _arith(rng, depth - 1, captures)
    if op == "mod":
        return Arith(op, left, _divisor(rng))
    return Arith(op, left, _arith(rng, depth - 1, captures))


def _map_spec(rng, captures: int = 0):
    declared = captures if rng.random() < 0.8 else 0
    return ("map", _arith(rng, rng.randint(1, 3), declared), declared)


def _filter_spec(rng, captures: int = 0):
    declared = captures if rng.random() < 0.8 else 0
    depth = rng.randint(1, 3)
    body = Cmp(rng.choice(("eq", "lt")), _arith(rng, depth - 1, declared),
               _arith(rng, depth - 1, declared))
    return ("filter", body, declared)


def _build_stage(spec):
    kind = spec[0]
    if kind == "map":
        return Map(make_lambda(spec[1], captures=spec[2]))
    if kind == "filter":
        return Filter(make_lambda(spec[1], captures=spec[2]))
    return FlatMap("inner", tuple(_build_stage(s) for s in spec[1]))


def _query_builder(specs, terminal):
    def build():
        return build_query("src", [_build_stage(s) for s in specs], terminal)
    return build


def adhoc_pipelines(count: int):
    """The adhoc query suite: (size stratum, stage specs, inner width, terminal).

    Pipelines come from the grammar under a fixed seed, so every run
    measures the same population of queries; with a few hundred random
    queries, a population drawn per run would move the medians more than
    any engine change worth seeing.  The run seed draws the data.
    """
    rng = random.Random(ADHOC_GRAMMAR_SEED)
    strata = list(range(count))
    rng.shuffle(strata)
    out = []
    for stratum in strata:
        specs = []
        width = 0
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.25 and not width:
                width = rng.randint(1, ADHOC_MAX_INNER)
                inner = tuple(_map_spec(rng, 1) if rng.random() < 0.5 else _filter_spec(rng, 1)
                              for _ in range(rng.randint(1, 2)))
                specs.append(("flat_map", inner))
            elif roll < 0.6:
                specs.append(_map_spec(rng))
            else:
                specs.append(_filter_spec(rng))
        terminal = Terminal.SUM if rng.random() < 0.7 else Terminal.COUNT
        out.append((stratum, tuple(specs), width, terminal))
    return out


def _adhoc_setup(rng, seed: int, count: int, tracer) -> Workload:
    # Source sizes are log-uniform over [MIN, MAX], one draw per stratum, and
    # each pipeline keeps its stratum, so the seed moves a size only within it.
    lo, hi = math.log(ADHOC_MIN_SIZE), math.log(ADHOC_MAX_SIZE)
    pipelines = adhoc_pipelines(count)
    rng.shuffle(pipelines)
    items, sizes, works = [], [], []
    for stratum, specs, width, terminal in pipelines:
        n = int(math.exp(lo + (stratum + rng.random()) * (hi - lo) / count))
        values = rng.choices(_VALUES, _WEIGHTS, k=n)
        inner_values = rng.choices(_VALUES, _WEIGHTS, k=width)
        with tracer.span("query.dataset_build"):
            datasets = {"src": ints_dataset(values)}
            if width:
                datasets["inner"] = ints_dataset(inner_values)
        items.append(Item(_query_builder(specs, terminal), datasets, []))
        sizes.append(n)
        works.append(n * max(1, width))
    cal = calibration_list(rng, max(works))
    for item, work in zip(items, works):
        item.cal = cal[:work]  # sliced here, so no operation pays for the copy
    above = sum(1 for n in sizes if n > DEFAULT_SPLIT_THRESHOLD)
    return Workload("adhoc", seed, items, {
        "queries": count,
        "min_size": min(sizes),
        "max_size": max(sizes),
        "elements": sum(sizes),
        "share_above_split_threshold": above / count,
    })


# ---------------------------------------------------------------------------
# Reference and counter laws
# ---------------------------------------------------------------------------


def top_lambdas(query):
    return [s.fn if isinstance(s, Map) else s.predicate
            for s in query.stages if not isinstance(s, FlatMap)]


def inner_lambdas(query):
    for s in query.stages:
        if isinstance(s, FlatMap):
            return [t.fn if isinstance(t, Map) else t.predicate for t in s.stages]
    return []


@dataclass
class Reference:
    """What a correct run does: its value and the per-slot element flow."""

    value: int
    entered: list
    emitted: list
    instances: list
    flatmap_entered: int
    terminal_elements: int


_PY_OPS = {"add": "+", "sub": "-", "mul": "*", "eq": "==", "lt": "<"}


def _source(expr) -> str:
    """Python source for a stage lambda's tree: x is the parameter, c the capture."""
    kind = type(expr)
    if kind is Const:
        return repr(expr.value)
    if kind is Param:
        return "x"
    if kind is Capture:
        return "c"
    left, right = _source(expr.left), _source(expr.right)
    if kind is Cmp:
        return f"({left} {_PY_OPS[expr.op]} {right})"
    if expr.op == "mod":
        return f"mod({left}, {right})"
    return f"wrap({left} {_PY_OPS[expr.op]} {right})"


def _reference_fn(stage):
    """(is_map, f(x, c)): the stage lambda as a plain function, built by the
    benchmark from the tree and sharing no code with the engines' closures.
    The source comes only from validated trees: int literals and fixed ops."""
    body = stage.fn.body if isinstance(stage, Map) else stage.predicate.body
    return (isinstance(stage, Map),
            eval(f"lambda x, c=None: {_source(body)}", {"wrap": wrap_i64, "mod": mod_i64}))


def reference(query, datasets) -> Reference:
    """Walk the query element by element, counting per slot."""
    layout = layout_query(query)
    slots = len(layout.labels)
    entered, emitted, instances = [0] * slots, [0] * slots, [0] * slots
    instances[0] = 1
    for s in layout.top_slots:
        instances[s] = 1
    top = layout.top_slots
    steps = [None if isinstance(st, FlatMap) else _reference_fn(st) for st in query.stages]
    inner_steps, inner_values = [], None
    for st in query.stages:
        if isinstance(st, FlatMap):
            inner_steps = [_reference_fn(t) for t in st.stages]
            inner_values = dataset_values(resolve_dataset(datasets, st.inner_source))
    inner_src = layout.inner_source_slot
    inner_slots = layout.inner_slots
    out = [0, 0]  # sum, count

    def feed(v, pos):
        while pos < len(steps):
            slot = top[pos]
            entered[slot] += 1
            if steps[pos] is None:  # the flat-map
                for s in (inner_src, *inner_slots):
                    instances[s] += 1
                for u in inner_values:
                    emitted[inner_src] += 1
                    for (is_map, f), islot in zip(inner_steps, inner_slots):
                        entered[islot] += 1
                        if is_map:
                            u = f(u, v)
                        elif not f(u, v):
                            break
                        emitted[islot] += 1
                    else:
                        emitted[slot] += 1
                        feed(u, pos + 1)
                return
            is_map, f = steps[pos]
            if is_map:
                v = f(v)
            elif not f(v):
                return
            emitted[slot] += 1
            pos += 1
        out[0] += v
        out[1] += 1

    for v in dataset_values(resolve_dataset(datasets, query.source)):
        emitted[0] += 1
        feed(v, 0)
    fm = layout.flatmap_pos
    value = wrap_i64(out[0]) if query.terminal is Terminal.SUM else out[1]
    return Reference(value, entered, emitted, instances,
                     entered[top[fm]] if fm is not None else 0, out[1])


def _kinds(query):
    layout = layout_query(query)
    kinds = ["source"] * len(layout.labels)
    for pos, st in enumerate(query.stages):
        kinds[layout.top_slots[pos]] = type(st).__name__
        if isinstance(st, FlatMap):
            for islot, inner in zip(layout.inner_slots, st.stages):
                kinds[islot] = type(inner).__name__
    return kinds


def expected_stage_counts(engine: str, query, ref: Reference):
    """Per-slot (dispatches, applies) the counter laws require.

    pull: a cursor that emits k elements receives 2k+1 advance/get calls, so
    a slot pays 2*emitted + instances; a map applies once per get, a filter
    once per element entering.  push: one accept per element entering a
    stage, none at a source.  Fused engines count nothing.
    """
    kinds = _kinds(query)
    counts = []
    for slot, kind in enumerate(kinds):
        if engine == "pull":
            dispatches = 2 * ref.emitted[slot] + ref.instances[slot]
            applies = {"Map": ref.emitted[slot], "Filter": ref.entered[slot]}.get(kind, 0)
        else:
            dispatches = 0 if kind == "source" else ref.entered[slot]
            applies = ref.entered[slot] if kind in ("Map", "Filter") else 0
        counts.append((dispatches, applies))
    return counts


def check_counters(engine: str, counters: CounterSet, query, ref: Reference) -> bool:
    """True when a run's counters obey the laws for `engine`."""
    if engine in ("fused", "fused_par"):
        return (counters.control_dispatches == 0 and counters.lambda_applies == 0
                and counters.link_events == 0 and counters.instantiations == 0)
    if engine not in ("pull", "push", "push_par"):
        return True
    law = "pull" if engine == "pull" else "push"
    got = [(s.control_dispatches, s.lambda_applies) for s in counters.stages]
    if got != expected_stage_counts(law, query, ref):
        return False
    # Each push-par worker builds its own chain, so top-level sites link once
    # per worker; an inner site links in every worker that reached the
    # flat-map, which depends on scheduling, so only its range is fixed.
    copies = WORKERS if engine == "push_par" else 1
    for lam in top_lambdas(query):
        site = counters.sites.get(lam.site_id)
        if site is None or (site.link_events, site.instantiations) != (copies, copies):
            return False
    m = ref.flatmap_entered
    for lam in inner_lambdas(query):
        site = counters.sites.get(lam.site_id)
        links, inst = (site.link_events, site.instantiations) if site else (0, 0)
        if m == 0:
            ok = links == 0 and inst == 0
        else:
            ok = 1 <= links <= copies and inst == (m if lam.captures else links)
        if not ok:
            return False
    return True
