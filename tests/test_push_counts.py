"""Push counts by flow law: per-stage counts equal an element-by-element walk.

Push counts only where the element flow starts or changes (the chain's head,
each filter's passes, a flat-map's inner source) and derives every other
count when it is read.  These tests hold the derived counts to the law: a
map or filter slot reads (entered, entered), a flat-map slot (entered, 0),
a source slot (0, 0).
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pipeline
from streambench import parallel
from streambench.counters import CounterSet
from streambench.errors import DivisionByZero, StreamError
from streambench.exprs import Arith, Capture, Cmp, Const, Param, eval_scalar, wrap_i64
from streambench.lambdas import make_lambda
from streambench.parallel import ParallelConfig, run_parallel
from streambench.push import (
    SplitCursor,
    build_chain,
    for_each_remaining,
    run_push,
    try_advance,
)
from streambench.query import (
    Filter,
    FlatMap,
    Map,
    Terminal,
    build_query,
    dataset_values,
    ints_dataset,
    layout_query,
    refs_dataset,
    resolve_dataset,
)
from streambench.suite import oracle_run

SQUARE = Arith("mul", Param(0), Param(0))
EVEN = Cmp("eq", Arith("mod", Param(0), Const(2)), Const(0))
SCALED = Arith("mul", Param(0), Capture(0))
BELOW_CAPTURE = Cmp("lt", Param(0), Capture(0))
MOD_ZERO = Arith("mod", Param(0), Const(0))


def _inner(*stages):
    return FlatMap("inner", stages)


# Every kind of stage that can sit next to the terminal, whose accept then
# holds the terminal's fold: a last map or filter, at top level or ending a
# flat-map; and the shapes that keep the terminal's own accept.  Each entry
# builds fresh lambdas; the mod-0 shapes raise on the first element that
# reaches their last stage.
TERMINAL_SHAPES = {
    "no-stages": lambda: [],
    "last-map": lambda: [Filter(make_lambda(EVEN)), Map(make_lambda(SQUARE))],
    "last-filter": lambda: [Map(make_lambda(SQUARE)), Filter(make_lambda(EVEN))],
    "flat-map-ending-in-map": lambda: [
        Filter(make_lambda(EVEN)),
        _inner(Filter(make_lambda(BELOW_CAPTURE, captures=1)),
               Map(make_lambda(SCALED, captures=1)))],
    "flat-map-ending-in-filter": lambda: [
        _inner(Map(make_lambda(SCALED, captures=1)),
               Filter(make_lambda(BELOW_CAPTURE, captures=1)))],
    "flat-map-without-stages": lambda: [Map(make_lambda(SQUARE)), _inner()],
    "last-map-mod-0": lambda: [Filter(make_lambda(EVEN)), Map(make_lambda(MOD_ZERO))],
    "flat-map-ending-in-map-mod-0": lambda: [
        _inner(Filter(make_lambda(BELOW_CAPTURE, captures=1)), Map(make_lambda(MOD_ZERO)))],
}


def push_law(query, datasets):
    """(value, per-slot (dispatches, applies)) from an element-by-element walk."""
    layout = layout_query(query)
    entered = [0] * len(layout.labels)
    out = []

    def top(v, pos):
        while pos < len(query.stages):
            stage = query.stages[pos]
            entered[layout.top_slots[pos]] += 1
            if isinstance(stage, FlatMap):
                inner = dataset_values(resolve_dataset(datasets, stage.inner_source))
                for u in inner:
                    for istage, islot in zip(stage.stages, layout.inner_slots):
                        entered[islot] += 1
                        if isinstance(istage, Map):
                            u = eval_scalar(istage.fn.body, (u,), (v,))
                        elif not eval_scalar(istage.predicate.body, (u,), (v,)):
                            break
                    else:
                        top(u, pos + 1)
                return
            if isinstance(stage, Map):
                v = eval_scalar(stage.fn.body, (v,))
            elif not eval_scalar(stage.predicate.body, (v,)):
                return
            pos += 1
        out.append(v)

    for v in dataset_values(resolve_dataset(datasets, query.source)):
        top(v, 0)
    value = wrap_i64(sum(out)) if query.terminal is Terminal.SUM else len(out)
    kinds = {slot: type(stage) for slot, stage in zip(layout.top_slots, query.stages)}
    for stage in query.stages:
        if isinstance(stage, FlatMap):
            kinds.update((slot, type(s)) for slot, s in zip(layout.inner_slots, stage.stages))
    law = []
    for slot, n in enumerate(entered):
        kind = kinds.get(slot)
        law.append((n, 0) if kind is FlatMap else (n, n) if kind else (0, 0))
    return value, law


def stage_counts(counters):
    return [(s.control_dispatches, s.lambda_applies) for s in counters.stages]


@st.composite
def pipelines(draw):
    """The conftest grammar, with ints or refs sources and either terminal."""
    query, datasets = random_pipeline(draw(st.randoms(use_true_random=False)))
    terminal = draw(st.sampled_from((Terminal.SUM, Terminal.COUNT)))
    query = build_query(query.source, query.stages, terminal)
    for name in list(datasets):
        if draw(st.booleans()):
            datasets[name] = refs_dataset(dataset_values(datasets[name]))
    return query, datasets


def stepped(query, datasets, counters):
    """Push one element at a time, reading the counters after each."""
    head, sink = build_chain(query, datasets, counters)
    cursor = SplitCursor(resolve_dataset(datasets, query.source))
    while try_advance(cursor, head):
        stage_counts(counters)
    return sink.result()


def chained(query, datasets, counters):
    """Push the whole source through build_chain's head in one range."""
    head, sink = build_chain(query, datasets, counters)
    for_each_remaining(SplitCursor(resolve_dataset(datasets, query.source)), head)
    return sink.result()


def runs(query, datasets):
    """(engine, run) for push, for build_chain's head driven over the whole
    source, for push read after every element, and for push-par at 1, 2 and
    4 workers, inline."""
    yield "push", lambda c: run_push(query, datasets, c)
    yield "push/chain", lambda c: chained(query, datasets, c)
    yield "push/stepped", lambda c: stepped(query, datasets, c)
    for workers in (1, 2, 4):
        config = ParallelConfig(workers=workers, split_threshold=5)
        yield f"push-par/{workers}", lambda c, config=config: run_parallel(
            query, datasets, config, c)


class TestFlowLaw:
    @settings(max_examples=150, deadline=None)
    @given(pipelines())
    def test_counts_equal_the_walk(self, pipeline):
        query, datasets = pipeline
        try:
            want, law = push_law(query, datasets)
        except StreamError as exc:
            want, law = type(exc), None
        for engine, run in runs(query, datasets):
            counters = CounterSet()
            try:
                got = run(counters)
            except StreamError as exc:
                assert type(exc) is want, engine
                continue
            assert got == want, engine
            assert stage_counts(counters) == law, engine

    def test_flat_map_with_inner_filter(self):
        fm = FlatMap("inner", (Filter(make_lambda(BELOW_CAPTURE, captures=1)),
                               Map(make_lambda(SCALED, captures=1))))
        q = build_query("outer", [Filter(make_lambda(EVEN)), fm,
                                  Map(make_lambda(SQUARE))], Terminal.COUNT)
        for outer in (ints_dataset, refs_dataset):
            for inner in (ints_dataset, refs_dataset):
                ds = {"outer": outer(range(10)), "inner": inner(range(6))}
                want, law = push_law(q, ds)
                # 5 even outer values reach the flat-map, each starting 6 inner
                # elements; y < x passes 0, 2, 4, 6 and 6 of them
                assert law == [(0, 0), (10, 10), (5, 0), (18, 18), (0, 0),
                               (30, 30), (18, 18)]
                for engine, run in runs(q, ds):
                    counters = CounterSet()
                    assert run(counters) == want == 18, engine
                    assert stage_counts(counters) == law, engine

    @pytest.mark.parametrize("terminal", [Terminal.SUM, Terminal.COUNT])
    @pytest.mark.parametrize("shape", list(TERMINAL_SHAPES))
    def test_stage_next_to_the_terminal(self, shape, terminal):
        # the last stage folds the terminal into its accept; values, errors
        # and counts stay the oracle's and the walk's
        q = build_query("src", TERMINAL_SHAPES[shape](), terminal)
        ds = {"src": ints_dataset(range(-9, 12)), "inner": ints_dataset([-4, 0, 3, 7])}
        if shape.endswith("mod-0"):
            with pytest.raises(DivisionByZero):
                oracle_run(q, ds)
            for engine, run in runs(q, ds):
                with pytest.raises(DivisionByZero):
                    run(CounterSet())
            return
        want, law = push_law(q, ds)
        assert want == oracle_run(q, ds)
        for engine, run in runs(q, ds):
            counters = CounterSet()
            assert run(counters) == want, engine
            assert stage_counts(counters) == law, engine


class TestLiveCounters:
    def query(self):
        return build_query("src", [Filter(make_lambda(EVEN)),
                                   Map(make_lambda(SQUARE))], Terminal.SUM)

    def test_counter_set_reused_across_runs_adds(self):
        q = self.query()
        ds = {"src": ints_dataset(range(10))}
        counters = CounterSet()
        run_push(q, ds, counters)
        run_push(q, {"src": refs_dataset(range(4))}, counters)
        assert stage_counts(counters) == [(0, 0), (14, 14), (7, 7)]
        run_parallel(q, ds, ParallelConfig(workers=2, split_threshold=3), counters)
        assert stage_counts(counters) == [(0, 0), (24, 24), (12, 12)]

    def test_pickle_and_merge_carry_the_totals(self):
        q = self.query()
        counters = CounterSet()
        head, _ = build_chain(q, {"src": ints_dataset([])}, counters)
        for_each_remaining(SplitCursor(ints_dataset(range(10))), head)
        assert stage_counts(counters) == [(0, 0), (10, 10), (5, 5)]
        copy = pickle.loads(pickle.dumps(counters))
        assert stage_counts(copy) == stage_counts(counters)
        assert repr(copy) == repr(counters)
        merged = CounterSet()
        merged.merge(counters)
        merged.merge(counters)
        assert stage_counts(merged) == [(0, 0), (20, 20), (10, 10)]
        # the live counters keep counting; the copies hold what they read
        head.accept(2)
        assert stage_counts(counters) == [(0, 0), (11, 11), (6, 6)]
        assert stage_counts(copy) == [(0, 0), (10, 10), (5, 5)]
        counters.merge(copy)
        assert stage_counts(counters) == [(0, 0), (21, 21), (11, 11)]

    def test_assignment_over_a_live_flow(self):
        q = self.query()
        counters = CounterSet()
        head, _ = build_chain(q, {"src": ints_dataset([])}, counters)
        for v in (1, 2, 3):
            head.accept(v)
        stage = counters.stages[1]
        stage.lambda_applies += 1
        assert (stage.control_dispatches, stage.lambda_applies) == (3, 4)
        stage.control_dispatches = 0
        head.accept(4)
        stage = counters.stages[1]
        assert (stage.control_dispatches, stage.lambda_applies) == (1, 5)

    @pytest.mark.parametrize("make", [ints_dataset, refs_dataset])
    def test_range_past_the_end_counts_what_exists(self, make):
        q = self.query()
        ds = make(range(6))
        for lo, hi in ((0, 9), (4, 9), (7, 9), (3, 2), (-2, 9)):
            counters = CounterSet()
            head, sink = build_chain(q, {"src": ds}, counters)
            for_each_remaining(SplitCursor(ds, lo, hi), head)
            values = list(range(6))[lo:hi]
            evens = [v for v in values if v % 2 == 0]
            assert sink.result() == sum(v * v for v in evens)
            assert stage_counts(counters) == [
                (0, 0), (len(values), len(values)), (len(evens), len(evens))]
            # one element at a time: True once per row that exists
            counters = CounterSet()
            head, sink = build_chain(q, {"src": ds}, counters)
            cursor = SplitCursor(ds, lo, hi)
            advanced = 0
            while try_advance(cursor, head):
                advanced += 1
            assert advanced == len(values)
            assert sink.result() == sum(v * v for v in evens)
            assert stage_counts(counters) == [
                (0, 0), (len(values), len(values)), (len(evens), len(evens))]


    @pytest.mark.parametrize("inner_rows", [[-4, 0, 3], []])
    def test_derived_inner_source_after_every_step(self, inner_rows):
        # the flow into the first inner stage is len(inner) rows for each
        # element entering the flat-map, derived when the counters are read
        fm = FlatMap("inner", (Filter(make_lambda(BELOW_CAPTURE, captures=1)),
                               Map(make_lambda(SCALED, captures=1))))
        q = build_query("src", [Filter(make_lambda(EVEN)), fm], Terminal.SUM)
        rows = list(range(-3, 6))
        inner = ints_dataset(inner_rows)
        counters = CounterSet()
        head, sink = build_chain(q, {"src": ints_dataset(rows), "inner": inner}, counters)
        cursor = SplitCursor(ints_dataset(rows))
        for k in range(1, len(rows) + 1):
            assert try_advance(cursor, head)
            want, law = push_law(q, {"src": ints_dataset(rows[:k]), "inner": inner})
            assert sink.result() == want
            assert stage_counts(counters) == law
            assert stage_counts(pickle.loads(pickle.dumps(counters))) == law
            merged = CounterSet()
            merged.merge(counters)
            assert stage_counts(merged) == law
        assert not try_advance(cursor, head)
        # four even rows reach the flat-map: -2, 0, 2 and 4
        assert counters.stages[4].label == "1.inner.0:filter"
        assert stage_counts(counters)[4][0] == 4 * len(inner_rows)


class TestResolvedWorkers:
    def test_counts_the_cores_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        assert ParallelConfig().resolved_workers() == 1
        assert ParallelConfig(workers=3).resolved_workers() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert ParallelConfig().resolved_workers() == 1
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 6)
        assert ParallelConfig().resolved_workers() == 6
