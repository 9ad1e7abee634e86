"""Push engine: split cursors, consumer chains, one crossing per element."""

import random

from conftest import engine_outcomes, random_pipeline
from streambench.counters import CounterSet
from streambench.exprs import Arith, Capture, Cmp, Const, Param
from streambench.lambdas import CallSiteCache, make_lambda
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
    ints_dataset,
    refs_dataset,
)

SQUARE = Arith("mul", Param(0), Param(0))
EVEN = Cmp("eq", Arith("mod", Param(0), Const(2)), Const(0))
SCALED = Arith("mul", Param(0), Capture(0))


class _Recorder:
    def __init__(self):
        self.seen = []

    def accept(self, v):
        self.seen.append(v)


def query_of(stages, terminal=Terminal.SUM):
    return build_query("src", stages, terminal)


class TestSplitCursor:
    def test_covers_whole_dataset(self):
        cur = SplitCursor(ints_dataset(range(10)))
        assert (cur.lo, cur.hi) == (0, 10)
        assert cur.estimate_size() == 10

    def test_split_takes_first_half(self):
        cur = SplitCursor(ints_dataset(range(10)))
        child = cur.try_split(threshold=4)
        assert (child.lo, child.hi) == (0, 5)
        assert (cur.lo, cur.hi) == (5, 10)
        assert child.data is cur.data

    def test_odd_sizes_round_down(self):
        cur = SplitCursor(ints_dataset(range(11)))
        child = cur.try_split(threshold=4)
        assert child.estimate_size() == 5
        assert cur.estimate_size() == 6

    def test_no_split_at_or_below_threshold(self):
        cur = SplitCursor(ints_dataset(range(10)))
        assert cur.try_split(threshold=10) is None
        assert cur.try_split(threshold=100) is None
        assert (cur.lo, cur.hi) == (0, 10)

    def test_split_after_partial_advance(self):
        cur = SplitCursor(ints_dataset(range(10)))
        rec = _Recorder()
        try_advance(cur, rec)
        try_advance(cur, rec)
        child = cur.try_split(threshold=4)
        assert (child.lo, child.hi) == (2, 6)
        assert (cur.lo, cur.hi) == (6, 10)


class TestDriving:
    def test_try_advance_one_at_a_time(self):
        cur = SplitCursor(ints_dataset([7, 8]))
        rec = _Recorder()
        assert try_advance(cur, rec) is True
        assert rec.seen == [7]
        assert try_advance(cur, rec) is True
        assert try_advance(cur, rec) is False
        assert rec.seen == [7, 8]

    def test_for_each_remaining_consumes(self):
        cur = SplitCursor(ints_dataset(range(5)))
        rec = _Recorder()
        for_each_remaining(cur, rec)
        assert rec.seen == [0, 1, 2, 3, 4]
        assert cur.estimate_size() == 0
        for_each_remaining(cur, rec)
        assert rec.seen == [0, 1, 2, 3, 4]

    def test_mixed_advance_then_bulk(self):
        cur = SplitCursor(ints_dataset(range(5)))
        rec = _Recorder()
        try_advance(cur, rec)
        for_each_remaining(cur, rec)
        assert rec.seen == [0, 1, 2, 3, 4]

    def test_refs_are_dereferenced(self):
        cur = SplitCursor(refs_dataset([4, 5]))
        rec = _Recorder()
        try_advance(cur, rec)
        for_each_remaining(cur, rec)
        assert rec.seen == [4, 5]


class TestConsumerChain:
    def test_single_element_through_chain(self):
        q = query_of([Filter(make_lambda(EVEN)), Map(make_lambda(SQUARE))])
        counters = CounterSet()
        chain, sink = build_chain(q, {"src": ints_dataset([])}, counters)
        chain.accept(4)
        assert sink.result() == 16
        chain.accept(3)
        assert sink.result() == 16
        assert counters.stages[1].lambda_applies == 2
        assert counters.stages[2].lambda_applies == 1

    def test_build_does_no_element_work(self):
        q = query_of([Filter(make_lambda(EVEN)), Map(make_lambda(SQUARE))])
        counters = CounterSet()
        build_chain(q, {"src": ints_dataset(range(100))}, counters)
        assert counters.control_dispatches == 0
        assert counters.lambda_applies == 0

    def test_sum_and_count(self):
        stages = [Filter(make_lambda(EVEN)), Map(make_lambda(SQUARE))]
        ds = {"src": ints_dataset(range(10))}
        assert run_push(query_of(stages), ds) == 120
        assert run_push(query_of(stages, Terminal.COUNT), ds) == 5

    def test_sum_wraps(self):
        big = (1 << 63) - 1
        assert run_push(query_of([]), {"src": ints_dataset([big, 1])}) == -(1 << 63)

    def test_refs_source(self):
        q = query_of([Map(make_lambda(SQUARE))])
        assert run_push(q, {"src": refs_dataset([1, 2, 3])}) == 14


class TestDispatchLaw:
    """A push stage entered by k elements is crossed exactly k times."""

    def test_linear_pipeline(self):
        q = query_of([Filter(make_lambda(EVEN)), Map(make_lambda(SQUARE))])
        counters = CounterSet()
        run_push(q, {"src": ints_dataset(range(10))}, counters)
        entering = {"source": 0, "0:filter": 10, "1:map": 5}
        for stage in counters.stages:
            assert stage.control_dispatches == entering[stage.label], stage.label
        assert counters.stages[1].lambda_applies == 10
        assert counters.stages[2].lambda_applies == 5

    def test_source_never_crossed(self):
        # internal iteration: the source owns the loop, nothing calls into it
        counters = CounterSet()
        run_push(query_of([Map(make_lambda(SQUARE))]),
                 {"src": ints_dataset(range(100))}, counters)
        assert counters.stages[0].control_dispatches == 0
        assert counters.stages[1].control_dispatches == 100


class TestFlatMap:
    def make_cart(self, outer, inner):
        fm = FlatMap("inner", (Map(make_lambda(SCALED, captures=1)),))
        q = build_query("outer", [fm], Terminal.SUM)
        return q, {"outer": ints_dataset(outer), "inner": ints_dataset(inner)}

    def test_cross_product_sum(self):
        q, ds = self.make_cart([1, 2, 3], [10, 20])
        assert run_push(q, ds) == 180

    def test_inner_loop_is_fused_into_accept(self):
        q, ds = self.make_cart([1, 2, 3], [10, 20])
        counters = CounterSet()
        run_push(q, ds, counters)
        by_label = {s.label: s for s in counters.stages}
        assert by_label["0:flat_map"].control_dispatches == 3
        # no inner cursor exists; the inner source slot never gets crossed
        assert by_label["0.inner:source"].control_dispatches == 0
        assert by_label["0.inner.0:map"].control_dispatches == 6
        assert by_label["0.inner.0:map"].lambda_applies == 6

    def test_inner_rebinds_per_outer(self):
        q, ds = self.make_cart([1, 2, 3], [10, 20])
        counters = CounterSet()
        cache = CallSiteCache(counters)
        chain, sink = build_chain(q, ds, counters, cache)
        for_each_remaining(SplitCursor(ds["outer"]), chain)
        site_id = q.stages[0].stages[0].fn.site_id
        assert cache.stats(site_id) == (1, 3)
        assert sink.result() == 180

    def test_empty_inner(self):
        q, ds = self.make_cart([1, 2, 3], [])
        assert run_push(q, ds) == 0

    def test_refs_inner_rows_are_read_on_every_walk(self):
        fm = FlatMap("inner", (Map(make_lambda(SCALED, captures=1)),))
        q = build_query("outer", [fm], Terminal.SUM)
        ds = {"outer": ints_dataset([1, 2]), "inner": refs_dataset([10, 20])}
        chain, sink = build_chain(q, ds, CounterSet())
        cursor = SplitCursor(ds["outer"])
        assert try_advance(cursor, chain)
        assert sink.result() == 1 * (10 + 20)
        ds["inner"].data[0].value = 100  # between two outer elements
        assert try_advance(cursor, chain)
        assert sink.result() == 1 * (10 + 20) + 2 * (100 + 20)


class TestAgainstOracle:
    def test_random_pipelines(self):
        rng = random.Random(5678)
        for _ in range(60):
            query, datasets = random_pipeline(rng)
            outcomes = engine_outcomes(query, datasets)
            assert outcomes["push"] == outcomes["oracle"]
