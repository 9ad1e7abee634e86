"""Pull engine: cursor protocol, laziness, and the 2k+1 dispatch law."""

import random

import pytest

from conftest import engine_outcomes, random_pipeline
from streambench.counters import CounterSet
from streambench.errors import GetBeforeAdvance, UnresolvedDataset
from streambench.exprs import Arith, Capture, Cmp, Const, Param
from streambench.lambdas import CallSiteCache, make_lambda
from streambench.pull import open_chain, run_pull
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


def query_of(stages, terminal=Terminal.SUM):
    return build_query("src", stages, terminal)


class TestCursorProtocol:
    def test_map_advance_get_interleave(self):
        q = query_of([Map(make_lambda(SQUARE))])
        chain = open_chain(q, {"src": ints_dataset([1, 2, 3])}, CounterSet())
        seen = []
        while chain.advance():
            seen.append(chain.get())
        assert seen == [1, 4, 9]
        assert chain.advance() is False

    def test_filter_that_drops_everything(self):
        q = query_of([Filter(make_lambda(EVEN))])
        counters = CounterSet()
        chain = open_chain(q, {"src": ints_dataset([1, 3, 5])}, counters)
        assert chain.advance() is False
        # one advance seen by the filter; the source was drained looking
        assert counters.stages[1].control_dispatches == 1
        assert counters.stages[1].lambda_applies == 3
        assert counters.stages[0].control_dispatches == 4 + 3

    def test_get_before_first_advance(self):
        q = query_of([])
        chain = open_chain(q, {"src": ints_dataset([1])}, CounterSet())
        with pytest.raises(GetBeforeAdvance):
            chain.get()

    def test_get_after_exhaustion(self):
        for stages in ([], [Map(make_lambda(SQUARE))], [Filter(make_lambda(EVEN))]):
            chain = open_chain(query_of(stages),
                               {"src": ints_dataset([2])}, CounterSet())
            assert chain.advance() is True
            chain.get()
            assert chain.advance() is False
            with pytest.raises(GetBeforeAdvance):
                chain.get()

    def test_repeated_get_is_stable(self):
        chain = open_chain(query_of([]), {"src": ints_dataset([7])}, CounterSet())
        chain.advance()
        assert chain.get() == 7
        assert chain.get() == 7

    def test_open_chain_is_lazy(self):
        q = query_of([Filter(make_lambda(EVEN)), Map(make_lambda(SQUARE))])
        counters = CounterSet()
        open_chain(q, {"src": ints_dataset(range(100))}, counters)
        # no element work; the two non-capturing sites do link at build time
        assert counters.control_dispatches == 0
        assert counters.lambda_applies == 0
        assert counters.link_events == 2
        assert counters.instantiations == 2

    @pytest.mark.parametrize("stages", [[], [Map(make_lambda(SQUARE))],
                                        [Filter(make_lambda(EVEN))],
                                        [FlatMap("inner", ())]])
    def test_drained_chain_does_not_restart(self, stages):
        counters = CounterSet()
        ds = {"src": ints_dataset([2, 4]), "inner": ints_dataset([5])}
        chain = open_chain(query_of(stages), ds, counters)
        seen = []
        while chain.advance():
            seen.append(chain.get())
        assert [chain.advance() for _ in range(3)] == [False] * 3
        with pytest.raises(GetBeforeAdvance):
            chain.get()
        assert len(seen) == 2
        # the source emitted its two rows once and failed four times; with
        # no stage, the driver's last get lands on it too
        assert counters.stages[0].control_dispatches == 2 * 2 + 4 + (not stages)

    def test_refs_source_dereferences(self):
        chain = open_chain(query_of([]), {"src": refs_dataset([5, 6])}, CounterSet())
        chain.advance()
        assert chain.get() == 5

    def test_unknown_source(self):
        with pytest.raises(UnresolvedDataset):
            open_chain(query_of([]), {}, CounterSet())


class TestTerminals:
    def test_sum(self):
        q = query_of([Filter(make_lambda(EVEN)), Map(make_lambda(SQUARE))])
        assert run_pull(q, {"src": ints_dataset(range(10))}) == 120

    def test_sum_wraps(self):
        big = (1 << 63) - 1
        q = query_of([])
        assert run_pull(q, {"src": ints_dataset([big, 1])}) == -(1 << 63)

    def test_count(self):
        q = query_of([Filter(make_lambda(EVEN))], Terminal.COUNT)
        assert run_pull(q, {"src": ints_dataset(range(10))}) == 5

    def test_count_still_applies_maps(self):
        q = query_of([Map(make_lambda(SQUARE))], Terminal.COUNT)
        counters = CounterSet()
        assert run_pull(q, {"src": ints_dataset(range(7))}, counters) == 7
        assert counters.stages[1].lambda_applies == 7

    def test_empty_source(self):
        assert run_pull(query_of([]), {"src": ints_dataset([])}) == 0
        q = query_of([], Terminal.COUNT)
        assert run_pull(q, {"src": ints_dataset([])}) == 0


class TestDispatchLaw:
    """A pull stage that emits k elements is crossed 2k+1 times."""

    def test_linear_pipeline(self):
        q = query_of([Filter(make_lambda(EVEN)), Map(make_lambda(SQUARE))])
        counters = CounterSet()
        run_pull(q, {"src": ints_dataset(range(10))}, counters)
        emitted = {"source": 10, "0:filter": 5, "1:map": 5}
        for stage in counters.stages:
            assert stage.control_dispatches == 2 * emitted[stage.label] + 1, stage.label

    def test_map_only(self):
        q = query_of([Map(make_lambda(SQUARE))])
        counters = CounterSet()
        run_pull(q, {"src": ints_dataset(range(8))}, counters)
        assert [s.control_dispatches for s in counters.stages] == [17, 17]

    def test_empty_source_is_one_crossing(self):
        counters = CounterSet()
        run_pull(query_of([Map(make_lambda(SQUARE))]),
                 {"src": ints_dataset([])}, counters)
        assert [s.control_dispatches for s in counters.stages] == [1, 1]

    def test_applies_equal_survivor_counts(self):
        q = query_of([Filter(make_lambda(EVEN)), Map(make_lambda(SQUARE))])
        counters = CounterSet()
        run_pull(q, {"src": ints_dataset(range(10))}, counters)
        assert counters.stages[1].lambda_applies == 10
        assert counters.stages[2].lambda_applies == 5


class TestFlatMap:
    def make_cart(self, outer, inner, terminal=Terminal.SUM):
        fm = FlatMap("inner", (Map(make_lambda(SCALED, captures=1)),))
        q = build_query("outer", [fm], terminal)
        return q, {"outer": ints_dataset(outer), "inner": ints_dataset(inner)}

    def test_cross_product_sum(self):
        q, ds = self.make_cart([1, 2, 3], [10, 20])
        assert run_pull(q, ds) == 180

    def test_inner_rebinds_per_outer(self):
        q, ds = self.make_cart([1, 2, 3], [10, 20])
        counters = CounterSet()
        cache = CallSiteCache(counters)
        chain = open_chain(q, ds, counters, cache)
        while chain.advance():
            chain.get()
        site_id = q.stages[0].stages[0].fn.site_id
        assert cache.stats(site_id) == (1, 3)

    def test_flatmap_dispatch_accounting(self):
        q, ds = self.make_cart([1, 2, 3], [10, 20])
        counters = CounterSet()
        run_pull(q, ds, counters)
        by_label = {s.label: s for s in counters.stages}
        # top level obeys 2k+1; six elements leave the flat-map
        assert by_label["source"].control_dispatches == 2 * 3 + 1
        assert by_label["0:flat_map"].control_dispatches == 2 * 6 + 1
        # the inner chain is rebuilt per outer element, so its slots pay
        # 2k + one extra crossing per rebuild
        assert by_label["0.inner:source"].control_dispatches == 2 * 6 + 3
        assert by_label["0.inner.0:map"].lambda_applies == 6

    def test_inner_rows_are_boxed_once_per_chain(self):
        q = build_query("outer", [FlatMap("inner", ())], Terminal.SUM)
        ds = {"outer": ints_dataset([1, 2]), "inner": ints_dataset([1000, 2000, 3000])}
        chain = open_chain(q, ds, CounterSet())
        rows = []
        while chain.advance():
            rows.append(chain.get())
        assert rows == [1000, 2000, 3000] * 2
        # the second outer element reads the very objects the first one did
        assert all(a is b for a, b in zip(rows[:3], rows[3:]))

    def test_refs_inner_rows_are_read_on_every_get(self):
        q = build_query("outer", [FlatMap("inner", ())], Terminal.SUM)
        inner = refs_dataset([10, 20])
        chain = open_chain(q, {"outer": ints_dataset([1, 2]), "inner": inner},
                           CounterSet())
        assert [chain.advance() and chain.get() for _ in range(2)] == [10, 20]
        inner.data[0].value = 99
        assert [chain.advance() and chain.get() for _ in range(2)] == [99, 20]
        assert chain.advance() is False

    def test_empty_inner(self):
        q, ds = self.make_cart([1, 2, 3], [])
        assert run_pull(q, ds) == 0

    def test_inner_filter_uses_outer_capture(self):
        keep_multiples = make_lambda(
            Cmp("eq", Arith("mod", Param(0), Capture(0)), Const(0)), captures=1)
        fm = FlatMap("inner", (Filter(keep_multiples),))
        q = build_query("outer", [fm], Terminal.SUM)
        ds = {"outer": ints_dataset([2, 3]), "inner": ints_dataset([2, 3, 4, 6])}
        # outer 2 keeps 2,4,6; outer 3 keeps 3,6
        assert run_pull(q, ds) == 12 + 9


class TestAgainstOracle:
    def test_random_pipelines(self):
        rng = random.Random(1234)
        for _ in range(60):
            query, datasets = random_pipeline(rng)
            outcomes = engine_outcomes(query, datasets)
            assert outcomes["pull"] == outcomes["oracle"]
