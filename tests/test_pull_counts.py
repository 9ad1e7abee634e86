"""Pull counts by flow law: per-stage counts equal an element-by-element walk.

Pull counts only where the element flow starts or changes (a source's failed
advances, a filter's passes and failed advances, a flat-map's failed
advances) and derives every other count when it is read.  These tests hold
the derived counts to the law: a cursor that emits k elements receives k+1
advances and k gets each time it is drained, so a slot reads 2k plus one
per drain; a map applies once per element it emits, a filter once per
element that enters it.  Partial drives keep exact counts too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pipeline
from streambench.counters import CounterSet
from streambench.errors import GetBeforeAdvance, StreamError
from streambench.exprs import Arith, Capture, Cmp, Const, Param, eval_scalar, wrap_i64
from streambench.lambdas import make_lambda
from streambench.pull import open_chain, run_pull
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

SQUARE = Arith("mul", Param(0), Param(0))
EVEN = Cmp("eq", Arith("mod", Param(0), Const(2)), Const(0))
SCALED = Arith("mul", Param(0), Capture(0))
BELOW_CAPTURE = Cmp("lt", Param(0), Capture(0))


def pull_law(query, datasets):
    """(value, per-slot (dispatches, applies)) from an element-by-element walk."""
    layout = layout_query(query)
    slots = len(layout.labels)
    entered, emitted, drains = [0] * slots, [0] * slots, [0] * slots
    drains[0] = 1
    for slot in layout.top_slots:
        drains[slot] = 1
    out = []

    def top(v, pos):
        while pos < len(query.stages):
            stage, slot = query.stages[pos], layout.top_slots[pos]
            entered[slot] += 1
            if isinstance(stage, FlatMap):
                inner_ids = (layout.inner_source_slot, *layout.inner_slots)
                for islot in inner_ids:
                    drains[islot] += 1
                for u in dataset_values(resolve_dataset(datasets, stage.inner_source)):
                    emitted[inner_ids[0]] += 1
                    for istage, islot in zip(stage.stages, layout.inner_slots):
                        entered[islot] += 1
                        if isinstance(istage, Map):
                            u = eval_scalar(istage.fn.body, (u,), (v,))
                        elif not eval_scalar(istage.predicate.body, (u,), (v,)):
                            break
                        emitted[islot] += 1
                    else:
                        emitted[slot] += 1
                        top(u, pos + 1)
                return
            if isinstance(stage, Map):
                v = eval_scalar(stage.fn.body, (v,))
            elif not eval_scalar(stage.predicate.body, (v,)):
                return
            emitted[slot] += 1
            pos += 1
        out.append(v)

    for v in dataset_values(resolve_dataset(datasets, query.source)):
        emitted[0] += 1
        top(v, 0)
    value = wrap_i64(sum(out)) if query.terminal is Terminal.SUM else len(out)
    kinds = {slot: type(stage) for slot, stage in zip(layout.top_slots, query.stages)}
    for stage in query.stages:
        if isinstance(stage, FlatMap):
            kinds.update((slot, type(s)) for slot, s in zip(layout.inner_slots, stage.stages))
    law = []
    for slot in range(slots):
        applies = {Map: emitted[slot], Filter: entered[slot]}.get(kinds.get(slot), 0)
        law.append((2 * emitted[slot] + drains[slot], applies))
    return value, law


def stage_counts(counters):
    return [(s.control_dispatches, s.lambda_applies) for s in counters.stages]


def drained(query, datasets, counters):
    """Drive open_chain's chain to exhaustion as run_pull does."""
    chain = open_chain(query, datasets, counters)
    out = []
    while chain.advance():
        out.append(chain.get())
    return wrap_i64(sum(out)) if query.terminal is Terminal.SUM else len(out)


def stepped(query, datasets, counters):
    """drained, reading the counters after every advance and get."""
    chain = open_chain(query, datasets, counters)
    out = []
    while chain.advance():
        stage_counts(counters)
        out.append(chain.get())
        stage_counts(counters)
    stage_counts(counters)
    return wrap_i64(sum(out)) if query.terminal is Terminal.SUM else len(out)


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


class TestFlowLaw:
    @settings(max_examples=150, deadline=None)
    @given(pipelines())
    def test_counts_equal_the_walk(self, pipeline):
        query, datasets = pipeline
        try:
            want, law = pull_law(query, datasets)
        except StreamError as exc:
            want, law = type(exc), None
        for engine, run in (("run_pull", lambda c: run_pull(query, datasets, c)),
                            ("open_chain", lambda c: drained(query, datasets, c)),
                            ("stepped", lambda c: stepped(query, datasets, c))):
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
                want, law = pull_law(q, ds)
                # 5 even outer values reach the flat-map, each draining 6
                # inner elements; y < x passes 0, 2, 4, 6 and 6 of them
                assert law == [(21, 0), (11, 10), (37, 0), (37, 18), (65, 0),
                               (41, 30), (41, 18)]
                for run in (run_pull, drained):
                    counters = CounterSet()
                    assert run(q, ds, counters) == want == 18
                    assert stage_counts(counters) == law


def chain_of(stages, data, counters, inner=None):
    ds = {"src": ints_dataset(data)}
    if inner is not None:
        ds["inner"] = ints_dataset(inner)
    return open_chain(build_query("src", stages, Terminal.SUM), ds, counters)


class TestPartialDrives:
    def test_get_before_advance(self):
        counters = CounterSet()
        chain = chain_of([Filter(make_lambda(EVEN)), Map(make_lambda(SQUARE))],
                         [1, 2, 3, 4], counters)
        with pytest.raises(GetBeforeAdvance):
            chain.get()
        # a get that finds no element counts at the cursor it was made on
        assert stage_counts(counters) == [(0, 0), (0, 0), (1, 0)]
        assert chain.advance() is True
        assert chain.get() == 4
        # the source moved past 1 and 2; the filter tested both
        assert stage_counts(counters) == [(4, 0), (2, 2), (3, 1)]

    def test_get_before_advance_on_each_kind(self):
        for stages, inner in (([], None), ([Filter(make_lambda(EVEN))], None),
                              ([FlatMap("inner", ())], [5])):
            counters = CounterSet()
            chain = chain_of(stages, [2], counters, inner)
            with pytest.raises(GetBeforeAdvance):
                chain.get()
            assert counters.stages[len(stages)].control_dispatches == 1
            assert counters.control_dispatches == 1

    def test_repeated_get(self):
        counters = CounterSet()
        chain = chain_of([Map(make_lambda(SQUARE))], [3, 4], counters)
        assert chain.advance() is True
        assert [chain.get() for _ in range(3)] == [9, 9, 9]
        # each get of the map is one get of the source and one apply
        assert stage_counts(counters) == [(4, 0), (4, 3)]

    def test_repeated_advance_after_exhaustion(self):
        counters = CounterSet()
        chain = chain_of([Map(make_lambda(SQUARE))], [3], counters)
        assert [chain.advance() for _ in range(4)] == [True, False, False, False]
        with pytest.raises(GetBeforeAdvance):
            chain.get()
        assert stage_counts(counters) == [(4, 0), (5, 0)]

    def test_repeated_advance_after_exhaustion_through_a_flat_map(self):
        counters = CounterSet()
        fm = FlatMap("inner", (Filter(make_lambda(BELOW_CAPTURE, captures=1)),))
        chain = chain_of([fm], [1, 3], counters, [0, 1, 2])
        seen = []
        while chain.advance():
            seen.append(chain.get())
        assert seen == [0, 0, 1, 2]
        for _ in range(3):
            assert chain.advance() is False
        with pytest.raises(GetBeforeAdvance):
            chain.get()
        by_label = {s.label: (s.control_dispatches, s.lambda_applies)
                    for s in counters.stages}
        # the extra advances reach the outer source only, not the drained inner chain
        assert by_label == {
            "source": (2 * 2 + 4, 0),
            "0:flat_map": (5 + 3 + 4 + 1, 0),
            "0.inner:source": (2 * 6 + 2, 0),
            "0.inner.0:filter": (2 * 4 + 2, 6),
        }

    def test_partial_flat_map_drive(self):
        counters = CounterSet()
        fm = FlatMap("inner", (Map(make_lambda(SCALED, captures=1)),))
        chain = chain_of([fm], [1, 2, 3], counters, [10, 20])
        for want in (10, 20, 20):
            assert chain.advance() is True
            assert chain.get() == want
        by_label = {s.label: (s.control_dispatches, s.lambda_applies)
                    for s in counters.stages}
        # two outer elements opened; the second inner source is mid-way
        assert by_label == {
            "source": (4, 0),
            "0:flat_map": (6, 0),
            "0.inner:source": (3 + 1 + 3, 0),
            "0.inner.0:map": (3 + 1 + 3, 3),
        }

    def test_filter_that_drops_everything(self):
        counters = CounterSet()
        chain = chain_of([Filter(make_lambda(EVEN)), Map(make_lambda(SQUARE))],
                         [1, 3, 5], counters)
        assert chain.advance() is False
        assert chain.advance() is False
        # the second advance finds the source already drained
        assert stage_counts(counters) == [(3 + 5, 0), (2, 3), (2, 0)]


class TestReuse:
    def test_counter_set_reused_across_runs_adds(self):
        q = build_query("src", [Filter(make_lambda(EVEN)), Map(make_lambda(SQUARE))],
                        Terminal.SUM)
        counters = CounterSet()
        assert run_pull(q, {"src": ints_dataset(range(10))}, counters) == 120
        assert stage_counts(counters) == [(21, 0), (11, 10), (11, 5)]
        assert run_pull(q, {"src": refs_dataset(range(4))}, counters) == 4
        assert stage_counts(counters) == [(21 + 9, 0), (11 + 5, 10 + 4), (11 + 5, 5 + 2)]
