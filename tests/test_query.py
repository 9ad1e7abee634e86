"""Datasets, pipeline validation, and counter slot layout."""

import gc
from array import array

import pytest

from streambench.errors import InvalidPipeline, UnresolvedDataset
from streambench.exprs import Arith, Capture, Cmp, Const, I64_MAX, Param
from streambench.exprs import I64_MIN, wrap_i64
from streambench.lambdas import make_lambda
from streambench.query import (
    Filter,
    FlatMap,
    Map,
    QueryExpr,
    Ref,
    RefsDataset,
    Terminal,
    build_query,
    dataset_values,
    ints_dataset,
    layout_query,
    refs_dataset,
    resolve_dataset,
)


def square():
    return make_lambda(Arith("mul", Param(0), Param(0)))


def even():
    return make_lambda(Cmp("eq", Arith("mod", Param(0), Const(2)), Const(0)))


def scaled_by_outer():
    return make_lambda(Arith("mul", Param(0), Capture(0)), captures=1)


class Indexable:
    """An object array("q") takes through __index__ but wrap_i64 cannot order."""

    def __index__(self):
        return 7


# Each input is a factory, so a generator is fresh for every build.
BUILD_INPUTS = {
    "in_range": lambda: [0, 1, -1, 3, 10**12, -(10**15)],
    "min_minus_1": lambda: [5, I64_MIN - 1],
    "min": lambda: [I64_MIN],
    "min_plus_1": lambda: [I64_MIN + 1],
    "max_minus_1": lambda: [I64_MAX - 1],
    "max": lambda: [I64_MAX],
    "max_plus_1": lambda: [I64_MAX + 1, 5],
    "two_to_64": lambda: [1 << 64],
    "true": lambda: [True, 2],
    "float": lambda: [1, 2.5],
    "str": lambda: [1, "a"],
    "generator": lambda: (v * v for v in range(-3, 4)),
    "wrapping_generator": lambda: (v for v in (1, I64_MAX + 1)),
    "range": lambda: range(-5, 6),
    "tuple": lambda: (4, I64_MIN - 1),
    "bytes": lambda: b"12345678",
    "index_only": lambda: [Indexable()],
}


def old_build(layout, values):
    """The value-by-value build: the reference the bulk build must match.
    Refs hold the ints layout's rows, so both layouts take the same values."""
    rows = array("q", (wrap_i64(v) for v in values))
    if layout == "ints":
        return [(type(v), v) for v in rows]
    return [(type(r.value), r.value) for r in [Ref(v) for v in rows]]


def new_build(layout, values):
    if layout == "ints":
        return [(type(v), v) for v in ints_dataset(values).data]
    return [(type(r.value), r.value) for r in refs_dataset(values).data]


def outcome(build, layout, values):
    try:
        return build(layout, values)
    except Exception as exc:  # the error type is the outcome compared
        return type(exc)


class TestDatasets:
    @pytest.mark.parametrize("layout", ["ints", "refs"])
    @pytest.mark.parametrize("name", sorted(BUILD_INPUTS))
    def test_bulk_build_equals_the_value_by_value_build(self, layout, name):
        make = BUILD_INPUTS[name]
        assert outcome(new_build, layout, make()) == outcome(old_build, layout, make())

    def test_refs_hold_the_callers_ints(self):
        vals = [10**12 + i for i in range(100)] + [I64_MIN, I64_MAX]
        ds = refs_dataset(vals)
        assert all(r.value is v for r, v in zip(ds.data, vals, strict=True))

    def test_refs_wrap_on_construction(self):
        ds = refs_dataset([I64_MAX + 1, 1 << 64])
        assert dataset_values(ds) == [-(1 << 63), 0]

    @pytest.mark.parametrize("values", [[1, 2], [I64_MAX + 1], ["a"]])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_refs_build_restores_the_collector(self, enabled, values):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                refs_dataset(values)
            except TypeError:
                assert values == ["a"]
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_ints_values_round_trip(self):
        ds = ints_dataset([3, 1, 4, 1, 5])
        assert len(ds) == 5
        assert dataset_values(ds) == [3, 1, 4, 1, 5]

    def test_ints_wrap_on_construction(self):
        ds = ints_dataset([I64_MAX + 1, 1 << 64])
        assert dataset_values(ds) == [-(1 << 63), 0]

    def test_refs_indirection(self):
        ds = refs_dataset([10, 20])
        assert isinstance(ds, RefsDataset)
        assert all(isinstance(r, Ref) for r in ds.data)
        assert dataset_values(ds) == [10, 20]

    def test_empty_datasets(self):
        assert len(ints_dataset([])) == 0
        assert len(refs_dataset([])) == 0

    def test_resolve(self):
        ds = ints_dataset([1])
        assert resolve_dataset({"a": ds}, "a") is ds
        with pytest.raises(UnresolvedDataset):
            resolve_dataset({"a": ds}, "b")


def assert_rejected(stages, terminal=Terminal.SUM, match=None, source="s"):
    """build_query and a QueryExpr built directly both refuse the query."""
    for build in (build_query, QueryExpr):
        with pytest.raises(InvalidPipeline, match=match):
            build(source, stages, terminal)


def outer_plus():
    return make_lambda(Arith("add", Param(0), Capture(0)), captures=1)


class TestBuildQuery:
    def test_accepts_well_formed(self):
        q = build_query("src", [Filter(even()), Map(square())], Terminal.SUM)
        assert q.source == "src"
        assert len(q.stages) == 2
        assert q.terminal is Terminal.SUM

    def test_accepts_flatmap_with_capturing_inner(self):
        fm = FlatMap("inner", (Map(scaled_by_outer()),))
        q = build_query("outer", [fm], Terminal.SUM)
        assert q.stages[0].inner_source == "inner"

    def test_stage_lists_are_stored_as_tuples(self):
        q = QueryExpr("s", [FlatMap("inner", [Map(outer_plus())])], Terminal.SUM)
        assert type(q.stages) is tuple and type(q.stages[0].stages) is tuple
        assert hash(q) == hash(QueryExpr("s", q.stages, Terminal.SUM))

    def test_rejects_non_comparison_predicate(self):
        assert_rejected([Filter(square())], match="stage 0: predicate body")

    def test_rejects_comparison_map(self):
        assert_rejected([Map(even())], match="stage 0: map body")

    def test_rejects_capturing_top_level(self):
        assert_rejected([Map(scaled_by_outer())])
        pred = make_lambda(Cmp("lt", Param(0), Capture(0)), captures=1)
        assert_rejected([Filter(pred)])
        # after a flat-map, a top-level stage still captures nothing
        fm = FlatMap("inner", (Map(outer_plus()),))
        assert_rejected([fm, Map(outer_plus())], match="stage 1: at most 0")

    def test_rejects_binary_stage_lambda(self):
        two = make_lambda(Arith("mul", Param(1), Param(0)), arity=2)
        assert_rejected([Map(two)], match="stage 0: stage lambdas are unary")

    def test_rejects_non_lambda(self):
        assert_rejected([Map("x")], match="stage 0: not a lambda")
        assert_rejected([FlatMap("inner", (Filter(None),))],
                        match="stage 0.inner 0: not a lambda")

    def test_rejects_nested_flatmap(self):
        inner_fm = FlatMap("deep", ())
        assert_rejected([FlatMap("inner", (inner_fm,))],
                        match="stage 0.inner 0: flat-map nesting")

    def test_rejects_second_flatmap(self):
        fm = FlatMap("inner", ())
        assert_rejected([fm, FlatMap("inner", ())])
        fm = FlatMap("inner", (Map(outer_plus()),))
        assert_rejected([fm, fm], match="at most one flat-map")

    def test_rejects_excess_inner_captures(self):
        body = Arith("add", Capture(0), Capture(1))
        lam = make_lambda(body, captures=2)
        assert_rejected([Map(square()), FlatMap("inner", (Filter(even()), Map(lam)))],
                        match="stage 1.inner 1: at most 1 capture")

    def test_rejects_non_stage(self):
        assert_rejected(["map"], match="stage 0: not a pipeline stage")

    def test_rejects_source_that_is_not_a_name(self):
        assert_rejected([], source=["s"], match="source is not a dataset name")
        assert_rejected([Map(square()), FlatMap(["i"], (Map(outer_plus()),))],
                        match="stage 1: inner source is not a dataset name")

    def test_rejects_unknown_terminal(self):
        assert_rejected([], "sum", match="unknown terminal")
        # the terminal is checked before any stage
        assert_rejected(["map"], "sum", match="unknown terminal")


class TestLayout:
    def test_source_only(self):
        q = build_query("s", [], Terminal.SUM)
        lay = layout_query(q)
        assert lay.labels == ("source",)
        assert lay.top_slots == ()
        assert lay.flatmap_pos is None
        assert lay.inner_source_slot is None

    def test_linear_pipeline(self):
        q = build_query("s", [Filter(even()), Map(square())], Terminal.SUM)
        lay = layout_query(q)
        assert lay.labels == ("source", "0:filter", "1:map")
        assert lay.top_slots == (1, 2)

    def test_flatmap_slots_appended(self):
        fm = FlatMap("inner", (Map(scaled_by_outer()), Filter(even())))
        q = build_query("s", [Map(square()), fm], Terminal.SUM)
        lay = layout_query(q)
        assert lay.labels == (
            "source",
            "0:map",
            "1:flat_map",
            "1.inner:source",
            "1.inner.0:map",
            "1.inner.1:filter",
        )
        assert lay.top_slots == (1, 2)
        assert lay.flatmap_pos == 1
        assert lay.inner_source_slot == 3
        assert lay.inner_slots == (4, 5)
