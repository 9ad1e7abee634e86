"""Fusion: substitution, plan structure, rendered text, zero-dispatch runs."""

import random

import pytest
from hypothesis import example, given, strategies as st

from conftest import engine_outcomes, random_pipeline
from test_lambdas import arith_trees, i64, run_to_outcome
from streambench.counters import CounterSet
from streambench.errors import DivisionByZero, InvalidPipeline
from streambench.exprs import (
    I64_MAX,
    I64_MIN,
    Arith,
    Capture,
    Cmp,
    Const,
    Param,
    eval_scalar,
    max_capture_slot,
    max_param_index,
)
from streambench.fuse import (
    _fold_map,
    compile_plan,
    exec_fused,
    optimize,
    render_plan,
    run_fused,
    substitute,
)
from streambench.lambdas import compile_unary, make_lambda
from streambench.push import run_push
from streambench.query import (
    Filter,
    FlatMap,
    Map,
    QueryExpr,
    Terminal,
    build_query,
    ints_dataset,
    refs_dataset,
)
from streambench.suite import define_suite, oracle_run

SQUARE = Arith("mul", Param(0), Param(0))
EVEN = Cmp("eq", Arith("mod", Param(0), Const(2)), Const(0))
SCALED = Arith("mul", Param(0), Capture(0))


class TestSubstitute:
    @given(arith_trees(), arith_trees(), i64)
    def test_composition_law(self, outer, inner, x):
        # evaluating the inlined tree == evaluating outer on inner's value;
        # substitute is pure value inlining, so when outer never reads the
        # element it also drops inner's failures (folding re-anchors those)
        composed = substitute(outer, inner)

        def direct():
            v = eval_scalar(inner, (x,))
            return eval_scalar(outer, (v,))

        got = run_to_outcome(lambda: eval_scalar(composed, (x,)))
        if max_param_index(outer) >= 0:
            assert got == run_to_outcome(direct)
        else:
            assert got == run_to_outcome(lambda: eval_scalar(outer, (x,)))

    @given(arith_trees(), arith_trees(), i64)
    def test_fold_map_preserves_failures(self, outer, inner, x):
        # the stage-folding wrapper keeps the full outcome, errors included
        folded = _fold_map(outer, inner)

        def direct():
            v = eval_scalar(inner, (x,))
            return eval_scalar(outer, (v,))

        assert run_to_outcome(lambda: eval_scalar(folded, (x,))) == \
            run_to_outcome(direct)

    def test_leaves_other_params_alone(self):
        tree = Arith("add", Param(0), Param(1))
        out = substitute(tree, Const(5))
        assert out == Arith("add", Const(5), Param(1))

    def test_capture_rebinding(self):
        tree = Arith("mul", Param(0), Capture(0))
        out = substitute(tree, Param(1), {0: SQUARE})
        assert out == Arith("mul", Param(1), SQUARE)
        assert max_capture_slot(out) == -1

    def test_unmapped_captures_survive(self):
        tree = Arith("mul", Param(0), Capture(0))
        out = substitute(tree, Const(3))
        assert out == Arith("mul", Const(3), Capture(0))

    def test_comparison_root_preserved(self):
        out = substitute(EVEN, SQUARE)
        assert type(out) is Cmp
        assert eval_scalar(out, (3,)) is False  # 9 is odd
        assert eval_scalar(out, (2,)) is True


class TestOptimizeStructure:
    def test_linear_pipeline_one_loop(self):
        q = build_query("src", [Filter(make_lambda(EVEN)),
                                Map(make_lambda(SQUARE))], Terminal.SUM)
        plan = optimize(q)
        assert plan.inner is None
        assert plan.outer.source == "src"
        assert len(plan.outer.guards) == 1
        assert plan.body == SQUARE
        assert plan.outer_element is None

    def test_guard_count_equals_filter_count(self):
        lt10 = make_lambda(Cmp("lt", Param(0), Const(10)))
        q = build_query("src", [Filter(make_lambda(EVEN)), Filter(lt10),
                                Map(make_lambda(SQUARE))], Terminal.SUM)
        plan = optimize(q)
        assert len(plan.outer.guards) == 2

    def test_flatmap_two_loops(self):
        fm = FlatMap("inner", (Map(make_lambda(SCALED, captures=1)),))
        plan = optimize(build_query("outer", [fm], Terminal.SUM))
        assert plan.inner is not None
        assert plan.inner.source == "inner"
        assert plan.body == Arith("mul", Param(1), Param(0))
        assert plan.outer_element == Param(0)

    def test_filter_before_map_guards_raw(self):
        q = build_query("src", [Filter(make_lambda(EVEN)),
                                Map(make_lambda(SQUARE))], Terminal.SUM)
        assert optimize(q).outer.guards[0] == EVEN

    def test_filter_after_map_guards_composed(self):
        q = build_query("src", [Map(make_lambda(SQUARE)),
                                Filter(make_lambda(EVEN))], Terminal.SUM)
        plan = optimize(q)
        assert plan.outer.guards[0] == substitute(EVEN, SQUARE)
        assert plan.body == SQUARE

    def test_filter_after_flatmap_becomes_inner_guard(self):
        fm = FlatMap("inner", ())
        q = build_query("outer", [fm, Filter(make_lambda(EVEN))], Terminal.SUM)
        plan = optimize(q)
        assert plan.outer.guards == ()
        assert plan.inner.guards == (substitute(EVEN, Param(1)),)

    def test_plans_are_capture_free(self):
        rng = random.Random(97)
        for _ in range(40):
            query, _ = random_pipeline(rng)
            plan = optimize(query)
            trees = [*plan.outer.guards, plan.body]
            if plan.inner is not None:
                trees.extend(plan.inner.guards)
            assert all(max_capture_slot(t) == -1 for t in trees)

    def test_unresolvable_capture_rejected(self):
        # a query whose plan would read an unbound capture cannot be built,
        # not even directly, so optimize never sees one
        with pytest.raises(InvalidPipeline):
            QueryExpr("src", (Map(make_lambda(SCALED, captures=1)),),
                      Terminal.SUM)


class TestRenderedPlans:
    def test_identity_sum(self):
        q = build_query("data", [], Terminal.SUM)
        assert render_plan(optimize(q)) == (
            "loop0: for x0 in data[0:len)\n"
            "body: x0\n"
            "acc: sum(init=0)")

    def test_filtered_square(self):
        q = build_query("data", [Filter(make_lambda(EVEN)),
                                 Map(make_lambda(SQUARE))], Terminal.SUM)
        assert render_plan(optimize(q)) == (
            "loop0: for x0 in data[0:len) if ((x0 % 2) == 0)\n"
            "body: (x0 * x0)\n"
            "acc: sum(init=0)")

    def test_nested_product(self):
        fm = FlatMap("inner", (Map(make_lambda(SCALED, captures=1)),))
        q = build_query("outer", [fm], Terminal.SUM)
        assert render_plan(optimize(q)) == (
            "loop0: for x0 in outer[0:len)\n"
            "loop1: for x1 in inner[0:len)\n"
            "body: (x1 * x0)\n"
            "acc: sum(init=0)")

    def test_count_terminal_and_guard_chain(self):
        div3 = make_lambda(Cmp("eq", Arith("mod", Param(0), Const(3)), Const(0)))
        div5 = make_lambda(Cmp("eq", Arith("mod", Param(0), Const(5)), Const(0)))
        q = build_query("data", [Filter(div3), Filter(div5)], Terminal.COUNT)
        assert render_plan(optimize(q)) == (
            "loop0: for x0 in data[0:len) if ((x0 % 3) == 0) && ((x0 % 5) == 0)\n"
            "body: x0\n"
            "acc: count(init=0)")


class TestExecFused:
    def test_filtered_square_sum(self):
        q = build_query("src", [Filter(make_lambda(EVEN)),
                                Map(make_lambda(SQUARE))], Terminal.SUM)
        counters = CounterSet()
        assert exec_fused(optimize(q), {"src": ints_dataset(range(10))},
                          counters) == 120
        assert counters.control_dispatches == 0
        assert counters.lambda_applies == 0
        assert counters.instantiations == 0

    def test_cross_product(self):
        fm = FlatMap("inner", (Map(make_lambda(SCALED, captures=1)),))
        q = build_query("outer", [fm], Terminal.SUM)
        ds = {"outer": ints_dataset([1, 2, 3]), "inner": ints_dataset([10, 20])}
        assert exec_fused(optimize(q), ds) == 180

    def test_empty_source(self):
        q = build_query("src", [], Terminal.SUM)
        assert exec_fused(optimize(q), {"src": ints_dataset([])}) == 0

    def test_count_without_guards(self):
        q = build_query("src", [], Terminal.COUNT)
        assert exec_fused(optimize(q), {"src": ints_dataset(range(17))}) == 17

    def test_index_subrange(self):
        q = build_query("src", [Map(make_lambda(SQUARE))], Terminal.SUM)
        ds = {"src": ints_dataset(range(10))}
        plan = optimize(q)
        assert exec_fused(plan, ds, lo=2, hi=5) == 4 + 9 + 16
        assert exec_fused(plan, ds, lo=5, hi=5) == 0

    def test_refs_and_nested_identity_body(self):
        fm = FlatMap("inner", ())
        q = build_query("outer", [fm], Terminal.SUM)
        ds = {"outer": refs_dataset([1, 2]), "inner": refs_dataset([10, 20])}
        # body is x1: each outer element contributes sum(inner)
        assert exec_fused(optimize(q), ds) == 60

    def test_nested_product_wraps(self):
        fm = FlatMap("inner", (Map(make_lambda(SCALED, captures=1)),))
        nested = build_query("outer", [fm], Terminal.SUM)
        ds = {"outer": ints_dataset([1 << 32]), "inner": ints_dataset([1 << 32])}
        assert exec_fused(optimize(nested), ds) == 0
        # refs outer, guarded: I64_MAX + 1 wraps to I64_MIN, -1 is dropped
        positive = make_lambda(Cmp("lt", Const(0), Param(0)))
        inc = make_lambda(Arith("add", Param(0), Const(1)))
        guarded = build_query("outer", [Filter(positive), Map(inc)], Terminal.SUM)
        ds = {"outer": refs_dataset([I64_MAX, -1, 5])}
        assert exec_fused(optimize(guarded), ds) == I64_MIN + 6

    def test_count_still_evaluates_body(self):
        mod0 = make_lambda(Arith("mod", Param(0), Const(0)))
        q = build_query("src", [Map(mod0)], Terminal.COUNT)
        with pytest.raises(DivisionByZero):
            exec_fused(optimize(q), {"src": ints_dataset([1])})

    def test_count_skips_body_that_cannot_raise(self):
        q = build_query("src", [Map(make_lambda(SQUARE))], Terminal.COUNT)
        run = compile_plan(optimize(q), {"src": ints_dataset(range(5))})
        assert "*" not in run.source
        assert run(0, 5) == 5

    @pytest.mark.parametrize("make", [ints_dataset, refs_dataset])
    def test_count_needs_no_loop(self, make):
        # one guard-free loop whose count body cannot raise is a length
        mod7 = make_lambda(Arith("mod", Param(0), Const(7)))
        q = build_query("src", [Map(mod7)], Terminal.COUNT)
        plan = optimize(q)
        values = [3, -1, 4, 1, -5, 9, 2, 6]
        assert "for" not in compile_plan(plan, {"src": make(values)}).source
        n = len(values)
        for lo, hi in ((0, n), (0, n + 5), (0, 3), (2, 5), (5, 5)):
            want = oracle_run(q, {"src": make(values[lo:hi])})
            assert exec_fused(plan, {"src": make(values)}, lo=lo, hi=hi) == want

    def test_run_fused_wrapper(self):
        q = build_query("src", [Filter(make_lambda(EVEN))], Terminal.COUNT)
        assert run_fused(q, {"src": ints_dataset(range(10))}) == 5


class TestErrorParity:
    """Fusing must not lose evaluation errors to dead-code elimination."""

    def failing_map(self):
        return Map(make_lambda(Arith("mod", Param(0), Const(0))))

    def check_matches_push(self, query, datasets):
        def fused():
            return exec_fused(optimize(query), datasets)

        def push():
            return run_push(query, datasets, CounterSet())

        assert run_to_outcome(fused) == run_to_outcome(push)

    def test_failing_map_before_empty_inner(self):
        q = build_query("src", [self.failing_map(), FlatMap("inner", ())],
                        Terminal.SUM)
        ds = {"src": ints_dataset([1, 2]), "inner": ints_dataset([])}
        self.check_matches_push(q, ds)

    def test_failing_map_unreferenced_by_inner(self):
        inc = make_lambda(Arith("add", Param(0), Const(1)))
        q = build_query("src", [self.failing_map(),
                                FlatMap("inner", (Map(inc),))], Terminal.SUM)
        ds = {"src": ints_dataset([1, 2]), "inner": ints_dataset([5])}
        self.check_matches_push(q, ds)

    def test_failing_map_behind_inner_guard(self):
        drop_all = make_lambda(Cmp("lt", Param(0), Const(-100)))
        use_outer = make_lambda(SCALED, captures=1)
        q = build_query("src", [self.failing_map(),
                                FlatMap("inner", (Filter(drop_all),
                                                  Map(use_outer)))],
                        Terminal.SUM)
        ds = {"src": ints_dataset([1, 2]), "inner": ints_dataset([5, 6])}
        self.check_matches_push(q, ds)

    def test_dropped_elements_do_not_fail(self):
        # a filter ahead of the failing map protects it in every strategy
        odd = make_lambda(Cmp("eq", Arith("mod", Param(0), Const(2)), Const(1)))
        mod_by_x = Map(make_lambda(Arith("mod", Const(10), Param(0))))
        q = build_query("src", [Filter(odd), mod_by_x], Terminal.SUM)
        ds = {"src": ints_dataset([0, 3, 7])}  # 0 would divide by zero
        self.check_matches_push(q, ds)
        assert exec_fused(optimize(q), ds) == 1 + 3

    def test_constant_map_keeps_failing_map(self):
        # map(x % 0) then map(42): substitution alone would leave only 42
        const42 = Map(make_lambda(Const(42)))
        q = build_query("src", [self.failing_map(), const42], Terminal.SUM)
        ds = {"src": ints_dataset([1, 2, 3])}
        self.check_matches_push(q, ds)
        with pytest.raises(DivisionByZero):
            exec_fused(optimize(q), ds)

    def test_constant_guard_keeps_failing_map(self):
        # a predicate that never reads the element must not drop it before
        # the failing map ahead of it has run
        never = make_lambda(Cmp("lt", Const(5), Const(1)))
        q = build_query("src", [self.failing_map(), Filter(never)],
                        Terminal.SUM)
        ds = {"src": ints_dataset([1, 2, 3])}
        self.check_matches_push(q, ds)
        with pytest.raises(DivisionByZero):
            exec_fused(optimize(q), ds)

    def test_constant_map_keeps_failing_map_after_flat_map(self):
        always_fails = Map(make_lambda(
            Arith("mod", Const(9), Arith("sub", Param(0), Param(0)))))
        q = build_query("src", [FlatMap("inner", ()), always_fails,
                                Map(make_lambda(Const(46)))], Terminal.SUM)
        ds = {"src": ints_dataset([1]), "inner": ints_dataset([5, 6])}
        self.check_matches_push(q, ds)
        with pytest.raises(DivisionByZero):
            exec_fused(optimize(q), ds)

    def test_constant_inner_map_keeps_failing_inner_map(self):
        mod_outer_by_sq = make_lambda(
            Arith("mod", Capture(0), Arith("mul", Param(0), Param(0))),
            captures=1)
        q = build_query("src",
                        [FlatMap("inner", (Map(mod_outer_by_sq),
                                           Map(make_lambda(Const(4)))))],
                        Terminal.SUM)
        ds = {"src": ints_dataset([7]), "inner": ints_dataset([3, 0])}
        self.check_matches_push(q, ds)
        with pytest.raises(DivisionByZero):
            exec_fused(optimize(q), ds)

    def test_anchored_plan_still_sums_when_nothing_fails(self):
        # anchoring keeps the erased tree at value zero: (e * 0) + new
        mod_ok = Map(make_lambda(Arith("mod", Param(0), Const(7))))
        const9 = Map(make_lambda(Const(9)))
        q = build_query("src", [mod_ok, const9], Terminal.SUM)
        ds = {"src": ints_dataset([10, 20, 30])}
        assert exec_fused(optimize(q), ds) == 27
        self.check_matches_push(q, ds)


class TestSemanticPreservation:
    def test_matches_pull_on_random_pipelines(self):
        rng = random.Random(424242)
        for _ in range(60):
            query, datasets = random_pipeline(rng)
            outcomes = engine_outcomes(query, datasets)
            assert outcomes["fused"] == outcomes["pull"]
            assert outcomes["fused"] == outcomes["oracle"]


# the zero test `x mod k == 0` is emitted as the sign-free `x % |k| == 0`
EDGE_I64 = st.one_of(i64, st.integers(-30, 30), st.sampled_from(
    (I64_MIN, I64_MIN + 1, I64_MAX - 1, I64_MAX)))
DIVISORS = st.one_of(st.sampled_from((1, -1, 2, -3, 7, I64_MIN, I64_MAX)),
                     st.integers(I64_MIN, -1), st.integers(1, I64_MAX))


def zero_test(dividend, k, zero_first):
    rem = Arith("mod", dividend, Const(k))
    return Cmp("eq", Const(0), rem) if zero_first else Cmp("eq", rem, Const(0))


class TestZeroTest:
    @given(EDGE_I64, DIVISORS, st.booleans(), st.booleans())
    def test_compiled_matches_reference(self, x, k, squared, zero_first):
        dividend = SQUARE if squared else Param(0)
        tree = zero_test(dividend, k, zero_first)
        assert compile_unary(tree)(x) == eval_scalar(tree, (x,))

    @given(st.lists(EDGE_I64, max_size=12), DIVISORS, st.booleans(),
           st.integers(0, 2), st.sampled_from(Terminal),
           st.sampled_from((ints_dataset, refs_dataset)))
    @example(list(range(-6, 6)), -3, True, 1, Terminal.COUNT, refs_dataset)
    def test_fused_matches_oracle_on_slices(self, values, k, zero_first,
                                            n_stages, terminal, make):
        stages = (Filter(make_lambda(zero_test(Param(0), k, zero_first))),
                  Map(make_lambda(SQUARE)))[:n_stages]
        q = build_query("src", stages, terminal)
        plan = optimize(q)
        n = len(values)
        for lo, hi in ((0, n), (0, n + 5), (0, 3), (2, 5), (5, 5)):
            want = oracle_run(q, {"src": make(values[lo:hi])})
            assert exec_fused(plan, {"src": make(values)}, lo=lo, hi=hi) == want

    @pytest.mark.parametrize("name", ["refs", "sumOfSquaresEven"])
    def test_suite_filters_compile_to_plain_loops(self, name):
        bench = next(b for b in define_suite() if b.name == name)
        run = compile_plan(optimize(bench.build_query()), bench.gen_inputs(8))
        assert ">= 0 else" not in run.source
        assert "map(" not in run.source

    @pytest.mark.parametrize("zero_first", [False, True])
    def test_mod_by_zero_still_raises(self, zero_first):
        pred = zero_test(Param(0), 0, zero_first)
        with pytest.raises(DivisionByZero):
            compile_unary(pred)(3)
        for make in (ints_dataset, refs_dataset):
            q = build_query("src", [Filter(make_lambda(pred))], Terminal.COUNT)
            outcomes = engine_outcomes(q, {"src": make(range(20))})
            assert set(outcomes.values()) == {("err", DivisionByZero)}
