"""Lambda values, closure compilation, and call-site accounting."""

import pytest
from hypothesis import given, strategies as st

from streambench.counters import CounterSet
from streambench.errors import ArityMismatch, DivisionByZero, InvalidExpression
from streambench.exprs import (
    ARITH_OPS,
    CMP_OPS,
    I64_MAX,
    I64_MIN,
    Arith,
    Capture,
    Cmp,
    Const,
    Param,
    eval_scalar,
)
from streambench import lambdas
from streambench.fuse import exec_fused, optimize
from streambench.lambdas import (
    CallSiteCache,
    Lambda,
    apply_lambda,
    compile_binary,
    compile_unary,
    is_capturing,
    make_lambda,
    stage_cell,
)
from streambench.query import Filter, Map, Terminal, build_query, ints_dataset

i64 = st.integers(min_value=I64_MIN, max_value=I64_MAX)
# skew toward small constants so mod-by-zero and boundary cases both appear
const_values = st.one_of(st.integers(min_value=-6, max_value=6), i64)


def arith_trees(n_captures: int = 0, n_params: int = 1):
    leaves = [st.builds(Const, const_values)]
    leaves.append(st.builds(Param, st.integers(0, n_params - 1)))
    if n_captures:
        leaves.append(st.builds(Capture, st.integers(0, n_captures - 1)))
    return st.recursive(
        st.one_of(*leaves),
        lambda kids: st.builds(Arith, st.sampled_from(ARITH_OPS), kids, kids),
        max_leaves=12,
    )


def predicate_trees(n_captures: int = 0, n_params: int = 1):
    sides = arith_trees(n_captures, n_params)
    return st.builds(Cmp, st.sampled_from(CMP_OPS), sides, sides)


def run_to_outcome(fn):
    try:
        return ("ok", fn())
    except DivisionByZero:
        return ("err", DivisionByZero)


class TestLambdaValue:
    def test_fresh_site_ids(self):
        body = Arith("mul", Param(0), Param(0))
        a = make_lambda(body)
        b = make_lambda(body)
        assert a.site_id != b.site_id

    def test_is_capturing(self):
        assert not is_capturing(make_lambda(Param(0)))
        assert is_capturing(make_lambda(Arith("mul", Param(0), Capture(0)),
                                        captures=1))

    def test_arity_validated(self):
        with pytest.raises(InvalidExpression):
            Lambda(0, 0, Param(0), 0)
        with pytest.raises(InvalidExpression):
            make_lambda(Param(1), arity=1)
        make_lambda(Arith("mul", Param(1), Param(0)), arity=2)

    def test_body_must_be_an_expression_node(self):
        for body in ("foo", 3, None):
            with pytest.raises(InvalidExpression):
                make_lambda(body)

    def test_captures_validated(self):
        with pytest.raises(InvalidExpression):
            Lambda(1, -1, Param(0), 0)
        with pytest.raises(InvalidExpression):
            make_lambda(Capture(0), captures=0)
        with pytest.raises(InvalidExpression):
            make_lambda(Capture(2), captures=2)


class TestCompiledUnary:
    """The compiled fast path must agree with the reference interpreter."""

    @given(arith_trees(), i64)
    def test_arith_matches_reference(self, tree, x):
        fn = compile_unary(tree)
        assert run_to_outcome(lambda: fn(x)) == \
            run_to_outcome(lambda: eval_scalar(tree, (x,)))

    @given(predicate_trees(), i64)
    def test_predicate_matches_reference(self, tree, x):
        fn = compile_unary(tree)
        got = run_to_outcome(lambda: bool(fn(x)))
        want = run_to_outcome(lambda: bool(eval_scalar(tree, (x,))))
        assert got == want

    @given(arith_trees(n_captures=2), i64, i64, i64)
    def test_captures_baked_in(self, tree, x, c0, c1):
        fn = compile_unary(tree, (c0, c1))
        assert run_to_outcome(lambda: fn(x)) == \
            run_to_outcome(lambda: eval_scalar(tree, (x,), (c0, c1)))

    def test_specialized_shapes_at_boundaries(self):
        # each case drives one peephole through a wrap boundary
        square = compile_unary(Arith("mul", Param(0), Param(0)))
        assert square(1 << 32) == 0
        assert square(-3) == 9
        inc = compile_unary(Arith("add", Param(0), Const(1)))
        assert inc(I64_MAX) == I64_MIN
        dec = compile_unary(Arith("sub", Param(0), Const(1)))
        assert dec(I64_MIN) == I64_MAX
        dbl = compile_unary(Arith("mul", Param(0), Const(2)))
        assert dbl(I64_MAX) == -2
        rem = compile_unary(Arith("mod", Param(0), Const(3)))
        assert rem(-7) == -1
        assert rem(7) == 1

    def test_commutative_swap_only(self):
        # add/mul may move the parameter left; sub and mod must not
        add = compile_unary(Arith("add", Const(10), Param(0)))
        assert add(5) == 15
        mul = compile_unary(Arith("mul", Const(10), Param(0)))
        assert mul(5) == 50
        sub = compile_unary(Arith("sub", Const(10), Param(0)))
        assert sub(3) == 7
        mod = compile_unary(Arith("mod", Const(10), Param(0)))
        assert mod(4) == 2
        assert mod(-4) == 2

    def test_capture_operand(self):
        scaled = compile_unary(Arith("mul", Param(0), Capture(0)), (7,))
        assert scaled(6) == 42
        swapped = compile_unary(Arith("mul", Capture(0), Param(0)), (7,))
        assert swapped(6) == 42

    def test_mod_const_zero_raises_on_call(self):
        fn = compile_unary(Arith("mod", Param(0), Const(0)))
        with pytest.raises(DivisionByZero):
            fn(5)

    def test_unbound_capture_rejected_at_compile(self):
        with pytest.raises(InvalidExpression):
            compile_unary(Capture(0), ())
        with pytest.raises(InvalidExpression):
            compile_unary(Arith("mul", Param(0), Capture(1)), (3,))

    def test_second_param_rejected(self):
        with pytest.raises(InvalidExpression):
            compile_unary(Param(1))


class TestCompiledBinary:
    @given(arith_trees(n_params=2), i64, i64)
    def test_matches_reference(self, tree, a, b):
        fn = compile_binary(tree)
        assert run_to_outcome(lambda: fn(a, b)) == \
            run_to_outcome(lambda: eval_scalar(tree, (a, b)))

    def test_product_shapes(self):
        ab = compile_binary(Arith("mul", Param(0), Param(1)))
        ba = compile_binary(Arith("mul", Param(1), Param(0)))
        assert ab(3, 5) == 15
        assert ba(3, 5) == 15
        assert ab(1 << 32, 1 << 32) == 0

    def test_captures_rejected(self):
        with pytest.raises(InvalidExpression):
            compile_binary(Arith("mul", Param(0), Capture(0)))


class _CodeInt(int):
    """An int whose every text form is Python code."""

    CODE = "__import__('os')._exit(86)"

    def __repr__(self):
        return self.CODE

    def __format__(self, spec):
        return self.CODE


class TestGeneratedSource:
    def test_values_are_bound_never_printed(self, monkeypatch):
        sources = []
        real_compile = compile

        def recording(source, *args):
            sources.append(source)
            return real_compile(source, *args)

        monkeypatch.setattr(lambdas, "compile", recording, raising=False)
        k = _CodeInt(7)
        unary = Arith("add", Arith("mod", Param(0), Const(k)), Capture(0))
        binary = Arith("mul", Param(1), Arith("sub", Param(0), Const(k)))
        guard = Cmp("lt", Const(k), Param(0))
        for x in (-15, 0, 22):
            assert compile_unary(unary, (k,))(x) == eval_scalar(unary, (x,), (k,))
            assert compile_binary(binary)(x, 3) == eval_scalar(binary, (x, 3))
        square = Arith("mul", Param(0), Param(0))
        q = build_query("src", [Filter(make_lambda(guard)),
                                Map(make_lambda(square))], Terminal.SUM)
        xs = range(-20, 20)
        want = sum(eval_scalar(square, (x,)) for x in xs if eval_scalar(guard, (x,)))
        assert exec_fused(optimize(q), {"src": ints_dataset(xs)}) == want
        assert len(sources) == 7
        assert not any(_CodeInt.CODE in src for src in sources)


class TestCallSites:
    def test_non_capturing_links_once_instantiates_once(self):
        cache = CallSiteCache()
        lam = make_lambda(Arith("mul", Param(0), Param(0)))
        first = cache.bind(lam)
        for _ in range(999):
            again = cache.bind(lam)
            assert again is first
        assert cache.stats(lam.site_id) == (1, 1)

    def test_capturing_instantiates_per_bind(self):
        cache = CallSiteCache()
        lam = make_lambda(Arith("mul", Param(0), Capture(0)), captures=1)
        instances = [cache.bind(lam, (k,)) for k in (2, 3, 4)]
        assert len({id(f) for f in instances}) == 3
        assert [f(10) for f in instances] == [20, 30, 40]
        assert cache.stats(lam.site_id) == (1, 3)

    def test_untouched_site_reports_zeros(self):
        cache = CallSiteCache()
        lam = make_lambda(Param(0))
        assert cache.stats(lam.site_id) == (0, 0)

    def test_caches_are_isolated(self):
        lam = make_lambda(Param(0))
        a, b = CallSiteCache(), CallSiteCache()
        a.bind(lam)
        b.bind(lam)
        assert a.stats(lam.site_id) == (1, 1)
        assert b.stats(lam.site_id) == (1, 1)

    def test_capture_count_enforced(self):
        cache = CallSiteCache()
        lam = make_lambda(Arith("mul", Param(0), Capture(0)), captures=1)
        with pytest.raises(ArityMismatch):
            cache.bind(lam, ())
        with pytest.raises(ArityMismatch):
            cache.bind(lam, (1, 2))

    def test_failed_link_is_not_counted(self):
        cache = CallSiteCache()
        lam = make_lambda(Arith("add", Param(0), Param(1)), arity=2)
        for _ in range(3):
            with pytest.raises(ArityMismatch):
                cache.bind(lam)
        assert cache.stats(lam.site_id) == (0, 0)

    def test_counters_flow_into_counter_set(self):
        counters = CounterSet()
        cache = CallSiteCache(counters)
        lam = make_lambda(Arith("add", Param(0), Capture(0)), captures=1)
        cache.bind(lam, (5,))
        cache.bind(lam, (6,))
        assert counters.link_events == 1
        assert counters.instantiations == 2


class TestInstanceShape:
    """A site links to one flat function, captures first; an instance is
    that function, or a new bound method over it per capture event."""

    SCALED = Arith("mul", Param(0), Capture(0))

    def test_capturing_binds_are_distinct_over_one_function(self):
        cache = CallSiteCache()
        lam = make_lambda(self.SCALED, captures=1)
        a, b = cache.bind(lam, (2,)), cache.bind(lam, (3,))
        assert a is not b
        assert a.__func__ is b.__func__
        assert (a(10), b(10)) == (20, 30)
        assert cache.stats(lam.site_id) == (1, 2)

    def test_rebinds_write_a_new_instance_over_one_function(self):
        cache = CallSiteCache()
        lam = make_lambda(self.SCALED, captures=1)

        def stage():
            fn = None
            return lambda v: fn(v)

        applies = stage()
        cell = stage_cell(applies)
        rebind = cache.rebinder([(lam, cell)])
        instances, results = [], []
        for v in (2, 3, 4):  # the first bind, then two later ones
            rebind(v)
            instances.append(cell.cell_contents)
            results.append(applies(10))
        assert results == [20, 30, 40]
        assert len({id(f) for f in instances}) == 3
        assert {f.__func__ for f in instances} == {instances[0].__func__}
        assert cache.stats(lam.site_id) == (1, 3)

    def test_linked_sources_take_captures_first(self):
        cache = CallSiteCache()
        plain = cache.bind(make_lambda(Arith("add", Param(0), Const(1))))
        capturing = cache.bind(make_lambda(self.SCALED, captures=1), (7,))
        assert plain.source.startswith("def fn(x0):\n")
        assert capturing.__func__.source.startswith("def fn(c0, x0):\n")
        assert compile_unary(self.SCALED, (7,)).source.startswith("def fn(c0, x0):\n")
        two = Arith("add", Capture(0), Capture(1))
        assert compile_unary(two, (1, 2)).source.startswith("def fn(c0, c1, x0):\n")
        product = Arith("mul", Param(0), Param(1))
        assert compile_binary(product).source.startswith("def fn(x0, x1):\n")


class TestApplyLambda:
    def test_matches_reference_and_counts(self):
        counters = CounterSet()
        counters.ensure_stages(["source", "0:map"])
        stage = counters.stages[1]
        cache = CallSiteCache(counters)
        lam = make_lambda(Arith("mul", Param(0), Param(0)))
        results = [apply_lambda(cache, lam, (x,), stage=stage) for x in range(100)]
        assert results == [x * x for x in range(100)]
        assert stage.lambda_applies == 100
        assert cache.stats(lam.site_id) == (1, 1)

    def test_capturing_apply_counts_instances(self):
        cache = CallSiteCache()
        lam = make_lambda(Arith("mul", Param(0), Capture(0)), captures=1)
        got = [apply_lambda(cache, lam, (3,), (k,)) for k in range(5)]
        assert got == [0, 3, 6, 9, 12]
        assert cache.stats(lam.site_id) == (1, 5)

    def test_param_count_enforced(self):
        cache = CallSiteCache()
        lam = make_lambda(Param(0))
        with pytest.raises(ArityMismatch):
            apply_lambda(cache, lam, ())
        with pytest.raises(ArityMismatch):
            apply_lambda(cache, lam, (1, 2))

    @given(arith_trees(n_captures=1), i64, i64)
    def test_capturing_path_matches_reference(self, tree, x, c):
        cache = CallSiteCache()
        lam = make_lambda(tree, captures=1)
        got = run_to_outcome(lambda: apply_lambda(cache, lam, (x,), (c,)))
        want = run_to_outcome(lambda: eval_scalar(tree, (x,), (c,)))
        assert got == want
