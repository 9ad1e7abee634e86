"""The emitter as an optimizer: deferred wraps, shared subtrees, hoisting.

Generated code must equal the reference interpreter bit for bit however the
emitter rearranges it, so every property here compares against eval_scalar
or oracle_run; the source-text tests pin the shapes the optimizer promises.
"""

import time
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from conftest import engine_outcomes
from test_lambdas import run_to_outcome
from streambench import lambdas, parallel
from streambench.counters import CounterSet
from streambench.errors import DivisionByZero, UnresolvedDataset
from streambench.exprs import (
    I64_MAX,
    I64_MIN,
    Arith,
    Capture,
    Cmp,
    Const,
    Param,
    eval_scalar,
    wrap_i64,
)
from streambench.fuse import compile_plan, exec_fused, optimize, run_fused
from streambench.lambdas import CallSiteCache, compile_binary, compile_unary, make_lambda
from streambench.parallel import ParallelConfig, run_parallel
from streambench.pull import open_chain, run_pull
from streambench.push import SplitCursor, build_chain, for_each_remaining, run_push
from streambench.query import (
    Filter,
    FlatMap,
    Map,
    Terminal,
    build_query,
    ints_dataset,
    refs_dataset,
)
from streambench.suite import define_suite, oracle_run

X = Param(0)
C = Capture(0)
EDGES = (0, 1, -1, 2, -3, 7, 1 << 31, 1 << 32, -(1 << 32), 1 << 62, -(1 << 62),
         I64_MIN, I64_MIN + 1, I64_MAX - 1, I64_MAX)
edge_values = st.one_of(st.sampled_from(EDGES), st.integers(-6, 6),
                        st.integers(I64_MIN, I64_MAX))
ARITH = ("add", "sub", "mul", "mod")


def trees(n_params: int = 1, n_captures: int = 0):
    """Arith trees over edge values, with long chains and repeated subtrees.

    A chain of a dozen muls reaches 768 bits unwrapped, three times the
    emitter's budget; a repeated subtree exercises value numbering.
    """
    leaves = [st.builds(Const, edge_values),
              st.builds(Param, st.integers(0, n_params - 1))]
    if n_captures:
        leaves.append(st.builds(Capture, st.integers(0, n_captures - 1)))
    leaf = st.one_of(*leaves)
    steps = st.lists(st.tuples(st.sampled_from(("add", "sub", "mul", "mul")), leaf),
                     min_size=3, max_size=12)
    chains = st.builds(lambda head, rest: reduce(
        lambda acc, step: Arith(step[0], acc, step[1]), rest, head), leaf, steps)

    def grow(kids):
        pairs = st.builds(Arith, st.sampled_from(ARITH), kids, kids)
        repeated = st.builds(lambda t, op, op2, other: Arith(op, t, Arith(op2, other, t)),
                             kids, st.sampled_from(ARITH), st.sampled_from(ARITH), kids)
        return st.one_of(pairs, repeated)
    return st.recursive(st.one_of(leaf, chains), grow, max_leaves=24)


def predicates(n_params: int = 1, n_captures: int = 0):
    sides = trees(n_params, n_captures)
    return st.builds(Cmp, st.sampled_from(("eq", "lt")), sides, sides)


def constant_heavy_trees(n_params: int = 1, n_captures: int = 0):
    """Arith trees whose leaves are constants 55% of the time, as in the
    adhoc workload's grammar, so whole subtrees, and whole guards, fold."""
    const = st.builds(Const, edge_values)
    others = [st.builds(Param, st.integers(0, n_params - 1))]
    if n_captures:
        others.append(st.builds(Capture, st.integers(0, n_captures - 1)))
    leaf = st.integers(0, 99).flatmap(
        lambda roll: const if roll < 55 else st.one_of(*others))
    return st.recursive(leaf, lambda kids: st.builds(
        Arith, st.sampled_from(ARITH), kids, kids), max_leaves=12)


def constant_heavy_stages(captures: int = 0):
    """One to three maps and filters over constant-heavy trees."""
    tree = constant_heavy_trees(n_captures=captures)
    maps = st.builds(lambda t: Map(make_lambda(t, captures=captures)), tree)
    filters = st.builds(
        lambda op, a, b: Filter(make_lambda(Cmp(op, a, b), captures=captures)),
        st.sampled_from(("eq", "lt")), tree, tree)
    return st.lists(st.one_of(maps, filters), min_size=1, max_size=3)


class TestCompiledEqualsReference:
    @given(trees(n_captures=1), edge_values, edge_values)
    def test_unary(self, tree, x, c):
        got = run_to_outcome(lambda: compile_unary(tree, (c,))(x))
        assert got == run_to_outcome(lambda: eval_scalar(tree, (x,), (c,)))

    @given(trees(n_params=2), edge_values, edge_values)
    def test_binary(self, tree, a, b):
        got = run_to_outcome(lambda: compile_binary(tree)(a, b))
        assert got == run_to_outcome(lambda: eval_scalar(tree, (a, b)))

    @given(predicates(), edge_values)
    def test_predicate(self, tree, x):
        got = run_to_outcome(lambda: compile_unary(tree)(x))
        assert got == run_to_outcome(lambda: eval_scalar(tree, (x,)))

    @given(constant_heavy_trees(n_captures=1), constant_heavy_trees(n_captures=1),
           edge_values, edge_values)
    def test_constant_heavy(self, tree, other, x, c):
        got = run_to_outcome(lambda: compile_unary(tree, (c,))(x))
        assert got == run_to_outcome(lambda: eval_scalar(tree, (x,), (c,)))
        for op in ("eq", "lt"):
            pred = Cmp(op, tree, other)
            got = run_to_outcome(lambda: compile_unary(pred, (c,))(x))
            assert got == run_to_outcome(lambda: eval_scalar(pred, (x,), (c,)))

    def test_mul_chain_past_budget(self):
        # x**4 fits the budget and wraps once, at the return; longer chains
        # wrap early as well
        for n, wraps in ((4, 1), (5, 2), (20, 7)):
            chain = reduce(lambda acc, _: Arith("mul", acc, X), range(n - 1), X)
            fn = compile_unary(chain)
            for x in (3, I64_MAX, I64_MIN, -(1 << 32) - 1):
                assert fn(x) == eval_scalar(chain, (x,))
            source = lambdas._compile(chain, ("x0",), 0).source
            assert source.count("wrap_i64(") == wraps

    def test_instance_returns_wrapped_value(self):
        inc = compile_unary(Arith("add", Arith("mul", X, X), Const(1)))
        assert inc(1 << 32) == 1
        assert type(inc(I64_MAX)) is int
        assert I64_MIN <= inc(I64_MAX) <= I64_MAX


def _slices(n):
    return ((0, n), (0, n + 5), (0, 3), (2, 5), (5, 5))


def check_slices(query, values, make, inner=None):
    """exec_fused over each slice equals the oracle on that slice."""
    plan = optimize(query)
    extra = {} if inner is None else {"inner": inner}
    for lo, hi in _slices(len(values)):
        want = run_to_outcome(lambda: oracle_run(query, {"src": make(values[lo:hi]), **extra}))
        got = run_to_outcome(
            lambda: exec_fused(plan, {"src": make(values), **extra}, lo=lo, hi=hi))
        assert got == want


layouts = st.sampled_from((ints_dataset, refs_dataset))
divisors = st.one_of(st.sampled_from((0, 1, -1, 2, -3, 7, I64_MIN, I64_MAX)),
                     st.integers(I64_MIN, I64_MAX))


class TestFusedEqualsOracle:
    # each example compiles a plan and runs the oracle over five slices
    @settings(deadline=None)
    @given(trees(), divisors, st.sampled_from(("eq", "lt")), edge_values,
           st.sampled_from(ARITH), trees(), st.lists(edge_values, max_size=10),
           st.sampled_from(Terminal), layouts)
    def test_guard_and_body_share_a_mod(self, f, k, op, c, op2, g, values,
                                        terminal, make):
        shared = Arith("mod", X, Const(k))
        stages = [Map(make_lambda(f)), Filter(make_lambda(Cmp(op, shared, Const(c)))),
                  Map(make_lambda(Arith(op2, shared, g)))]
        check_slices(build_query("src", stages, terminal), values, make)

    @settings(deadline=None)
    @given(trees(), trees(n_captures=1), predicates(n_captures=1),
           st.sampled_from(("map", "filter", "both")),
           st.lists(edge_values, max_size=8), st.lists(edge_values, max_size=4),
           st.sampled_from(Terminal), layouts, layouts)
    def test_flat_map(self, f, inner_f, inner_p, shape, values, inner_values,
                      terminal, make, make_inner):
        inner_stages = {"map": (Map(make_lambda(inner_f, captures=1)),),
                        "filter": (Filter(make_lambda(inner_p, captures=1)),),
                        "both": (Filter(make_lambda(inner_p, captures=1)),
                                 Map(make_lambda(inner_f, captures=1)))}[shape]
        q = build_query("src", [Map(make_lambda(f)), FlatMap("inner", inner_stages)],
                        terminal)
        check_slices(q, values, make, make_inner(inner_values))

    @settings(deadline=None)
    @given(constant_heavy_stages(), st.none() | constant_heavy_stages(captures=1),
           st.lists(edge_values, max_size=8), st.lists(edge_values, max_size=4),
           st.sampled_from(Terminal), layouts)
    def test_constant_heavy_pipeline(self, outer, inner, values, inner_values,
                                     terminal, make):
        stages = outer if inner is None else [*outer, FlatMap("inner", tuple(inner))]
        check_slices(build_query("src", stages, terminal), values, make,
                     None if inner is None else make(inner_values))

    @pytest.mark.parametrize("make", [ints_dataset, refs_dataset])
    @pytest.mark.parametrize("terminal", list(Terminal))
    def test_raising_outer_only_subtree_needs_an_inner_element(self, make, terminal):
        # (c0 mod 0) reads only the outer element and raises: it must stay in
        # the inner loop, so an inner source that is empty or fully filtered
        # raises nothing, as in every other engine
        fails = Arith("mod", C, Const(0))
        in_guard = (Filter(make_lambda(Cmp("lt", X, fails), captures=1)),)
        in_body = (Map(make_lambda(Arith("add", X, fails), captures=1)),)
        filtered = (Filter(make_lambda(Cmp("lt", X, X))), *in_body)
        ok, err = ("ok", 0), ("err", DivisionByZero)
        for stages, inner, want in ((in_guard, [], ok), (in_body, [], ok),
                                    (filtered, [1, 2], ok), (in_guard, [1, 2], err),
                                    (in_body, [1, 2], err)):
            q = build_query("src", [FlatMap("inner", stages)], terminal)
            outcomes = engine_outcomes(q, {"src": make([3, 4]), "inner": make(inner)})
            assert set(outcomes.values()) == {want}, outcomes


def _source(name):
    bench = next(b for b in define_suite() if b.name == name)
    return compile_plan(optimize(bench.build_query()), bench.gen_inputs(8)).source


class TestGeneratedText:
    @pytest.mark.parametrize("name, fold", [("cart", "acc += x1 * x0"),
                                            ("sumOfSquaresEven", "acc += x0 * x0")])
    def test_suite_loops_have_no_wrap_check(self, name, fold):
        source = _source(name)
        assert "MIN <=" not in source
        assert fold in source

    def test_outer_only_subtree_is_hoisted(self):
        fm = FlatMap("inner", (Map(make_lambda(Arith("mul", X, Arith("mul", C, C)),
                                               captures=1)),))
        q = build_query("src", [fm], Terminal.SUM)
        ds = {"src": ints_dataset([3, -5]), "inner": ints_dataset([1, 2])}
        run = compile_plan(optimize(q), ds)
        assert run.source.count("x0 * x0") == 1
        assert run.source.index("x0 * x0") < run.source.index("for x1")
        assert run(0, 2) == oracle_run(q, ds)

    def test_hoisted_value_a_guard_compares_is_wrapped_once_per_outer(self):
        square = Arith("mul", C, C)
        fm = FlatMap("inner", (Filter(make_lambda(Cmp("lt", X, square), captures=1)),
                               Map(make_lambda(Arith("add", X, square), captures=1))))
        q = build_query("src", [fm], Terminal.SUM)
        ds = {"src": ints_dataset([1 << 32, -3]), "inner": ints_dataset([-1, 2, 12])}
        run = compile_plan(optimize(q), ds)
        assert run.source.count("MIN <=") == 1
        assert run.source.index("MIN <=") < run.source.index("for x1")
        assert run(0, 2) == oracle_run(q, ds)

    def test_shared_subtree_is_computed_once(self):
        f = Arith("add", Arith("mul", X, X), Const(3))
        q = build_query("src", [Map(make_lambda(f)),
                                Filter(make_lambda(Cmp("lt", Const(5), X))),
                                Map(make_lambda(Arith("mul", X, X)))], Terminal.SUM)
        ds = {"src": ints_dataset(range(-4, 4))}
        run = compile_plan(optimize(q), ds)
        assert run.source.count("x0 * x0") == 1
        assert run(0, 8) == oracle_run(q, ds)

    def test_product_over_a_mod_by_a_constant_is_hoisted(self):
        # a mod by a non-zero constant cannot raise, so c0 * c0 over the
        # outer x mod 7 is computed once per outer element
        fm = FlatMap("inner", (Map(make_lambda(Arith("mul", X, Arith("mul", C, C)),
                                               captures=1)),))
        q = build_query("src", [Map(make_lambda(Arith("mod", X, Const(7)))), fm],
                        Terminal.SUM)
        ds = {"src": ints_dataset([I64_MIN, -9, 0, 13, I64_MAX]),
              "inner": ints_dataset([1, -2, I64_MAX])}
        outer, inner = compile_plan(optimize(q), ds).source.split("for x1")
        assert "t0 * t0" in outer
        assert inner.count("*") == 1
        check_slices(q, [I64_MIN, -9, 0, 13, I64_MAX], ints_dataset, ds["inner"])

    def test_count_evaluates_no_mod_by_a_constant(self):
        q = build_query("src", [Map(make_lambda(Arith("mod", X, Const(7))))],
                        Terminal.COUNT)
        assert "%" not in compile_plan(optimize(q), {"src": ints_dataset([1])}).source

    @pytest.mark.parametrize("make", [ints_dataset, refs_dataset])
    @pytest.mark.parametrize("k", [3, -3, I64_MIN])
    def test_shared_mod_is_computed_once(self, make, k):
        rem = Arith("mod", X, Const(k))
        q = build_query("src", [Filter(make_lambda(Cmp("eq", rem, Const(0)))),
                                Map(make_lambda(Arith("add", rem, X)))], Terminal.SUM)
        source = compile_plan(optimize(q), {"src": make([1])}).source
        assert sum("%" in line for line in source.splitlines()) == 1
        check_slices(q, [I64_MIN, I64_MIN + 1, -6, -4, -3, 0, 3, 5, I64_MAX - 1,
                         I64_MAX], make)

    def test_refs_inner_source_pays_its_pointer_chase(self):
        q = build_query("src", [FlatMap("inner", ())], Terminal.SUM)
        ds = {"src": ints_dataset([1, 2]), "inner": refs_dataset([10, 20])}
        run = compile_plan(optimize(q), ds)
        assert "x1 = r.value" in run.source
        assert run(0, 2) == 60


class TestFolding:
    def test_constant_product_folds_to_its_wrapped_value(self):
        for a, b in ((3, 5), (1 << 40, 1 << 40), (I64_MAX, I64_MIN), (-(1 << 62), 7)):
            body = Arith("add", Arith("mul", Const(a), Const(b)), X)
            fn = CallSiteCache().bind(make_lambda(body))
            assert "*" not in fn.source
            for x in (0, 1, I64_MAX, I64_MIN):
                assert fn(x) == eval_scalar(body, (x,))

    def test_constant_comparison_returns_a_bool(self):
        assert compile_unary(Cmp("lt", Const(1), Const(2)))(0) is True
        assert compile_unary(Cmp("eq", Arith("mul", Const(I64_MAX), Const(2)),
                                 Const(-2)))(5) is True
        fn = CallSiteCache().bind(make_lambda(Cmp("lt", Const(2), Const(1))))
        assert fn(0) is False
        assert "<" not in fn.source

    @pytest.mark.parametrize("make", [ints_dataset, refs_dataset])
    def test_mod_by_constant_zero_is_never_folded(self, make):
        fails = Arith("add", X, Arith("mod", Const(5), Const(0)))
        assert "mod_i64(" in lambdas._compile(fails, ("x0",), 0).source
        q = build_query("src", [Map(make_lambda(fails))], Terminal.SUM)
        outcomes = engine_outcomes(q, {"src": make([1, 2])})
        assert set(outcomes.values()) == {("err", DivisionByZero)}, outcomes
        # it raises per element: no element, or none kept, raises nothing
        dropped = build_query("src", [Filter(make_lambda(Cmp("lt", X, X))),
                                      Map(make_lambda(fails))], Terminal.SUM)
        for query, rows in ((q, []), (dropped, [1, 2])):
            outcomes = engine_outcomes(query, {"src": make(rows)})
            assert set(outcomes.values()) == {("ok", 0)}, outcomes

    @pytest.mark.parametrize("terminal", list(Terminal))
    def test_guard_folding_to_false_empties_the_plan(self, terminal):
        never = Filter(make_lambda(Cmp("lt", Arith("mul", Const(3), Const(4)), Const(5))))
        inner_never = Filter(make_lambda(Cmp("eq", Const(1), Const(2)), captures=1))
        values = [I64_MIN, -3, 0, 7, I64_MAX]
        inner = ints_dataset([1, 0, -1])
        for stages in ([Map(make_lambda(Arith("mod", X, Const(3)))), never],
                       [never, Map(make_lambda(Arith("mul", X, X)))],
                       [FlatMap("inner", (Map(make_lambda(Arith("add", X, C),
                                                          captures=1)), inner_never))]):
            q = build_query("src", stages, terminal)
            ds = {"src": ints_dataset(values), "inner": inner}
            assert "for" not in compile_plan(optimize(q), ds).source
            check_slices(q, values, ints_dataset, inner)
        # the flat-map plan, last above, is empty, yet every engine still
        # resolves the inner source it names
        del ds["inner"]
        for workers in (1, 3):
            outcomes = engine_outcomes(q, ds, workers)
            assert set(outcomes.values()) == {("err", UnresolvedDataset)}, outcomes

    @pytest.mark.parametrize("terminal", list(Terminal))
    def test_guard_folding_to_false_keeps_a_loop_that_can_raise(self, terminal):
        # x mod x raises at x = 0 before the guard drops the element, so the
        # loop stays: ahead of the guard, in it, or as the outer element
        mod_x = Arith("mod", X, X)
        never = Filter(make_lambda(Cmp("lt", Const(2), Const(1))))
        inner_never = Filter(make_lambda(Cmp("lt", Const(2), Const(1)), captures=1))
        values = [5, -3, 0, 7]
        inner = ints_dataset([1, 2])
        for stages in ([Map(make_lambda(mod_x)), never],
                       [Filter(make_lambda(Cmp("eq", mod_x, Const(0)))), never],
                       [Map(make_lambda(mod_x)), FlatMap("inner", (inner_never,))]):
            q = build_query("src", stages, terminal)
            ds = {"src": ints_dataset(values), "inner": inner}
            assert "for" in compile_plan(optimize(q), ds).source
            assert run_to_outcome(lambda: exec_fused(optimize(q), ds)) == \
                ("err", DivisionByZero)
            check_slices(q, values, ints_dataset, inner)

    @pytest.mark.parametrize("make", [ints_dataset, refs_dataset])
    def test_guard_folding_to_true_is_dropped(self, make):
        always = Filter(make_lambda(Cmp("eq", Arith("sub", Const(9), Const(4)), Const(5))))
        q = build_query("src", [always, Map(make_lambda(Arith("add", X, Const(1))))],
                        Terminal.COUNT)
        # no guard left, and the body cannot raise: a count needs no loop
        source = compile_plan(optimize(q), {"src": make([1])}).source
        assert "for" not in source
        check_slices(q, [4, -4, 0], make)

    def test_long_add_chain_stays_under_the_parser_nesting_limit(self, monkeypatch):
        # with a wide budget nothing wraps, so only the nesting cap
        # keeps 240 nested additions out of one expression
        monkeypatch.setattr(lambdas, "WRAP_BUDGET", 1024)
        inc = Arith("add", X, Const(1))
        q = build_query("src", [Map(make_lambda(inc)) for _ in range(240)], Terminal.SUM)
        ds = {"src": ints_dataset([1, -5, I64_MAX, I64_MIN])}
        assert compile_plan(optimize(q), ds)(0, 4) == oracle_run(q, ds)
        chain = reduce(lambda acc, _: Arith("add", acc, X), range(240), X)
        for x in (3, I64_MAX, I64_MIN):
            assert compile_unary(chain)(x) == eval_scalar(chain, (x,))


def squared(tree, times):
    """`tree` squared `times` times over: each node is both operands of the
    next, so the tree holds times + 1 distinct nodes and 2**times paths."""
    for _ in range(times):
        tree = Arith("mul", tree, tree)
    return tree


def power(x, e):
    return wrap_i64(pow(x, e, 1 << 64))


class TestSharedSubtrees:
    """Every walk before the first element is linear in a tree's distinct
    nodes, not in its paths."""

    XS = (3, -3, 2, -2, 0, 1, -1, 12345678901, I64_MAX, I64_MIN)

    def test_x_squared_40_times_links_optimizes_and_compiles(self):
        start = time.perf_counter()
        fn = CallSiteCache().bind(make_lambda(squared(X, 40)))
        assert [fn(x) for x in self.XS] == [power(x, 1 << 40) for x in self.XS]
        # two equal trees built apart: the emitter's tables compare them
        zero = CallSiteCache().bind(make_lambda(Arith("sub", squared(X, 22), squared(X, 22))))
        assert [zero(x) for x in self.XS] == [0] * len(self.XS)
        # a filter on the same power again, composed over the map by fusion
        q = build_query("src", [Map(make_lambda(squared(X, 40))),
                                Filter(make_lambda(Cmp("lt", squared(X, 40), Const(5))))],
                        Terminal.SUM)
        ys = [power(x, 1 << 40) for x in self.XS]
        want = wrap_i64(sum(y for y in ys if power(y, 1 << 40) < 5))
        ds = {"src": ints_dataset(self.XS)}
        assert compile_plan(optimize(q), ds)(0, len(self.XS)) == want
        # an inner tree whose invariant x0 * 2 sits under 2**40 paths
        inner = squared(Arith("add", X, Arith("mul", C, Const(2))), 40)
        fm = build_query("src", [FlatMap("inner", (Map(make_lambda(inner, captures=1)),))],
                         Terminal.SUM)
        ds["inner"] = ints_dataset([5, -7])
        want_fm = wrap_i64(sum(power(y + 2 * x, 1 << 40)
                               for x in self.XS for y in (5, -7)))
        assert compile_plan(optimize(fm), ds)(0, len(self.XS)) == want_fm
        assert time.perf_counter() - start < 1.0
        for run in (run_pull, run_push, run_fused):
            assert run(q, ds) == want
            assert run(fm, ds) == want_fm


class TestParallelSingleLeaf:
    def test_runs_inline_and_links_per_worker(self, monkeypatch):
        forked = []
        real_fork = parallel.os.fork

        def recording_fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(parallel.os, "fork", recording_fork)
        sq = make_lambda(Arith("mul", X, X))
        q = build_query("src", [Map(sq)], Terminal.SUM)
        for n, forks in ((10, 0), (40, 0), (parallel.FORK_MIN_ROWS, 1)):
            ds = {"src": ints_dataset(range(n))}
            want = oracle_run(q, ds)
            counters = CounterSet()
            config = ParallelConfig(workers=2, split_threshold=16)
            forked.clear()
            assert run_parallel(q, ds, config, counters) == want
            assert run_parallel(optimize(q), ds, config) == want
            assert len(forked) == 2 * forks
            assert counters.sites[sq.site_id].link_events == 2
            assert counters.stages[1].control_dispatches == n


class _CountingBinds(CallSiteCache):
    def __init__(self, counters):
        super().__init__(counters)
        self.binds = 0

    def bind(self, lam, captures=()):
        self.binds += 1
        return super().bind(lam, captures)


def _drive_pull(query, ds, cache):
    chain = open_chain(query, ds, cache.counters, cache)
    total = 0
    while chain.advance():
        total += chain.get()
    return total


def _drive_push(query, ds, cache):
    head, sink = build_chain(query, ds, cache.counters, cache)
    for_each_remaining(SplitCursor(ds["src"]), head)
    return sink.result()


class TestFlatMapBinds:
    @pytest.mark.parametrize("drive", [_drive_pull, _drive_push])
    def test_first_outer_element_binds_through_the_cache(self, drive):
        scaled = make_lambda(Arith("mul", X, C), captures=1)
        keep = make_lambda(Cmp("lt", C, X), captures=1)
        plain = make_lambda(Arith("add", X, Const(1)))
        q = build_query("src", [FlatMap("inner", (Filter(keep), Map(plain), Map(scaled)))],
                        Terminal.SUM)
        ds = {"src": ints_dataset(range(6)), "inner": refs_dataset(range(4))}
        cache = _CountingBinds(CounterSet())
        assert drive(q, ds, cache) == oracle_run(q, ds)
        assert cache.binds == 3
        assert cache.stats(scaled.site_id) == (1, 6)
        assert cache.stats(keep.site_id) == (1, 6)
        assert cache.stats(plain.site_id) == (1, 1)

    @pytest.mark.parametrize("drive", [_drive_pull, _drive_push])
    def test_unreached_flat_map_links_nothing(self, drive):
        scaled = make_lambda(Arith("mul", X, C), captures=1)
        q = build_query("src", [Filter(make_lambda(Cmp("lt", X, X))),
                                FlatMap("inner", (Map(scaled),))], Terminal.SUM)
        ds = {"src": ints_dataset(range(6)), "inner": ints_dataset(range(4))}
        cache = _CountingBinds(CounterSet())
        assert drive(q, ds, cache) == 0
        assert cache.stats(scaled.site_id) == (0, 0)

