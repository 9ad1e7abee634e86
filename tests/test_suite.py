"""Benchmark definitions, handwritten baselines, and the brute-force oracle."""

import pytest

from streambench.counters import CounterSet
from streambench.errors import DivisionByZero
from streambench.exprs import Arith, Const, Param
from streambench.fuse import run_fused
from streambench.lambdas import make_lambda
from streambench.pull import run_pull
from streambench.push import run_push
from streambench.query import (
    IntsDataset,
    Map,
    RefsDataset,
    Terminal,
    build_query,
    ints_dataset,
)
from streambench.suite import define_suite, oracle_run, suite_by_name

EXPECTED_AT_SMALL_N = {
    # independently derived: closed forms / by-hand enumeration
    "sum": (10, 45),
    "sumOfSquares": (10, 285),
    "sumOfSquaresEven": (10, 120),
    "cart": (100, 2025),  # sum(0..9) * sum(0..9)
    "refs": (10, 1),      # only 0 is divisible by 3 and 5
}


class TestDefinitions:
    def test_names_and_order(self):
        names = [b.name for b in define_suite()]
        assert names == ["sum", "sumOfSquares", "sumOfSquaresEven", "cart", "refs"]
        assert set(suite_by_name()) == set(names)

    def test_linear_inputs(self):
        bench = suite_by_name()["sum"]
        ds = bench.gen_inputs(10)
        assert isinstance(ds["data"], IntsDataset)
        assert list(ds["data"].data) == list(range(10))

    def test_cart_inputs_scale_outer_by_ten(self):
        bench = suite_by_name()["cart"]
        ds = bench.gen_inputs(1000)
        assert len(ds["outer"]) == 100
        assert len(ds["inner"]) == 10

    def test_refs_inputs_are_indirected(self):
        bench = suite_by_name()["refs"]
        ds = bench.gen_inputs(10)
        assert isinstance(ds["data"], RefsDataset)
        assert len(ds["data"]) == 10

    def test_refs_query_counts(self):
        q = suite_by_name()["refs"].build_query()
        assert q.terminal is Terminal.COUNT

    def test_queries_get_fresh_call_sites(self):
        bench = suite_by_name()["sumOfSquares"]
        a = bench.build_query().stages[0].fn
        b = bench.build_query().stages[0].fn
        assert a.site_id != b.site_id
        assert a.body == b.body


class TestExpectedValues:
    @pytest.mark.parametrize("name", sorted(EXPECTED_AT_SMALL_N))
    def test_small_n_frozen_values(self, name):
        n, want = EXPECTED_AT_SMALL_N[name]
        bench = suite_by_name()[name]
        ds = bench.gen_inputs(n)
        assert bench.baseline(ds) == want
        assert oracle_run(bench.build_query(), ds) == want

    @pytest.mark.parametrize("name", sorted(EXPECTED_AT_SMALL_N))
    def test_baseline_equals_oracle_at_thousand(self, name):
        bench = suite_by_name()[name]
        ds = bench.gen_inputs(1000)
        want = oracle_run(bench.build_query(), ds)
        assert bench.baseline(ds) == want
        assert run_pull(bench.build_query(), ds, CounterSet()) == want
        assert run_push(bench.build_query(), ds, CounterSet()) == want
        assert run_fused(bench.build_query(), ds) == want

    @pytest.mark.parametrize(
        "n", [1, 14, 15, 16, 29, 30, 31, 100, 1000])
    def test_refs_closed_form(self, n):
        bench = suite_by_name()["refs"]
        want = (n - 1) // 15 + 1  # multiples of 15 in 0..n-1
        assert bench.baseline(bench.gen_inputs(n)) == want

    def test_empty_inputs(self):
        for bench in define_suite():
            ds = bench.gen_inputs(0)
            assert bench.baseline(ds) == 0
            assert oracle_run(bench.build_query(), ds) == 0


class TestBaselineWrapping:
    def test_sum_of_squares_wraps_like_oracle(self):
        bench = suite_by_name()["sumOfSquares"]
        ds = {"data": ints_dataset([1 << 32, (1 << 32) + 1, -(1 << 40)])}
        assert bench.baseline(ds) == oracle_run(bench.build_query(), ds)

    def test_sum_of_squares_even_wraps_like_oracle(self):
        bench = suite_by_name()["sumOfSquaresEven"]
        # even values from 2**32 up, so the kept squares wrap
        ds = {"data": ints_dataset([1 << 32, (1 << 32) + 1, -(1 << 40),
                                    3 << 33])}
        assert bench.baseline(ds) == oracle_run(bench.build_query(), ds)

    def test_cart_wraps_like_oracle(self):
        bench = suite_by_name()["cart"]
        ds = {"outer": ints_dataset([1 << 33, -(1 << 31)]),
              "inner": ints_dataset([1 << 31, 3])}
        assert bench.baseline(ds) == oracle_run(bench.build_query(), ds)

    def test_plain_sum_wraps(self):
        bench = suite_by_name()["sum"]
        big = (1 << 63) - 1
        ds = {"data": ints_dataset([big, big, 5])}
        assert bench.baseline(ds) == oracle_run(bench.build_query(), ds)


class TestOracle:
    def test_propagates_evaluation_errors(self):
        q = build_query(
            "data", [Map(make_lambda(Arith("mod", Param(0), Const(0))))],
            Terminal.SUM)
        with pytest.raises(DivisionByZero):
            oracle_run(q, {"data": ints_dataset([1])})
