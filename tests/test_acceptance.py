"""Acceptance gate: one test per advertised guarantee, heaviest checks last.

Each test prints a single summary line so a full run reads as a checklist.
These run the real workloads at their documented sizes; expect several
minutes for the parallel determinism matrix.
"""

import math
import random
import time

import pytest
import scipy.stats

from conftest import engine_outcomes, random_pipeline
from streambench.cli import run_cli
from streambench.counters import CounterSet
from streambench.fuse import exec_fused, optimize, render_plan
from streambench.harness import BenchTask, Sink, compare, measure, student_t_stats
from streambench.parallel import ParallelConfig, run_parallel
from streambench.pull import run_pull
from streambench.push import run_push
from streambench.suite import suite_by_name

from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"
DEFAULT_N = 10_000_000


def report(criterion: str, ok: bool, detail: str) -> None:
    # on a line of its own, apart from the progress dots
    print(f"\nacceptance [{criterion}]: {'PASS' if ok else 'FAIL'} — {detail}")


# -- 1. oracle equivalence ---------------------------------------------------


def test_criterion_1_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    code = run_cli(["--bench", "all", "--engine", "all", "--n", "1000",
                    "--check"])
    check_ok = code == 0

    rng = random.Random(20260814)
    mismatches = 0
    for _ in range(1000):
        query, datasets = random_pipeline(rng)
        outcomes = engine_outcomes(query, datasets)
        want = outcomes.pop("oracle")
        if any(got != want for got in outcomes.values()):
            mismatches += 1
    elapsed = time.perf_counter() - t0

    ok = check_ok and mismatches == 0 and elapsed < 30.0
    with capsys.disabled():
        report("1 oracle equivalence",
               ok,
               f"--check exit={code}, random-pipeline mismatches="
               f"{mismatches}/1000, elapsed={elapsed:.1f}s (< 30s)")
    assert check_ok, "--check reported an engine/oracle mismatch"
    assert mismatches == 0
    assert elapsed < 30.0


# -- 2. dispatch laws --------------------------------------------------------


def test_criterion_2_dispatch_laws(capsys):
    bench = suite_by_name()["sumOfSquaresEven"]
    ds = bench.gen_inputs(1000)
    emitted = {"source": 1000, "0:filter": 500, "1:map": 500}

    pull_counters = CounterSet()
    run_pull(bench.build_query(), ds, pull_counters)
    pull_ok = all(
        s.control_dispatches == 2 * emitted[s.label] + 1
        for s in pull_counters.stages)

    push_counters = CounterSet()
    run_push(bench.build_query(), ds, push_counters)
    entering = {"source": 0, "0:filter": 1000, "1:map": 500}
    push_ok = all(
        s.control_dispatches == entering[s.label]
        for s in push_counters.stages)

    fused_counters = CounterSet()
    exec_fused(optimize(bench.build_query()), ds, fused_counters)
    fused_ok = (fused_counters.control_dispatches == 0
                and fused_counters.lambda_applies == 0)

    applies_ok = (
        [s.lambda_applies for s in pull_counters.stages] == [0, 1000, 500]
        and [s.lambda_applies for s in push_counters.stages] == [0, 1000, 500])

    ok = pull_ok and push_ok and fused_ok and applies_ok
    with capsys.disabled():
        report("2 dispatch laws", ok,
               "pull per stage "
               f"{[s.control_dispatches for s in pull_counters.stages]} == 2k+1, "
               f"push {[s.control_dispatches for s in push_counters.stages]} == k, "
               "fused all zero")
    assert pull_ok
    assert push_ok
    assert fused_ok
    assert applies_ok


# -- 3. closure model --------------------------------------------------------


def test_criterion_3_closure_model(capsys):
    suite = suite_by_name()

    bench = suite["sumOfSquares"]
    query = bench.build_query()
    counters = CounterSet()
    run_push(query, bench.gen_inputs(DEFAULT_N), counters)
    map_site = counters.sites[query.stages[0].fn.site_id]
    linear_ok = (map_site.link_events, map_site.instantiations) == (1, 1)

    cart = suite["cart"]
    cart_query = cart.build_query()
    cart_counters = CounterSet()
    run_push(cart_query, cart.gen_inputs(DEFAULT_N), cart_counters)
    inner_site = cart_counters.sites[cart_query.stages[0].stages[0].fn.site_id]
    cart_ok = (inner_site.link_events == 1
               and inner_site.instantiations == 1_000_000)

    ok = linear_ok and cart_ok
    with capsys.disabled():
        report("3 closure model", ok,
               f"sumOfSquares site links/instances = ({map_site.link_events}, "
               f"{map_site.instantiations}) want (1, 1); cart inner "
               f"instantiations = {inner_site.instantiations} want 1000000")
    assert linear_ok
    assert cart_ok


# -- 4. performance ordering -------------------------------------------------


def test_criterion_4_performance_ordering(capsys):
    bench = suite_by_name()["sumOfSquaresEven"]
    ds = bench.gen_inputs(1_000_000)
    expected = bench.baseline(ds)
    sink = Sink()

    def task_for(runner):
        return BenchTask("sumOfSquaresEven", lambda: None,
                         lambda _state: runner(), expected)

    query = bench.build_query()
    plan = optimize(bench.build_query())
    runners = {
        "pull": lambda: run_pull(query, ds, CounterSet()),
        "push": lambda: run_push(query, ds, CounterSet()),
        "fused": lambda: exec_fused(plan, ds, CounterSet()),
    }
    t0 = time.perf_counter()
    stats = {name: measure(task_for(r), warmup=10, iters=10, sink=sink)
             for name, r in runners.items()}
    elapsed = time.perf_counter() - t0

    fused_vs_push = compare(stats["fused"], stats["push"])
    push_vs_pull = compare(stats["push"], stats["pull"])
    fused_vs_pull = compare(stats["fused"], stats["pull"])
    ordered = (stats["fused"].mean < stats["push"].mean < stats["pull"].mean)
    disjoint = (fused_vs_push.significantly_faster
                and push_vs_pull.significantly_faster
                and fused_vs_pull.significantly_faster)
    ok = ordered and disjoint and elapsed < 120.0
    with capsys.disabled():
        report("4 performance ordering", ok,
               f"means ms: fused={stats['fused'].mean:.1f} < "
               f"push={stats['push'].mean:.1f} < pull={stats['pull'].mean:.1f}, "
               f"all 95% CIs disjoint={disjoint}, elapsed={elapsed:.1f}s (< 120s)")
    assert ordered, {k: v.mean for k, v in stats.items()}
    assert disjoint
    assert elapsed < 120.0


# -- 5. fusion structure -----------------------------------------------------


def test_criterion_5_golden_plans(capsys):
    suite = suite_by_name()
    results = {}
    for name in ("sumOfSquaresEven", "cart"):
        plan = optimize(suite[name].build_query())
        got = render_plan(plan) + "\n"
        want = (GOLDEN_DIR / f"plan_{name}.txt").read_text()
        results[name] = (plan, got == want)

    sose_plan, sose_text_ok = results["sumOfSquaresEven"]
    cart_plan, cart_text_ok = results["cart"]
    sose_shape_ok = (sose_plan.inner is None
                     and len(sose_plan.outer.guards) == 1)
    cart_shape_ok = cart_plan.inner is not None

    ok = sose_text_ok and cart_text_ok and sose_shape_ok and cart_shape_ok
    with capsys.disabled():
        report("5 fusion structure", ok,
               f"sumOfSquaresEven: 1 loop, 1 guard, golden text match="
               f"{sose_text_ok}; cart: depth-2 nest, golden text match="
               f"{cart_text_ok}")
    assert sose_shape_ok
    assert cart_shape_ok
    assert sose_text_ok
    assert cart_text_ok


# -- 6. parallel determinism -------------------------------------------------


@pytest.mark.parametrize("bench_name", ["sum", "cart"])
def test_criterion_6_parallel_determinism(bench_name, capsys):
    bench = suite_by_name()[bench_name]
    ds = bench.gen_inputs(DEFAULT_N)
    query = bench.build_query()
    plan = optimize(bench.build_query())

    seq_push_counters = CounterSet()
    want = run_push(query, ds, seq_push_counters)
    want_applies = seq_push_counters.lambda_applies
    assert exec_fused(plan, ds) == want

    failures = []
    runs = 0
    for workers in (1, 2, 4, 8):
        config = ParallelConfig(workers=workers)
        for rep in range(20):
            counters = CounterSet()
            got = run_parallel(query, ds, config, counters)
            runs += 1
            if got != want:
                failures.append((workers, rep, "push-par value", got))
            if counters.lambda_applies != want_applies:
                failures.append(
                    (workers, rep, "push-par applies", counters.lambda_applies))
            fused_counters = CounterSet()
            got_fused = run_parallel(plan, ds, config, fused_counters)
            runs += 1
            if got_fused != want:
                failures.append((workers, rep, "fused-par value", got_fused))
            if fused_counters.lambda_applies != 0:
                failures.append(
                    (workers, rep, "fused-par applies",
                     fused_counters.lambda_applies))

    ok = not failures
    with capsys.disabled():
        report(f"6 parallel determinism [{bench_name}]", ok,
               f"{runs} parallel runs over workers {{1,2,4,8}} x 20 reps, "
               f"value always {want:#x}, merged lambda_applies always "
               f"{want_applies}, failures={len(failures)}")
    assert ok, failures[:5]


# -- 7. statistics -----------------------------------------------------------


def test_criterion_7_statistics(capsys):
    rng = random.Random(777)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(2, 61)  # df 1..60
        xs = [rng.uniform(-1e3, 1e3) for _ in range(n)]
        mean, sd, ci = student_t_stats(xs)
        want_mean = float(scipy.stats.tmean(xs))
        want_sd = float(scipy.stats.tstd(xs))
        want_ci = float(scipy.stats.t.ppf(0.975, n - 1)) * want_sd / math.sqrt(n)
        for got, want in ((mean, want_mean), (sd, want_sd), (ci, want_ci)):
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, rel)
    oracle_ok = worst <= 1e-9

    mean, sd, ci = student_t_stats(list(range(1, 11)))
    # oracle-derived truth, pinned tight
    exact_ok = (mean == 5.5
                and math.isclose(sd, 3.0276503540974917, rel_tol=1e-12)
                and math.isclose(ci, 2.1658505896681696, rel_tol=1e-12))
    # advertised constants, matched at 1e-4 relative error
    fixture_ok = (abs(mean - 5.5) <= 1e-4 * 5.5
                  and abs(sd - 3.02765) <= 1e-4 * 3.02765
                  and abs(ci - 2.16597) <= 1e-4 * 2.16597)

    ok = oracle_ok and exact_ok and fixture_ok
    with capsys.disabled():
        report("7 statistics", ok,
               f"worst relative error vs oracle over 1000 vectors = "
               f"{worst:.2e} (<= 1e-9); fixture (5.5, {sd:.5f}, {ci:.5f}) "
               "within 1e-4 relative of (5.5, 3.02765, 2.16597)")
    assert oracle_ok, worst
    assert exact_ok, (mean, sd, ci)
    assert fixture_ok, (mean, sd, ci)


# -- 8. parallel speedup (soft, report-only) ---------------------------------


def test_criterion_8_parallel_speedup_report(capsys):
    import os

    cores = os.cpu_count() or 1
    bench = suite_by_name()["sum"]
    ds = bench.gen_inputs(DEFAULT_N)
    expected = bench.baseline(ds)
    query = bench.build_query()
    plan = optimize(bench.build_query())
    config = ParallelConfig()
    sink = Sink()

    def bench_task(runner):
        return BenchTask("sum", lambda: None, lambda _s: runner(), expected)

    runners = {
        "push": lambda: run_push(query, ds, CounterSet()),
        "push-par": lambda: run_parallel(query, ds, config, CounterSet()),
        "fused": lambda: exec_fused(plan, ds, CounterSet()),
        "fused-par": lambda: run_parallel(plan, ds, config, CounterSet()),
    }
    stats = {name: measure(bench_task(r), warmup=2, iters=5, sink=sink)
             for name, r in runners.items()}
    push_ratio = stats["push-par"].mean / stats["push"].mean
    fused_ratio = stats["fused-par"].mean / stats["fused"].mean
    premise = cores >= 2
    satisfied = push_ratio <= 1.0 and fused_ratio <= 1.0
    with capsys.disabled():
        report("8 parallel speedup (soft)", True,
               f"cores={cores} (premise needs >= 2: {premise}); "
               f"push-par/push = {push_ratio:.2f}, fused-par/fused = "
               f"{fused_ratio:.2f}; par <= seq: {satisfied} — reported, "
               "not gating")
    # soft criterion: never gates
