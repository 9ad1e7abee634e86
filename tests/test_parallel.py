"""Parallel runs: leaf splitting, determinism, counter conservation."""

import errno
import os
import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from conftest import random_pipeline
from test_layouts import BoxedDataset
from test_push_counts import TERMINAL_SHAPES, push_law
from streambench.counters import CounterSet
from streambench.errors import DivisionByZero, InvalidPipeline, WorkerFailed
from streambench.exprs import Arith, Capture, Cmp, Const, Param
from streambench import fuse, parallel
from streambench.fuse import optimize
from streambench.lambdas import make_lambda
from streambench.parallel import ParallelConfig, run_parallel, split_tasks
from streambench.pull import run_pull
from streambench.push import SplitCursor, run_push
from streambench.query import (
    Filter,
    FlatMap,
    Map,
    Terminal,
    build_query,
    ints_dataset,
    refs_dataset,
)
from streambench.suite import oracle_run

SQUARE = Arith("mul", Param(0), Param(0))
EVEN = Cmp("eq", Arith("mod", Param(0), Const(2)), Const(0))
SCALED = Arith("mul", Param(0), Capture(0))


def sose_query(terminal=Terminal.SUM):
    return build_query("src", [Filter(make_lambda(EVEN)),
                               Map(make_lambda(SQUARE))], terminal)


def cart_query(n_outer, n_inner):
    fm = FlatMap("inner", (Map(make_lambda(SCALED, captures=1)),))
    q = build_query("outer", [fm], Terminal.SUM)
    ds = {"outer": ints_dataset(range(n_outer)),
          "inner": ints_dataset(range(n_inner))}
    return q, ds


class TestConfig:
    def test_defaults(self):
        cfg = ParallelConfig()
        assert cfg.resolved_workers() >= 1
        assert cfg.split_threshold == 8192

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(split_threshold=0)


class TestSplitTasks:
    @given(st.integers(min_value=0, max_value=400),
           st.integers(min_value=1, max_value=64))
    def test_leaves_partition_the_range(self, n, threshold):
        leaves = split_tasks(SplitCursor(ints_dataset(range(n))), threshold)
        assert all(leaf.estimate_size() <= threshold for leaf in leaves)
        pos = 0
        for leaf in leaves:
            assert leaf.lo == pos
            assert leaf.hi >= leaf.lo
            pos = leaf.hi
        assert pos == n

    def test_exact_halving(self):
        leaves = split_tasks(SplitCursor(ints_dataset(range(10))), 4)
        assert [(l.lo, l.hi) for l in leaves] == [(0, 2), (2, 5), (5, 7), (7, 10)]

    def test_no_split_needed(self):
        leaves = split_tasks(SplitCursor(ints_dataset(range(10))), 100)
        assert [(l.lo, l.hi) for l in leaves] == [(0, 10)]


class TestEquivalence:
    def test_single_worker_matches_sequential_exactly(self):
        q = sose_query()
        ds = {"src": ints_dataset(range(5000))}
        seq = CounterSet()
        want = run_push(q, ds, seq)
        par = CounterSet()
        got = run_parallel(q, ds, ParallelConfig(workers=1, split_threshold=512), par)
        assert got == want
        assert [(s.control_dispatches, s.lambda_applies) for s in par.stages] == \
            [(s.control_dispatches, s.lambda_applies) for s in seq.stages]
        assert par.link_events == seq.link_events
        assert par.instantiations == seq.instantiations

    def test_deterministic_across_worker_counts(self):
        q = sose_query()
        ds = {"src": ints_dataset(range(20000))}
        seq = CounterSet()
        want = run_push(q, ds, seq)
        for workers in (1, 2, 4, 8):
            for rep in range(3):
                par = CounterSet()
                cfg = ParallelConfig(workers=workers, split_threshold=1024)
                assert run_parallel(q, ds, cfg, par) == want
                assert par.lambda_applies == seq.lambda_applies
                assert par.control_dispatches == seq.control_dispatches

    def test_fused_plan_target(self):
        q = sose_query()
        ds = {"src": ints_dataset(range(20000))}
        want = run_pull(q, ds)
        plan = optimize(q)
        for workers in (1, 3, 8):
            counters = CounterSet()
            cfg = ParallelConfig(workers=workers, split_threshold=777)
            assert run_parallel(plan, ds, cfg, counters) == want
            # fused workers count nothing, so nothing merges in
            assert counters.control_dispatches == 0
            assert counters.lambda_applies == 0

    def test_fused_plan_compiled_once_per_call(self, monkeypatch):
        calls = []
        real = fuse.compile_plan

        def counting(plan, datasets):
            calls.append(plan)
            return real(plan, datasets)

        monkeypatch.setattr(fuse, "compile_plan", counting)
        monkeypatch.setattr(parallel, "compile_plan", counting)
        ds = {"src": ints_dataset(range(1000))}
        assert len(split_tasks(SplitCursor(ds["src"]), 100)) >= 4
        plan = optimize(sose_query())
        cfg = ParallelConfig(workers=2, split_threshold=100)
        for call in (1, 2):
            assert run_parallel(plan, ds, cfg) == run_pull(sose_query(), ds)
            assert len(calls) == call

    def test_count_terminal(self):
        q = sose_query(Terminal.COUNT)
        ds = {"src": ints_dataset(range(9999))}
        want = run_push(q, ds)
        cfg = ParallelConfig(workers=4, split_threshold=100)
        assert run_parallel(q, ds, cfg) == want
        assert run_parallel(optimize(q), ds, cfg) == want

    def test_refs_dataset(self):
        q = build_query("src", [Map(make_lambda(SQUARE))], Terminal.SUM)
        ds = {"src": refs_dataset(range(3000))}
        want = run_push(q, ds)
        cfg = ParallelConfig(workers=3, split_threshold=256)
        assert run_parallel(q, ds, cfg) == want
        assert run_parallel(optimize(q), ds, cfg) == want

    def test_wrapped_partials_recombine_exactly(self):
        big = (1 << 62) + 12345
        q = build_query("src", [], Terminal.SUM)
        ds = {"src": ints_dataset([big] * 64)}
        want = run_push(q, ds)  # wraps several times over
        cfg = ParallelConfig(workers=4, split_threshold=4)
        assert run_parallel(q, ds, cfg) == want

    def test_random_pipelines_match_sequential(self):
        rng = random.Random(31337)
        for _ in range(40):
            query, datasets = random_pipeline(rng)
            try:
                want = run_push(query, datasets, CounterSet())
            except DivisionByZero:
                continue  # error cases exercised in test_error_propagation
            cfg = ParallelConfig(workers=3, split_threshold=5)
            assert run_parallel(query, datasets, cfg) == want
            assert run_parallel(optimize(query), datasets, cfg) == want


class TestCaptureConservation:
    def test_cart_instantiations_equal_outer_length(self):
        q, ds = cart_query(600, 10)
        want = run_push(q, ds)
        site_id = q.stages[0].stages[0].fn.site_id
        for workers in (1, 2, 4, 8):
            counters = CounterSet()
            cfg = ParallelConfig(workers=workers, split_threshold=64)
            assert run_parallel(q, ds, cfg, counters) == want
            site = counters.sites[site_id]
            assert site.instantiations == 600
            # every worker that touched the site linked it once, no more
            assert 1 <= site.link_events <= workers


class TestErrors:
    def test_division_error_propagates(self):
        mod_by_x = make_lambda(Arith("mod", Const(100), Param(0)))
        q = build_query("src", [Map(mod_by_x)], Terminal.SUM)
        values = list(range(1, 5000))
        values[3777] = 0
        ds = {"src": ints_dataset(values)}
        cfg = ParallelConfig(workers=4, split_threshold=128)
        with pytest.raises(DivisionByZero):
            run_parallel(q, ds, cfg)
        with pytest.raises(DivisionByZero):
            run_parallel(optimize(q), ds, cfg)

    def test_rejects_unknown_target(self):
        with pytest.raises(InvalidPipeline):
            run_parallel("not a query", {})

    def test_more_workers_than_leaves(self):
        q = sose_query()
        ds = {"src": ints_dataset(range(50))}
        cfg = ParallelConfig(workers=8, split_threshold=8192)
        assert run_parallel(q, ds, cfg) == run_push(q, ds)


# -- forked workers ----------------------------------------------------------

BIG = parallel.FORK_MIN_ROWS + 4321  # above the cutoff: two workers fork


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child forked."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def no_forks(monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)


def big_source():
    rng = random.Random(99)
    return [rng.randint(-1000, 1000) for _ in range(BIG)]


def stage_counts(counters):
    return [(s.label, s.control_dispatches, s.lambda_applies) for s in counters.stages]


def site_counts(counters):
    return {site_id: (c.link_events, c.instantiations)
            for site_id, c in counters.sites.items()}


class TestFork:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("terminal", [Terminal.SUM, Terminal.COUNT])
    def test_matches_sequential_for_every_worker_count(self, terminal, forks,
                                                       monkeypatch):
        queries = [(sose_query(terminal), {"src": ints_dataset(big_source())})]
        fm = FlatMap("inner", (Filter(make_lambda(Cmp("lt", Param(0), Capture(0)),
                                                  captures=1)),
                               Map(make_lambda(SCALED, captures=1))))
        # outer rows below the cutoff: the inner rows, read per outer row, lift it
        queries.append((build_query("src", [fm], terminal),
                        {"src": ints_dataset(big_source()[:BIG // 3]),
                         "inner": ints_dataset([-500, 3, 700])}))
        for q, ds in queries:
            seq = CounterSet()
            want = run_push(q, ds, seq)
            plan = optimize(q)
            for workers in (1, 2, 3, 8):
                forks.clear()
                cfg = ParallelConfig(workers=workers)
                counters = CounterSet()
                assert run_parallel(q, ds, cfg, counters) == want
                assert stage_counts(counters) == stage_counts(seq)
                # the children's site counts come back pickled: the same
                # config run inline, with no os.fork to call, counts as much
                with monkeypatch.context() as m:
                    m.delattr(os, "fork")
                    inline = CounterSet()
                    assert run_parallel(q, ds, cfg, inline) == want
                assert site_counts(counters) == site_counts(inline)
                fused_counters = CounterSet()
                assert run_parallel(plan, ds, cfg, fused_counters) == want
                assert fused_counters.control_dispatches == 0
                assert fused_counters.lambda_applies == 0
                assert len(forks) == 2 * (workers - 1)

    @pytest.mark.parametrize("terminal", [Terminal.SUM, Terminal.COUNT])
    @pytest.mark.parametrize("shape", list(TERMINAL_SHAPES))
    def test_stage_next_to_the_terminal(self, shape, terminal, forks):
        # each forked share folds the terminal into its last stage's accept
        stages = TERMINAL_SHAPES[shape]()
        nested = any(isinstance(s, FlatMap) for s in stages)
        rows = big_source()[:BIG // 3] if nested else big_source()
        q = build_query("src", stages, terminal)
        ds = {"src": ints_dataset(rows), "inner": ints_dataset([-500, 3, 700])}
        cfg = ParallelConfig(workers=2)
        if shape.endswith("mod-0"):
            with pytest.raises(DivisionByZero):
                run_parallel(q, ds, cfg)
        else:
            want, law = push_law(q, ds)
            assert want == oracle_run(q, ds)
            counters = CounterSet()
            assert run_parallel(q, ds, cfg, counters) == want
            assert [(n, applies) for _, n, applies in stage_counts(counters)] == law
        assert len(forks) == 1

    @pytest.mark.parametrize("layout", ["refs", "boxed"])
    def test_layouts_that_write_on_read_never_fork(self, layout, no_forks):
        make = refs_dataset if layout == "refs" else BoxedDataset
        q = sose_query()
        ds = {"src": make(big_source())}
        want = run_push(q, ds)
        cfg = ParallelConfig(workers=2)
        assert run_parallel(q, ds, cfg) == want
        assert run_parallel(optimize(q), ds, cfg) == want
        # an ints outer source with a refs inner source reads both
        fm = FlatMap("inner", (Map(make_lambda(SCALED, captures=1)),))
        q = build_query("src", [fm], Terminal.SUM)
        ds = {"src": ints_dataset(big_source()), "inner": make([1, 2])}
        assert run_parallel(q, ds, cfg) == run_push(q, ds)

    def test_second_live_thread_keeps_the_run_inline(self, no_forks):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            q = sose_query()
            ds = {"src": ints_dataset(big_source())}
            assert run_parallel(q, ds, ParallelConfig(workers=2)) == run_push(q, ds)
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()

    def test_division_error_in_a_child_propagates(self, forks):
        mod_by_x = make_lambda(Arith("mod", Const(100), Param(0)))
        q = build_query("src", [Map(mod_by_x)], Terminal.SUM)
        values = list(range(1, BIG + 1))
        values[BIG * 3 // 4] = 0  # in the second of two shares
        ds = {"src": ints_dataset(values)}
        cfg = ParallelConfig(workers=2)
        with pytest.raises(DivisionByZero) as raised:
            run_parallel(q, ds, cfg)
        with pytest.raises(DivisionByZero):
            run_parallel(optimize(q), ds, cfg)
        assert len(forks) == 2
        # the child's traceback rides along as a note
        assert sys.version_info < (3, 11) or "_push_share" in raised.value.__notes__[0]

    @pytest.mark.parametrize("zeros", [(1, 2), (0, 2)])
    def test_lowest_failing_leaf_wins_across_workers(self, zeros, forks, monkeypatch):
        # tag each error with its leaf's rows, so the winner can be told apart
        real = parallel.for_each_remaining

        def tagged(leaf, chain):
            lo, hi = leaf.lo, leaf.hi
            try:
                real(leaf, chain)
            except DivisionByZero:
                raise DivisionByZero(f"rows [{lo}, {hi})") from None

        monkeypatch.setattr(parallel, "for_each_remaining", tagged)
        mod_by_x = make_lambda(Arith("mod", Const(100), Param(0)))
        q = build_query("src", [Map(mod_by_x)], Terminal.SUM)
        values = list(range(1, BIG + 1))
        rows = [BIG * (2 * share + 1) // 6 for share in zeros]  # mid-share
        for row in rows:
            values[row] = 0
        ds = {"src": ints_dataset(values)}
        cfg = ParallelConfig(workers=3, split_threshold=1024)
        leaf = next(l for l in split_tasks(SplitCursor(ds["src"]), 1024)
                    if l.lo <= rows[0] < l.hi)
        with pytest.raises(DivisionByZero, match=fr"rows \[{leaf.lo}, {leaf.hi}\)"):
            run_parallel(q, ds, cfg)
        assert len(forks) == 2

    @pytest.mark.parametrize("fails_at", [1, 2])
    def test_failed_fork_runs_the_shares_left_inline(self, fails_at, monkeypatch):
        # at 4 workers: the first fork fails, or the second after one child
        self.check_refusal(monkeypatch, "fork", errno.EAGAIN, fails_at)

    @pytest.mark.parametrize("fails_at", [1, 2])
    def test_refused_pipe_runs_the_shares_left_inline(self, fails_at, monkeypatch):
        # at 4 workers: the first pipe is refused, or the second after one child
        self.check_refusal(monkeypatch, "pipe", errno.EMFILE, fails_at)

    @staticmethod
    def check_refusal(monkeypatch, name, code, fails_at):
        """With os.<name> raising OSError(code) on call `fails_at`, a 4-worker
        run gives the inline values and counts, and a share left to the
        caller still raises its error."""
        real = getattr(os, name)
        calls = []

        def refusing():
            calls.append(None)
            if len(calls) == fails_at:
                raise OSError(code, f"{name} refused")
            return real()

        fm = FlatMap("inner", (Filter(make_lambda(Cmp("lt", Param(0), Capture(0)),
                                                  captures=1)),
                               Map(make_lambda(SCALED, captures=1))))
        queries = [(sose_query(), {"src": ints_dataset(big_source())}),
                   (build_query("src", [fm], Terminal.COUNT),
                    {"src": ints_dataset(big_source()[:BIG // 3]),
                     "inner": ints_dataset([-500, 3, 700])})]
        cfg = ParallelConfig(workers=4)
        for q, ds in queries:
            with monkeypatch.context() as m:
                m.delattr(os, "fork")
                inline = CounterSet()
                want = run_parallel(q, ds, cfg, inline)
            for target in (q, optimize(q)):
                calls.clear()
                counters = CounterSet()
                with monkeypatch.context() as m:
                    m.setattr(os, name, refusing)
                    assert run_parallel(target, ds, cfg, counters) == want
                assert len(calls) == fails_at
                if target is q:
                    assert stage_counts(counters) == stage_counts(inline)
                    assert site_counts(counters) == site_counts(inline)
        # a share run inline after a refusal still raises its error
        mod_by_x = make_lambda(Arith("mod", Const(100), Param(0)))
        values = list(range(1, BIG + 1))
        values[-1] = 0  # in the last share, which no child takes
        with monkeypatch.context() as m:
            m.setattr(os, name, refusing)
            calls.clear()
            with pytest.raises(DivisionByZero):
                run_parallel(build_query("src", [Map(mod_by_x)], Terminal.SUM),
                             {"src": ints_dataset(values)}, cfg)

    def test_child_exiting_without_a_result_is_named(self, forks, monkeypatch):
        parent = os.getpid()
        real = parallel.for_each_remaining

        def dying(leaf, chain):
            if os.getpid() != parent:
                os._exit(3)
            real(leaf, chain)

        monkeypatch.setattr(parallel, "for_each_remaining", dying)
        q = sose_query()
        ds = {"src": ints_dataset(big_source())}
        with pytest.raises(WorkerFailed, match=r"worker 1 .*wait status 0x300"):
            run_parallel(q, ds, ParallelConfig(workers=2))
        assert len(forks) == 1

    def test_earlier_share_error_wins_over_a_child_without_a_result(
            self, forks, monkeypatch):
        # share 0 fails in the caller while the child for share 1 dies: the
        # sequential run raises share 0's error first
        parent = os.getpid()
        real = parallel.for_each_remaining

        def dying(leaf, chain):
            if os.getpid() != parent:
                os._exit(3)
            real(leaf, chain)

        monkeypatch.setattr(parallel, "for_each_remaining", dying)
        mod_by_x = make_lambda(Arith("mod", Const(100), Param(0)))
        q = build_query("src", [Map(mod_by_x)], Terminal.SUM)
        values = list(range(1, BIG + 1))
        values[BIG // 4] = 0  # in the first of two shares
        with pytest.raises(DivisionByZero):
            run_parallel(q, {"src": ints_dataset(values)}, ParallelConfig(workers=2))
        assert len(forks) == 1
