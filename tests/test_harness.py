"""Measurement harness: t statistics, sink, measure(), interval comparison."""

import math
import random

import pytest
import scipy.stats

from streambench.errors import ResultMismatch, TooFewSamples
from streambench.exprs import wrap_i64
from streambench.harness import (
    BenchTask,
    CompareResult,
    SampleStats,
    Sink,
    compare,
    measure,
    student_t_stats,
    t_quantile_975,
)


class TestTQuantile:
    def test_rejects_zero_df(self):
        with pytest.raises(TooFewSamples):
            t_quantile_975(0)
        with pytest.raises(TooFewSamples):
            t_quantile_975(-3)

    def test_table_matches_scipy_to_double_precision(self):
        for df in range(1, 61):
            want = float(scipy.stats.t.ppf(0.975, df))
            got = t_quantile_975(df)
            assert math.isclose(got, want, rel_tol=1e-12), df

    def test_table_endpoints(self):
        # df 1 is tan(0.475 pi); the others are 30-digit mpmath roots
        assert math.isclose(t_quantile_975(1), 12.706204736174705, rel_tol=1e-14)
        assert math.isclose(t_quantile_975(9), 2.2621571627982055, rel_tol=1e-14)
        assert math.isclose(t_quantile_975(60), 2.0002978220142605, rel_tol=1e-14)

    def test_matches_scipy_past_sixty(self):
        for df in (*range(61, 130), 1000, 10**4, 10**5, 10**6):
            want = float(scipy.stats.t.ppf(0.975, df))
            assert math.isclose(t_quantile_975(df), want, rel_tol=1e-12), df


class TestStudentTStats:
    def test_needs_two_samples(self):
        with pytest.raises(TooFewSamples):
            student_t_stats([])
        with pytest.raises(TooFewSamples):
            student_t_stats([1.0])

    def test_one_through_ten_fixture(self):
        mean, sd, ci = student_t_stats(list(range(1, 11)))
        assert mean == 5.5
        # oracle-derived values, frozen tight
        assert math.isclose(sd, 3.0276503540974917, rel_tol=1e-12)
        assert math.isclose(ci, 2.1658505896681696, rel_tol=1e-12)

    def test_two_identical_samples(self):
        mean, sd, ci = student_t_stats([4.0, 4.0])
        assert (mean, sd, ci) == (4.0, 0.0, 0.0)

    def test_two_samples_use_widest_quantile(self):
        # df=1: ci = 12.7062... * sd / sqrt(2)
        mean, sd, ci = student_t_stats([0.0, 2.0])
        assert mean == 1.0
        assert math.isclose(sd, math.sqrt(2), rel_tol=1e-12)
        assert math.isclose(ci, 12.706204736174705, rel_tol=1e-12)

    def test_matches_scipy_on_random_vectors(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(2, 61)
            xs = [rng.uniform(-1e3, 1e3) for _ in range(n)]
            mean, sd, ci = student_t_stats(xs)
            assert math.isclose(mean, float(scipy.stats.tmean(xs)), rel_tol=1e-9)
            want_sd = float(scipy.stats.tstd(xs))
            assert math.isclose(sd, want_sd, rel_tol=1e-9, abs_tol=1e-12)
            want_ci = float(scipy.stats.t.ppf(0.975, n - 1)) * want_sd / math.sqrt(n)
            assert math.isclose(ci, want_ci, rel_tol=1e-9, abs_tol=1e-12)


class TestSampleStats:
    def test_from_samples(self):
        stats = SampleStats.from_samples([1.0, 2.0, 3.0])
        assert stats.samples == (1.0, 2.0, 3.0)
        assert stats.mean == 2.0
        assert stats.low == stats.mean - stats.ci95_half
        assert stats.high == stats.mean + stats.ci95_half


class TestSink:
    def test_known_fold_sequence(self):
        sink = Sink()
        sink.fold(1)
        sink.fold(2)
        mix = 6364136223846793005
        want = wrap_i64(wrap_i64(1 * mix * 0 + 1) * mix + 2)
        assert sink.checksum == want

    def test_order_sensitive(self):
        a, b = Sink(), Sink()
        a.fold(1), a.fold(2)
        b.fold(2), b.fold(1)
        assert a.checksum != b.checksum

    def test_value_sensitive(self):
        a, b = Sink(), Sink()
        for v in (10, 20, 30):
            a.fold(v)
        for v in (10, 21, 30):
            b.fold(v)
        assert a.checksum != b.checksum

    def test_reset(self):
        sink = Sink()
        sink.fold(99)
        sink.reset()
        assert sink.checksum == 0


class FakeClock:
    """Returns scripted ns timestamps so samples are exact."""

    def __init__(self, deltas_ns):
        self.times = [0]
        for d in deltas_ns:
            self.times.append(self.times[-1] + d)
        self.calls = 0

    def __call__(self):
        t = self.times[self.calls % len(self.times)]
        self.calls += 1
        return t


class TestMeasure:
    def task(self, value=42, body_calls=None, setup_calls=None):
        def setup():
            if setup_calls is not None:
                setup_calls.append(1)
            return value

        def body(state):
            if body_calls is not None:
                body_calls.append(1)
            return state

        return BenchTask("t", setup, body, value)

    def test_samples_come_from_the_clock(self):
        # clock advances 1ms, 2ms, 3ms around the three timed iterations
        clock = FakeClock([1_000_000, 0, 2_000_000, 0, 3_000_000])
        stats = measure(self.task(), warmup=0, iters=3, sink=Sink(), clock=clock)
        assert list(stats.samples) == [1.0, 2.0, 3.0]
        assert stats.mean == 2.0

    def test_setup_once_body_warmup_plus_iters(self):
        body_calls, setup_calls = [], []
        task = self.task(7, body_calls, setup_calls)
        stats = measure(task, warmup=4, iters=3, sink=Sink())
        assert len(setup_calls) == 1
        assert len(body_calls) == 4 + 3
        assert len(stats.samples) == 3

    def test_every_result_is_sunk(self):
        sink = Sink()
        measure(self.task(5), warmup=2, iters=2, sink=sink)
        want = Sink()
        for _ in range(4):
            want.fold(5)
        assert sink.checksum == want.checksum

    def test_wrong_result_aborts_in_warmup(self):
        task = BenchTask("t", lambda: None, lambda state: 1, expected=2)
        with pytest.raises(ResultMismatch):
            measure(task, warmup=1, iters=2, sink=Sink())

    def test_wrong_result_aborts_when_timed(self):
        flips = iter([2, 2, 1, 2])
        task = BenchTask("t", lambda: None, lambda state: next(flips), expected=2)
        with pytest.raises(ResultMismatch):
            measure(task, warmup=2, iters=2, sink=Sink())

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            measure(self.task(), warmup=-1, iters=2, sink=Sink())
        with pytest.raises(TooFewSamples):
            measure(self.task(), warmup=0, iters=1, sink=Sink())


def stats_of(mean, half):
    return SampleStats((), mean, 0.0, half)


class TestCompare:
    def test_disjoint_and_faster(self):
        res = compare(stats_of(1.0, 0.1), stats_of(2.0, 0.1))
        assert isinstance(res, CompareResult)
        assert res.ratio == 0.5
        assert not res.intervals_overlap
        assert res.significantly_faster

    def test_overlap_blocks_significance(self):
        res = compare(stats_of(1.8, 0.3), stats_of(2.0, 0.3))
        assert res.intervals_overlap
        assert not res.significantly_faster

    def test_slower_never_significant(self):
        res = compare(stats_of(3.0, 0.1), stats_of(2.0, 0.1))
        assert not res.significantly_faster
        assert res.ratio == 1.5

    def test_touching_intervals_overlap(self):
        res = compare(stats_of(1.0, 0.5), stats_of(2.0, 0.5))
        assert res.intervals_overlap
        assert not res.significantly_faster
