"""Untraced measurement: paired calibration samples, result checks, order statistics.

Each sample pairs one engine operation with the calibration loop (a plain
`for` loop summing a list of as many ints as the engine's source loops
visit, see workloads.calibration_list) run next to it.  The ratio of the
two cancels machine drift, and the calibration loop is owned by the
benchmark, so it is the same on every commit: a change that slows dataset
access for the baseline and the engines alike still shows.
Engines take turns in a rotating order, so drift within a round biases none.

Statistics are order statistics only: medians, quartiles and the tail rule
(the highest percentile with at least ten samples beyond it).
"""

from __future__ import annotations

import gc
import math
import statistics
import time

from streambench import (
    CounterSet,
    ParallelConfig,
    exec_fused,
    optimize,
    run_parallel,
    run_pull,
    run_push,
)
from streambench.suite import oracle_run

import workloads

ENGINES = ("baseline", "pull", "push", "fused", "push_par", "fused_par")
_clock = time.perf_counter_ns


CONFIG = ParallelConfig(workers=workloads.WORKERS)


# Each engine operation takes (item, hot, counters) and returns
# (value, query), the query being the one whose call sites the counters name.
# Hot workloads run the query and plan built at set-up.  adhoc builds the
# query inside the operation, because an ad-hoc user pays build, link and
# optimize on every query.

def _baseline(item, hot, counters):
    if hot:
        return item.baseline(item.datasets), None
    return oracle_run(item.query, item.datasets), None


def _pull(item, hot, counters):
    q = item.query if hot else item.build()
    return run_pull(q, item.datasets, counters), q


def _push(item, hot, counters):
    q = item.query if hot else item.build()
    return run_push(q, item.datasets, counters), q


def _fused(item, hot, counters):
    plan = item.plan if hot else optimize(item.build())
    return exec_fused(plan, item.datasets, counters), None


def _push_par(item, hot, counters):
    q = item.query if hot else item.build()
    return run_parallel(q, item.datasets, CONFIG, counters), q


def _fused_par(item, hot, counters):
    plan = item.plan if hot else optimize(item.build())
    return run_parallel(plan, item.datasets, CONFIG, counters), None


OPS = {"baseline": _baseline, "pull": _pull, "push": _push, "fused": _fused,
       "push_par": _push_par, "fused_par": _fused_par}


def calibrate(values) -> int:
    """The calibration loop.  Never change it: every commit is timed against it."""
    acc = 0
    for v in values:
        acc += v
    return acc


def prepare(item, hot: bool, checker) -> None:
    """Compute an item's expected value and reference counts, once.

    Hot workloads take the expected value from the suite's handwritten
    baseline, and the reference walk must agree with it.  adhoc takes it
    from the walk; its baseline operation is `suite.oracle_run`, so every
    oracle run is checked against the same value as the engines.
    """
    if item.ref is not None:
        return
    if item.query is None:
        item.query = item.build()
    item.ref = workloads.reference(item.query, item.datasets)
    item.expected = item.baseline(item.datasets) if hot else item.ref.value
    if item.ref.value != item.expected:
        checker.reference_ok = False


class Checker:
    """Counts operations and failures; a failure is a wrong value, a raise
    or a broken counter law.  The laws fix every per-stage count exactly, so
    counts that obey them repeat exactly from run to run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference_ok = True
        self.failures = []

    def check(self, engine, item, index, value, query, counters, error=None) -> bool:
        self.attempted += 1
        ok = error is None and value == item.expected
        if ok and engine != "baseline":
            ok = workloads.check_counters(
                engine, counters, query if query is not None else item.query, item.ref)
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append((engine, index, value, item.expected, repr(error)))
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.reference_ok


def run_op(engine, item, hot, checker, index, ops=OPS):
    """One checked engine operation: its time in ns, or None if it failed."""
    prepare(item, hot, checker)
    counters = CounterSet()
    t0 = _clock()
    try:
        value, query = ops[engine](item, hot, counters)
    except Exception as exc:  # any raise is a failed operation, reported as such
        checker.check(engine, item, index, None, None, counters, exc)
        return None
    elapsed = _clock() - t0
    return elapsed if checker.check(engine, item, index, value, query, counters) else None


class Samples:
    """Paired samples per engine: (calibration ns, engine ns, item index)."""

    def __init__(self):
        self.pairs = {e: [] for e in ENGINES}
        self.gc_collections = 0
        self.ops = 0

    def ratios(self, engine):
        return [t / c for c, t, _ in self.pairs[engine]]

    def item_medians(self, engine, value):
        """Per item, the median of value(cal, t) over that item's samples."""
        per_item = {}
        for c, t, index in self.pairs[engine]:
            per_item.setdefault(index, []).append(value(c, t))
        return [median(v) for v in per_item.values()]

    def rel(self, engine):
        """Median over items of each item's median ratio, so that every item
        counts once however many rounds the time allowed; None when no
        operation of the engine passed."""
        medians = self.item_medians(engine, lambda c, t: t / c)
        return median(medians) if medians else None

    def cal_ms(self):
        return [c / 1e6 for e in ENGINES for c, _, _ in self.pairs[e]]


def _gc_count():
    return sum(s["collections"] for s in gc.get_stats())


def sample(workload, seconds: float, checker: Checker, ops=OPS, items=None) -> Samples:
    """Time paired samples until `seconds` have passed.

    A round runs every engine once on one item, in an order that rotates
    from round to round; rounds walk the items in order and wrap.  The
    calibration loop runs before the first engine of a round and after
    every engine, and each engine time is paired with the faster of the
    two loops around it: a slow loop is noise from outside, and would skew
    the ratio it is paired with.  No operation starts once time is up,
    except in the first pass over the items: a run measures every item even
    on a machine too slow to finish the pass in time.  The expected values
    are computed before the clock starts.
    """
    items = workload.items if items is None else items
    hot = workload.hot
    out = Samples()
    for item in items:
        prepare(item, hot, checker)
    gc.collect()
    gc_before = _gc_count()
    start = time.perf_counter()
    rnd = 0
    first_pass = len(items)
    while rnd < first_pass or time.perf_counter() - start < seconds:
        index = rnd % len(items)
        item = items[index]
        k = rnd % len(ENGINES)
        cal_before = _calibration_ns(item.cal)
        for engine in ENGINES[k:] + ENGINES[:k]:
            if rnd >= first_pass and time.perf_counter() - start >= seconds:
                break
            elapsed = run_op(engine, item, hot, checker, index, ops)
            cal_after = _calibration_ns(item.cal)
            if elapsed is not None:
                out.pairs[engine].append((min(cal_before, cal_after), elapsed, index))
            out.ops += 1
            cal_before = cal_after
        rnd += 1
    out.gc_collections = _gc_count() - gc_before
    return out


def _calibration_ns(values) -> int:
    t0 = _clock()
    calibrate(values)
    return _clock() - t0


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    return tuple(statistics.quantiles(values, n=4))


def tail(values):
    """(percentile, value, samples): the highest whole percentile that leaves
    at least ten samples beyond it, by nearest rank.

    Fewer than 20 samples leave no percentile above the median with ten
    beyond it; the median then stands in, with percentile 50.
    """
    n = len(values)
    ordered = sorted(values)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return 50, median(values), n
    return p, ordered[math.ceil(p * n / 100) - 1], n
