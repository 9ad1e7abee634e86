"""Measurement harness: warmup, timed iterations, Student-T inference.

A benchmark task is a setup action (builds inputs, never timed) plus a body
returning a value.  measure() runs the body warmup times, then iters timed
iterations on the monotonic clock, checks every result against the expected
value (a wrong result aborts — no timing for wrong answers), and feeds every
result through a sink whose running checksum keeps the work observable so
nothing can be optimized away.  Garbage collection is requested once before
the run so earlier allocations are less likely to bill this benchmark.

The 95% confidence half-interval uses the Student-T 0.975 quantile, computed
to double precision for every degrees-of-freedom value from the regularized
incomplete beta function.  Sample standard deviation uses the n-1
denominator.  Samples are never discarded; outliers widen the interval, which
is the honest outcome.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from typing import Any, Callable

from .errors import ResultMismatch, TooFewSamples
from .exprs import wrap_i64

_Z_975 = 1.959963984540054  # standard normal 0.975 quantile
# Stirling series coefficients B_2k / (2k (2k - 1)), k = 1..6
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)

_SINK_MIX = 6364136223846793005


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a) / Gamma(a + 1/2)) for a > 0, to double precision.

    The recurrence Gamma(a + 1) = a Gamma(a) shifts a to 16 or more, where the
    difference of the two Stirling series is taken term by term; subtracting
    two large lgamma values instead would lose up to nine digits at a = 5e5.
    """
    shift = 0.0
    while a < 16:
        shift += math.log1p(0.5 / a)
        a += 1
    b = a + 0.5
    series = math.fsum(c * (a ** (1 - 2 * k) - b ** (1 - 2 * k))
                       for k, c in enumerate(_STIRLING, 1))
    return shift - 0.5 * math.log(a) + (0.5 - a * math.log1p(0.5 / a)) + series


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta I_x(a, b).

    I_x(a, b) = x**a (1 - x)**b / (a B(a, b)) * _beta_cf(a, b, x), evaluated
    by the modified Lentz method (Numerical Recipes, section 6.4).
    """
    c, d = 1.0, 1 / (1 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 100_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 / (1 + num * d)
            c = 1 + num / c
            h *= c * d
        if abs(c * d - 1) <= math.ulp(1.0):
            return h
    raise ArithmeticError(f"incomplete beta I_{x}({a}, {b}) did not converge")


def t_quantile_975(df: int) -> float:
    """Two-sided 95% Student t quantile, to double precision for every df.

    df 1 and 2 have closed forms.  Otherwise Newton's method solves
    P(|T| < t) = I_y(1/2, df/2) = 0.95 with y = t*t / (df + t*t), starting
    from the Cornish-Fisher expansion around the normal quantile.  Working in
    y rather than 1 - y keeps full precision when df is large.
    """
    if df < 1:
        raise TooFewSamples(f"degrees of freedom must be >= 1, got {df}")
    if df == 1:
        return math.tan(0.475 * math.pi)
    if df == 2:
        return 0.95 / math.sqrt(2 * 0.975 * 0.025)
    a = df / 2
    log_beta = 0.5 * math.log(math.pi) + _log_gamma_ratio(a)  # log B(1/2, df/2)
    z = _Z_975
    t = z + (z ** 3 + z) / (4 * df) + (5 * z ** 5 + 16 * z ** 3 + 3 * z) / (96 * df * df)
    for _ in range(100):
        u = t * t / df
        y = u / (1 + u)
        inside = 2 * math.exp(0.5 * math.log(y) - a * math.log1p(u) - log_beta) \
            * _beta_cf(0.5, a, y)
        density = 2 * math.exp(-(a + 0.5) * math.log1p(u) - 0.5 * math.log(df) - log_beta)
        step = (0.95 - inside) / density
        t += step
        if abs(step) <= 1e-15 * t:
            break
    return t


def student_t_stats(samples) -> tuple[float, float, float]:
    """(mean, sample stddev, 95% CI half-width) of a sample vector."""
    n = len(samples)
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    mean = math.fsum(samples) / n
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    stddev = math.sqrt(var)
    ci95 = t_quantile_975(n - 1) * stddev / math.sqrt(n)
    return mean, stddev, ci95


@dataclass(frozen=True)
class SampleStats:
    samples: tuple
    mean: float
    stddev: float
    ci95_half: float

    @classmethod
    def from_samples(cls, samples) -> "SampleStats":
        mean, stddev, ci95 = student_t_stats(samples)
        return cls(tuple(samples), mean, stddev, ci95)

    @property
    def low(self) -> float:
        return self.mean - self.ci95_half

    @property
    def high(self) -> float:
        return self.mean + self.ci95_half


class Sink:
    """Dead-code sink: folds every observed value into a running checksum."""

    __slots__ = ("checksum",)

    def __init__(self):
        self.checksum = 0

    def fold(self, value: int) -> None:
        self.checksum = wrap_i64(self.checksum * _SINK_MIX + value)

    def reset(self) -> None:
        self.checksum = 0


DEFAULT_SINK = Sink()


@dataclass(frozen=True)
class BenchTask:
    """One measurable unit: named setup + body + the result it must produce."""

    name: str
    setup: Callable[[], Any]
    body: Callable[[Any], int]
    expected: int


def _check(task: BenchTask, result: int, phase: str) -> None:
    if result != task.expected:
        raise ResultMismatch(
            f"{task.name} ({phase}): got {result}, expected {task.expected}")


def measure(task: BenchTask, warmup: int = 10, iters: int = 10,
            sink: Sink = DEFAULT_SINK, clock=time.perf_counter_ns) -> SampleStats:
    """Run a task and return per-iteration wall times in milliseconds.

    Setup runs once, outside any timing.  Both warmup and timed results are
    checked and sunk; only timed iterations become samples.
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if iters < 2:
        raise TooFewSamples(f"need at least 2 timed iterations, got {iters}")
    state = task.setup()
    gc.collect()
    for _ in range(warmup):
        result = task.body(state)
        sink.fold(result)
        _check(task, result, "warmup")
    samples = []
    for _ in range(iters):
        t0 = clock()
        result = task.body(state)
        t1 = clock()
        sink.fold(result)
        _check(task, result, "timed")
        samples.append((t1 - t0) / 1e6)
    return SampleStats.from_samples(samples)


@dataclass(frozen=True)
class CompareResult:
    """a versus b: ratio of means and what the intervals allow us to say."""

    ratio: float
    intervals_overlap: bool
    significantly_faster: bool


def compare(a: SampleStats, b: SampleStats) -> CompareResult:
    """Is `a` significantly faster than `b`?  Requires disjoint 95% CIs."""
    ratio = a.mean / b.mean if b.mean else math.inf
    overlap = not (a.high < b.low or b.high < a.low)
    return CompareResult(ratio, overlap, a.mean < b.mean and not overlap)
