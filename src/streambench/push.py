"""Push execution: internal iteration through a consumer chain.

The source owns the loop and feeds accept() calls down a chain built
back-to-front.  Moving one element through a stage costs exactly one boundary
crossing — the accept it receives — so a stage entered by k elements records k
control_dispatches, against pull's 2k+1.  A flat-map fuses its inner loop into
its own accept: there is no inner cursor, only bound-per-outer-element inner
consumers, which is where the capture events come from.

SplitCursor is the indexed view the source iterates: it can split off its
first half for parallel runs, advance one element at a time, or push
everything remaining in one tight loop.
"""

from __future__ import annotations

from .counters import CounterSet
from .exprs import wrap_i64
from .lambdas import CallSiteCache
from .query import (
    Filter,
    Map,
    QueryExpr,
    RefsDataset,
    Terminal,
    layout_query,
    resolve_dataset,
)

DEFAULT_SPLIT_THRESHOLD = 8192


class SplitCursor:
    """A half-open index range [lo, hi) over one dataset."""

    __slots__ = ("data", "is_refs", "lo", "hi")

    def __init__(self, dataset, lo: int = 0, hi: int | None = None):
        self.is_refs = isinstance(dataset, RefsDataset)
        self.data = dataset.data
        self.lo = lo
        self.hi = len(self.data) if hi is None else hi

    def estimate_size(self) -> int:
        return self.hi - self.lo

    def try_split(self, threshold: int = DEFAULT_SPLIT_THRESHOLD):
        """Split off the first half if this range is worth splitting.

        Returns a new cursor over [lo, mid) and keeps [mid, hi), or None when
        the range is already at or below the threshold.
        """
        size = self.hi - self.lo
        if size <= threshold:
            return None
        mid = self.lo + size // 2
        child = SplitCursor.__new__(SplitCursor)
        child.data = self.data
        child.is_refs = self.is_refs
        child.lo = self.lo
        child.hi = mid
        self.lo = mid
        return child


def try_advance(cursor: SplitCursor, consumer) -> bool:
    """Push a single element if one remains."""
    lo = cursor.lo
    if lo >= cursor.hi:
        return False
    cursor.lo = lo + 1
    if cursor.is_refs:
        consumer.accept(cursor.data[lo].value)
    else:
        consumer.accept(cursor.data[lo])
    return True


def for_each_remaining(cursor: SplitCursor, consumer) -> None:
    """Push every remaining element, consuming the cursor."""
    accept = consumer.accept
    data = cursor.data
    lo, hi = cursor.lo, cursor.hi
    cursor.lo = hi
    if cursor.is_refs:
        # a list slice increfs every record; iterate the list when it is all
        for r in data if lo == 0 and hi >= len(data) else data[lo:hi]:
            accept(r.value)
    else:
        for v in data[lo:hi]:
            accept(v)


class _MapConsumer:
    __slots__ = ("_down", "_fn", "_ctr")

    def __init__(self, down, fn, ctr):
        self._down = down
        self._fn = fn
        self._ctr = ctr

    def accept(self, v):
        ctr = self._ctr
        ctr.control_dispatches += 1
        ctr.lambda_applies += 1
        self._down.accept(self._fn(v))


class _FilterConsumer:
    __slots__ = ("_down", "_pred", "_ctr")

    def __init__(self, down, pred, ctr):
        self._down = down
        self._pred = pred
        self._ctr = ctr

    def accept(self, v):
        ctr = self._ctr
        ctr.control_dispatches += 1
        ctr.lambda_applies += 1
        if self._pred(v):
            self._down.accept(v)


class _FlatMapConsumer:
    __slots__ = ("_down", "_ctr", "_inner_data", "_inner_refs", "_inner_stages",
                 "_cache", "_stage_ctrs")

    def __init__(self, down, ctr, inner_ds, inner_stages, cache, stage_ctrs):
        self._down = down
        self._ctr = ctr
        self._inner_refs = isinstance(inner_ds, RefsDataset)
        self._inner_data = inner_ds.data
        self._inner_stages = inner_stages
        self._cache = cache
        self._stage_ctrs = stage_ctrs

    def accept(self, outer_v):
        self._ctr.control_dispatches += 1
        chain = self._down
        cache = self._cache
        bind = cache.bind
        for stage, ctr in zip(reversed(self._inner_stages),
                              reversed(self._stage_ctrs)):
            if isinstance(stage, Map):
                lam = stage.fn
                chain = _MapConsumer(
                    chain, bind(lam, (outer_v,) if lam.captures else ()), ctr)
            else:
                lam = stage.predicate
                chain = _FilterConsumer(
                    chain, bind(lam, (outer_v,) if lam.captures else ()), ctr)
        accept = chain.accept
        if self._inner_refs:
            for r in self._inner_data:
                accept(r.value)
        else:
            for v in self._inner_data:
                accept(v)


class _SumSink:
    __slots__ = ("acc",)

    def __init__(self):
        self.acc = 0

    def accept(self, v):
        # plain adds; congruent mod 2**64, wrapped once at the fold
        self.acc += v

    def result(self) -> int:
        return wrap_i64(self.acc)


class _CountSink:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def accept(self, v):
        self.n += 1

    def result(self) -> int:
        return self.n


def build_chain(query: QueryExpr, datasets, counters: CounterSet,
                cache: CallSiteCache | None = None):
    """Build (head consumer, sink) for a query, wiring back-to-front."""
    layout = layout_query(query)
    counters.ensure_stages(layout.labels)
    if cache is None:
        cache = CallSiteCache(counters)
    stages = counters.stages
    sink = _SumSink() if query.terminal is Terminal.SUM else _CountSink()
    chain = sink
    for pos in range(len(query.stages) - 1, -1, -1):
        stage = query.stages[pos]
        ctr = stages[layout.top_slots[pos]]
        if isinstance(stage, Map):
            chain = _MapConsumer(chain, cache.bind(stage.fn), ctr)
        elif isinstance(stage, Filter):
            chain = _FilterConsumer(chain, cache.bind(stage.predicate), ctr)
        else:
            inner_ds = resolve_dataset(datasets, stage.inner_source)
            stage_ctrs = [stages[s] for s in layout.inner_slots]
            chain = _FlatMapConsumer(chain, ctr, inner_ds, stage.stages,
                                     cache, stage_ctrs)
    return chain, sink


def run_push(query: QueryExpr, datasets, counters: CounterSet | None = None) -> int:
    """Push the whole source through the chain and fold the terminal."""
    if counters is None:
        counters = CounterSet()
    source_ds = resolve_dataset(datasets, query.source)
    chain, sink = build_chain(query, datasets, counters)
    for_each_remaining(SplitCursor(source_ds), chain)
    return sink.result()
