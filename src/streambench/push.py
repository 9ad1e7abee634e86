"""Push execution: internal iteration through a consumer chain.

The source owns the loop and feeds values down a chain built back-to-front.
Each stage is a primed coroutine (a generator run to its first `yield`), and
its `send` is the accept the stage before it calls: moving an element
through a stage resumes that stage's suspended frame instead of building a
new one.  A crossing is one `send`, so a stage entered by k elements records
k control_dispatches (and a map or filter k lambda_applies), against pull's
2k+1.  A flat-map fuses its inner loop into its own coroutine: there is no
inner cursor, only inner coroutines, built once with the function that
builds the top-level chain, whose lambdas are rebound per outer element
through the chain's rebind function (CallSiteCache.rebinder): that is where
the capture events come from.  Per outer element the flat-map rebinds and
calls the inner dataset's walk (query.py's `walker`), which sends every
inner row to the first inner stage: no range to test, and on the ints
layout no row boxed again.

The terminal is not a stage.  The stage next to it (the last map or filter,
or the last inner one when a flat-map ends the query) is built with the
terminal's fold inside its coroutine (`acc += fn(v)`), so an element that
reaches the sum or count costs no call past that stage; pull's terminal is
likewise its driving loop (run_pull).  No counter counts the fold.  A chain
with no stages, and a flat-map with no inner stages that ends the query,
call the terminal's plain accept.

Those counts are laws of element flow, so push keeps them off the per-element
path.  It counts only the chain's head (one add per range in
for_each_remaining, one per call on a direct accept) and each filter's
passes.  A map emits what enters it and counts nothing; a flat-map's inner
source holds len(inner) rows for each element entering the flat-map, so it
is derived too.  build_chain notes once the flow entering each map, filter
and flat-map slot, and hands the CounterSet one derivation that reads those
flows; counts fold in when they are read (counters.py).  A run that raises
mid-way may leave counts above what entered, since a range is counted before
it moves; the engines discard a failed run's counters.

A chain that raised is finished.  The error unwinds through every coroutine
between the head and the stage that raised, which ends them, so the first
error keeps its type and order, and any later push into the chain raises
StopIteration from the generator protocol instead of folding on.

SplitCursor is the indexed view the source iterates: it can split off its
first half for parallel runs, advance one element at a time, or push
everything remaining in one tight loop.
"""

from __future__ import annotations

from typing import Callable, Generator, NamedTuple

from .counters import CounterSet
from .exprs import wrap_i64
from .lambdas import CallSiteCache, stage_cell
from .query import (
    Filter,
    FlatMap,
    Map,
    QueryExpr,
    Terminal,
    layout_query,
    resolve_dataset,
)

DEFAULT_SPLIT_THRESHOLD = 8192


class SplitCursor:
    """A half-open index range [lo, hi) over one dataset, `data`.

    The range is clipped to the data when the cursor is built, as a slice
    clips it: an empty or reversed range holds no rows.
    """

    __slots__ = ("data", "lo", "hi")

    def __init__(self, dataset, lo: int = 0, hi: int | None = None):
        rows = range(len(dataset))[lo:hi]
        self.data = dataset
        self.lo = rows.start
        self.hi = rows.start + len(rows)

    def estimate_size(self) -> int:
        return self.hi - self.lo

    def try_split(self, threshold: int = DEFAULT_SPLIT_THRESHOLD):
        """Split off the first half if this range is worth splitting.

        Returns a new cursor over [lo, mid) and keeps [mid, hi), or None when
        the range is already at or below the threshold, or holds fewer than
        two rows: both halves of a split hold at least one.
        """
        size = self.hi - self.lo
        if size <= threshold or size < 2:
            return None
        mid = self.lo + size // 2
        child = SplitCursor(self.data, self.lo, mid)
        self.lo = mid
        return child


def try_advance(cursor: SplitCursor, consumer) -> bool:
    """Push a single element if one remains."""
    lo = cursor.lo
    if lo >= cursor.hi:
        return False
    cursor.lo = lo + 1
    cursor.data.push(consumer.accept, lo, lo + 1)
    return True


def for_each_remaining(cursor: SplitCursor, consumer) -> None:
    """Push every remaining element, consuming the cursor.

    A chain head is credited with the whole range at once, and the
    dataset's loop sends to the stage behind it.
    """
    lo, hi = cursor.lo, cursor.hi
    cursor.lo = hi
    if type(consumer) is _Head:
        consumer.n += hi - lo
        accept = consumer.down
    else:
        accept = consumer.accept
    cursor.data.push(accept, lo, hi)


class _Cell:
    """A filter's passes, in `n`: the flow entering the next stage."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


class _Rows:
    """A flat-map's inner source, in `n`: `width` rows for each element of
    `flow`, the flow entering the flat-map."""

    __slots__ = ("flow", "width")

    def __init__(self, flow, width: int):
        self.flow = flow
        self.width = width

    @property
    def n(self) -> int:
        return self.flow.n * self.width


class _Head:
    """A chain's entry: counts each element handed to it, in `n`.

    `down` is the first stage's accept.
    """

    __slots__ = ("n", "down")

    def __init__(self, down):
        self.n = 0
        self.down = down

    def accept(self, v):
        self.n += 1
        self.down(v)


# A stage is a generator function over its lambda and the next stage's
# accept; _chain primes it and hands on its send.  Every stage names its
# lambda `fn`, and binding writes that cell (lambdas.stage_cell), so `fn` is
# read after the yield: it is unbound while the stage is primed.


def _map(down):
    fn = None

    def map_stage():
        while True:
            v = yield
            down(fn(v))
    return map_stage


def _filter(down, passed):
    """`passed.n` counts what fn lets through: the flow entering the next stage."""
    fn = None

    def filter_stage():
        while True:
            v = yield
            if fn(v):
                passed.n += 1
                down(v)
    return filter_stage


def _flat_map(down, inner_ds, stages, flows, cache, sink):
    """Runs the inner chain over the inner source for each outer element.

    The inner stages are built and primed here, once, with their lambdas
    unbound; each outer element rebinds them through the chain's rebind
    function (CallSiteCache.rebinder), which is where the capture events
    come from.  `flows` holds each inner filter's flow (None for a map).
    `sink` is the terminal when the flat-map ends the query.
    """
    first, sites = _chain(down, stages, flows, (), None, cache, sink)
    rebind = cache.rebinder(sites)
    walk = inner_ds.walker(first)

    def flat_map_stage():
        while True:
            v = yield
            rebind(v)
            walk()
    return flat_map_stage


def _chain(down, stages, flows, inner_flows, datasets, cache, sink=None):
    """The first accept of `stages` in front of `down`, and the (lambda,
    cell) pair of each map and filter, in stage order; no lambda is bound
    yet.  The stages are built and primed back to front.  `flows` holds each
    stage's count cell (None for a map or a flat-map) and `inner_flows` a
    flat-map's inner ones.  When `down` is the accept of `sink`, the
    terminal, the last map or filter takes the sink's fold in place of a
    call to `down`."""
    sites = []
    for stage, flow in zip(reversed(stages), reversed(flows)):
        if isinstance(stage, FlatMap):
            make = _flat_map(down, resolve_dataset(datasets, stage.inner_source),
                             stage.stages, inner_flows, cache, sink)
        elif isinstance(stage, Map):
            make = _map(down) if sink is None else sink.fold_map()
            sites.append((stage.fn, stage_cell(make)))
        else:
            make = _filter(down, flow) if sink is None else sink.fold_filter()
            sites.append((stage.predicate, stage_cell(make)))
        coroutine = make()
        next(coroutine)  # runs to the first yield
        down = coroutine.send
        sink = None
    sites.reverse()
    return down, sites


class _Sink(NamedTuple):
    """A terminal: `accept` folds one value and `result()` reads the fold.

    fold_map() and fold_filter() build the stage next to the terminal: a
    stage with the fold inside, applying its `fn` as _map's and _filter's
    do, so a value that reaches the terminal costs no send of its own.  The
    fold stays in the sink's own variable, so result() reads it mid-drive.
    The terminal is not a stage: no counter counts its fold.  A last
    filter's passes enter no stage, so its fold keeps no count of them.
    """

    accept: Callable[[int], None]
    result: Callable[[], int]
    fold_map: Callable[[], Callable[[], Generator[None, int, None]]]
    fold_filter: Callable[[], Callable[[], Generator[None, int, None]]]


def _sum_sink() -> _Sink:
    """Folds with plain adds, congruent mod 2**64; result() wraps once."""
    acc = 0

    def accept(v):
        nonlocal acc
        acc += v

    def fold_map():
        fn = None

        def map_stage():
            nonlocal acc
            while True:
                v = yield
                acc += fn(v)
        return map_stage

    def fold_filter():
        fn = None

        def filter_stage():
            nonlocal acc
            while True:
                v = yield
                if fn(v):
                    acc += v
        return filter_stage

    return _Sink(accept, lambda: wrap_i64(acc), fold_map, fold_filter)


def _count_sink() -> _Sink:
    n = 0

    def accept(v):
        nonlocal n
        n += 1

    def fold_map():
        fn = None

        def map_stage():
            nonlocal n
            while True:
                v = yield
                fn(v)
                n += 1
        return map_stage

    def fold_filter():
        fn = None

        def filter_stage():
            nonlocal n
            while True:
                v = yield
                if fn(v):
                    n += 1
        return filter_stage

    return _Sink(accept, lambda: n, fold_map, fold_filter)


def build_chain(query: QueryExpr, datasets, counters: CounterSet,
                cache: CallSiteCache | None = None):
    """Build (head consumer, sink) for a query, wiring back-to-front.

    The chain's derivation is attached to counters; a chain with no stages
    is its sink, which nothing counts.
    """
    layout = layout_query(query)
    counters.ensure_stages(layout.labels)
    if cache is None:
        cache = CallSiteCache(counters)
    sink = _sum_sink() if query.terminal is Terminal.SUM else _count_sink()
    if not query.stages:
        return sink, sink
    # the flow each filter starts: its passes
    top = [_Cell() if isinstance(s, Filter) else None for s in query.stages]
    inner = [_Cell() if isinstance(s, Filter) else None
             for fm in query.stages if isinstance(fm, FlatMap) for s in fm.stages]
    accept, sites = _chain(sink.accept, query.stages, top, inner, datasets, cache, sink)
    for lam, cell in sites:
        cell.cell_contents = cache.bind(lam)
    head = _Head(accept)
    reads = []  # per slot: (slot, the flow entering it, counts applies)

    def entering(slot_ids, stages, started, flow):
        # a map passes on the flow entering it; a filter starts one, and a
        # flat-map's inner source is len(inner) rows per element entering it
        for slot, stage, own in zip(slot_ids, stages, started):
            if isinstance(stage, FlatMap):
                reads.append((slot, flow, False))
                rows = _Rows(flow, len(resolve_dataset(datasets, stage.inner_source)))
                flow = entering(layout.inner_slots, stage.stages, inner, rows)
            else:
                reads.append((slot, flow, True))
                if own is not None:
                    flow = own
        return flow

    entering(layout.top_slots, query.stages, top, head)

    def live():
        counts = [(0, 0)] * len(layout.labels)
        for slot, flow, applies in reads:
            n = flow.n
            counts[slot] = (n, n if applies else 0)
        return counts

    counters.attach(live)
    return head, sink


def run_push(query: QueryExpr, datasets, counters: CounterSet | None = None) -> int:
    """Push the whole source through the chain and fold the terminal."""
    if counters is None:
        counters = CounterSet()
    source_ds = resolve_dataset(datasets, query.source)
    chain, sink = build_chain(query, datasets, counters)
    for_each_remaining(SplitCursor(source_ds), chain)
    return sink.result()
