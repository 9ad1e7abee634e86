"""Push execution: internal iteration through a consumer chain.

The source owns the loop and feeds accept() calls down a chain built
back-to-front; each stage's accept is a closure over its lambda and the next
stage's accept.  Moving one element through a stage costs exactly one
boundary crossing — the accept it receives — so a stage entered by k elements
records k control_dispatches (and a map or filter k lambda_applies), against
pull's 2k+1.  A flat-map fuses its inner loop into its own accept: there is no
inner cursor, only inner accepts, built once with the function that builds
the top-level chain, whose lambdas are rebound per outer element through the
chain's rebind function (CallSiteCache.rebinder): that is where the capture
events come from.

The terminal is not a stage.  The stage next to it (the last map or filter,
or the last inner one when a flat-map ends the query) is built with the
terminal's fold inside its accept (`acc += fn(v)`), so an element that
reaches the sum or count costs no call past that stage; pull's terminal is
likewise its driving loop (run_pull).  No counter counts the fold.  A chain
with no stages, and a flat-map with no inner stages that ends the query,
call the terminal's plain accept.

Those counts are laws of element flow, so push keeps them off the per-element
path.  It counts only where the flow starts or changes: the chain's head (one
add per range in for_each_remaining, one per call on a direct accept), each
filter's passes, and a flat-map's inner source (len(inner) per outer element).
A map emits what enters it and counts nothing.  build_chain notes once the
count cell of the flow entering each map, filter and flat-map slot, and
hands the CounterSet one derivation that reads those cells; counts fold in
when they are read (counters.py).  A run that raises mid-way may leave
counts above what entered, since a range or an inner source is counted
before it moves; the engines discard a failed run's counters.

SplitCursor is the indexed view the source iterates: it can split off its
first half for parallel runs, advance one element at a time, or push
everything remaining in one tight loop.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .counters import CounterSet
from .exprs import wrap_i64
from .lambdas import CallSiteCache
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
    """A half-open index range [lo, hi) over one dataset, `data`."""

    __slots__ = ("data", "lo", "hi")

    def __init__(self, dataset, lo: int = 0, hi: int | None = None):
        self.data = dataset
        self.lo = lo
        self.hi = len(dataset) if hi is None else hi

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

    A chain head is credited with the whole range at once, clipped to the
    data as the slice is, and the dataset's loop calls the stage behind it.
    """
    data = cursor.data
    lo, hi = cursor.lo, cursor.hi
    cursor.lo = hi
    if type(consumer) is _Head:
        consumer.n += len(range(len(data))[lo:hi])
        accept = consumer.down
    else:
        accept = consumer.accept
    data.push(accept, lo, hi)


class _Cell:
    """A flow's count, in `n`: a filter's passes or a flat-map's inner source."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


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


# A stage's accept is a closure over its lambda and the next stage's accept,
# so moving an element through it reads no attribute.  _map and _filter
# return (accept, bind): bind(fn) sets the lambda the accept applies.


def _map(down):
    fn = None

    def accept(v):
        down(fn(v))

    def bind(f):
        nonlocal fn
        fn = f
    return accept, bind


def _filter(down, passed):
    """`passed.n` counts what fn lets through: the flow entering the next stage."""
    fn = None

    def accept(v):
        if fn(v):
            passed.n += 1
            down(v)

    def bind(f):
        nonlocal fn
        fn = f
    return accept, bind


def _flat_map(down, inner_ds, stages, flows, entered, cache, sink):
    """Runs the inner chain over the inner source for each outer element.

    The inner accepts are built here, once, with their lambdas unbound; each
    outer element rebinds them through the chain's rebind function
    (CallSiteCache.rebinder), which is where the capture events come from.
    `entered.n` counts the inner source's elements, the flow entering the
    first inner stage; `flows` holds each inner filter's flow (None for a
    map).  `sink` is the terminal when the flat-map ends the query.
    """
    push = inner_ds.push
    width = len(inner_ds)
    first, sites = _chain(down, stages, flows, (), None, cache, sink)
    rebind = cache.rebinder(sites)

    def accept(v):
        entered.n += width
        rebind(v)
        push(first, 0, width)
    return accept


def _chain(down, stages, flows, inner_flows, datasets, cache, sink=None):
    """The first accept of `stages` in front of `down`, and the (lambda,
    bind) pair of each map and filter, in stage order; no lambda is bound
    yet.  The accepts are built back to front.  `flows` holds each stage's
    count cell (None for a map) and `inner_flows` a flat-map's inner ones.
    When `down` is the accept of `sink`, the terminal, the last map or
    filter takes the sink's fold in place of a call to `down`."""
    sites = []
    for stage, flow in zip(reversed(stages), reversed(flows)):
        if isinstance(stage, FlatMap):
            down = _flat_map(down, resolve_dataset(datasets, stage.inner_source),
                             stage.stages, inner_flows, flow, cache, sink)
        elif isinstance(stage, Map):
            down, bind = _map(down) if sink is None else sink.fold_map()
            sites.append((stage.fn, bind))
        else:
            down, bind = _filter(down, flow) if sink is None else sink.fold_filter()
            sites.append((stage.predicate, bind))
        sink = None
    sites.reverse()
    return down, sites


class _Sink(NamedTuple):
    """A terminal: `accept` folds one value and `result()` reads the fold.

    fold_map() and fold_filter() build the stage next to the terminal with
    the fold inside its accept, returning (accept, bind) as _map and _filter
    do, so a value that reaches the terminal costs no call of its own.  The
    terminal is not a stage: no counter counts its fold.  A last filter's
    passes enter no stage, so its fold keeps no count of them.
    """

    accept: Callable[[int], None]
    result: Callable[[], int]
    fold_map: Callable[[], tuple]
    fold_filter: Callable[[], tuple]


def _sum_sink() -> _Sink:
    """Folds with plain adds, congruent mod 2**64; result() wraps once."""
    acc = 0

    def accept(v):
        nonlocal acc
        acc += v

    def fold_map():
        fn = None

        def accept(v):
            nonlocal acc
            acc += fn(v)

        def bind(f):
            nonlocal fn
            fn = f
        return accept, bind

    def fold_filter():
        fn = None

        def accept(v):
            nonlocal acc
            if fn(v):
                acc += v

        def bind(f):
            nonlocal fn
            fn = f
        return accept, bind

    return _Sink(accept, lambda: wrap_i64(acc), fold_map, fold_filter)


def _count_sink() -> _Sink:
    n = 0

    def accept(v):
        nonlocal n
        n += 1

    def fold_map():
        fn = None

        def accept(v):
            nonlocal n
            fn(v)
            n += 1

        def bind(f):
            nonlocal fn
            fn = f
        return accept, bind

    def fold_filter():
        fn = None

        def accept(v):
            nonlocal n
            if fn(v):
                n += 1

        def bind(f):
            nonlocal fn
            fn = f
        return accept, bind

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
    # the flow each filter (its passes) and the flat-map (its inner source) starts
    top = [None if isinstance(s, Map) else _Cell() for s in query.stages]
    inner = [_Cell() if isinstance(s, Filter) else None
             for fm in query.stages if isinstance(fm, FlatMap) for s in fm.stages]
    accept, sites = _chain(sink.accept, query.stages, top, inner, datasets, cache, sink)
    for lam, bind in sites:
        bind(cache.bind(lam))
    head = _Head(accept)
    reads = []  # per slot: (slot, the cell of the flow entering it, counts applies)

    def entering(slot_ids, stages, started, flow):
        # a map passes on the flow entering it; a filter or a flat-map starts one
        for slot, stage, own in zip(slot_ids, stages, started):
            if isinstance(stage, FlatMap):
                reads.append((slot, flow, False))
                flow = entering(layout.inner_slots, stage.stages, inner, own)
            else:
                reads.append((slot, flow, True))
                if own is not None:
                    flow = own
        return flow

    entering(layout.top_slots, query.stages, top, head)

    def live():
        counts = [(0, 0)] * len(layout.labels)
        for slot, cell, applies in reads:
            counts[slot] = (cell.n, cell.n if applies else 0)
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
