"""Push execution: internal iteration through a consumer chain.

The source owns the loop and feeds accept() calls down a chain built
back-to-front; each stage's accept is a closure over its lambda and the next
stage's accept.  Moving one element through a stage costs exactly one
boundary crossing — the accept it receives — so a stage entered by k elements
records k control_dispatches (and a map or filter k lambda_applies), against
pull's 2k+1.  A flat-map fuses its inner loop into its own accept: there is no
inner cursor, only inner accepts closed over lambdas bound afresh per outer
element, which is where the capture events come from.

Those counts are laws of element flow, so push keeps them off the per-element
path.  It counts only where the flow starts or changes: the chain's head (one
add per range in for_each_remaining, one per call on a direct accept), each
filter's passes, and a flat-map's inner source (len(inner) per outer element).
A map emits what enters it and counts nothing.  build_chain makes every map,
filter and flat-map slot follow the flow entering it (counters.py), so the
per-stage counts are derived when they are read.  A run that raises mid-way
may leave counts above what entered, since a range or an inner source is
counted before it moves; the engines discard a failed run's counters.

SplitCursor is the indexed view the source iterates: it can split off its
first half for parallel runs, advance one element at a time, or push
everything remaining in one tight loop.
"""

from __future__ import annotations

from .counters import CounterSet, Flow
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
# so moving an element through it reads no attribute.


def _map(down, fn):
    def accept(v):
        down(fn(v))
    return accept


def _filter(down, fn, passed):
    """`passed.n` counts what fn lets through: the flow entering the next stage."""

    def accept(v):
        if fn(v):
            passed.n += 1
            down(v)
    return accept


def _flat_map(down, inner_ds, stages, passed, entered, cache):
    """Runs the inner chain over the inner source for each outer element.

    Each outer element binds the inner lambdas, which is where the capture
    events come from, and closes the inner accepts over them.  The first one
    binds through the cache, which links and checks each inner site; later
    ones count the instantiation and call the site's template directly.
    `entered.n` counts the inner source's elements, the flow entering the
    first inner stage; `passed` holds each inner filter's flow (None for a
    map).
    """
    push = inner_ds.push
    width = len(inner_ds)
    plan = [(stage.fn if isinstance(stage, Map) else stage.predicate, flow)
            for stage, flow in zip(stages, passed)]
    plan.reverse()  # the accepts are built back to front
    linked = []  # per plan entry: (counters, template or instance, flow)

    def accept(outer_v):
        entered.n += width
        inner = down
        if linked:
            for ctr, make, flow in linked:
                if ctr is None:
                    fn = make
                else:
                    ctr.instantiations += 1
                    fn = make(outer_v)
                inner = _map(inner, fn) if flow is None else _filter(inner, fn, flow)
        else:
            for lam, flow in plan:
                fn = cache.bind(lam, (outer_v,) if lam.captures else ())
                inner = _map(inner, fn) if flow is None else _filter(inner, fn, flow)
            linked.extend((*cache.direct(lam), flow) for lam, flow in plan)
        push(inner, 0, width)
    return accept


class _SumSink:
    """Folds with plain adds, congruent mod 2**64; result() wraps once."""

    __slots__ = ("accept", "result")

    def __init__(self):
        acc = 0

        def accept(v):
            nonlocal acc
            acc += v

        self.accept = accept
        self.result = lambda: wrap_i64(acc)


class _CountSink:
    __slots__ = ("accept", "result")

    def __init__(self):
        n = 0

        def accept(v):
            nonlocal n
            n += 1

        self.accept = accept
        self.result = lambda: n


def build_chain(query: QueryExpr, datasets, counters: CounterSet,
                cache: CallSiteCache | None = None):
    """Build (head consumer, sink) for a query, wiring back-to-front.

    Each map, filter and flat-map slot then follows the flow entering it;
    a chain with no stages is its sink, which nothing counts.
    """
    layout = layout_query(query)
    counters.ensure_stages(layout.labels)
    if cache is None:
        cache = CallSiteCache(counters)
    sink = _SumSink() if query.terminal is Terminal.SUM else _CountSink()
    if not query.stages:
        return sink, sink
    # the flow each filter (its passes) and the flat-map (its inner source) starts
    top = [None if isinstance(s, Map) else Flow() for s in query.stages]
    inner = [Flow() if isinstance(s, Filter) else None
             for fm in query.stages if isinstance(fm, FlatMap) for s in fm.stages]
    accept = sink.accept
    for stage, flow in zip(reversed(query.stages), reversed(top)):
        if isinstance(stage, Map):
            accept = _map(accept, cache.bind(stage.fn))
        elif isinstance(stage, Filter):
            accept = _filter(accept, cache.bind(stage.predicate), flow)
        else:
            accept = _flat_map(accept, resolve_dataset(datasets, stage.inner_source),
                               stage.stages, inner, flow, cache)
    head = _Head(accept)
    slots = counters.stages

    def follow(slot_ids, stages, started, flow):
        # a map passes on the flow entering it; a filter or a flat-map starts one
        for slot, stage, own in zip(slot_ids, stages, started):
            if isinstance(stage, FlatMap):
                slots[slot].follow(flow)
                flow = follow(layout.inner_slots, stage.stages, inner, own)
            else:
                slots[slot].follow(flow, flow)
                if own is not None:
                    flow = own
        return flow

    follow(layout.top_slots, query.stages, top, head)
    return head, sink


def run_push(query: QueryExpr, datasets, counters: CounterSet | None = None) -> int:
    """Push the whole source through the chain and fold the terminal."""
    if counters is None:
        counters = CounterSet()
    source_ds = resolve_dataset(datasets, query.source)
    chain, sink = build_chain(query, datasets, counters)
    for_each_remaining(SplitCursor(source_ds), chain)
    return sink.result()
