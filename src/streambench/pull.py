"""Pull execution: external iteration through a chain of cursors.

Each stage is a cursor with advance()/get().  The terminal drives the last
cursor, which delegates upstream, so moving one element through k stages costs
a cascade of boundary crossings.  Every advance or get a cursor receives
increments that stage's control_dispatches — for a stage that emits k elements
that is k+1 advances plus k gets, i.e. 2k+1 crossings, the number this
strategy exists to make visible.

Opening a chain does no element work: nothing advances, no lambda applies,
until the terminal starts pulling.
"""

from __future__ import annotations

from .counters import CounterSet
from .errors import GetBeforeAdvance
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
from .exprs import wrap_i64

_NOTHING = object()


class _IntsSource:
    __slots__ = ("_data", "_i", "_hi", "_cur", "_ctr")

    def __init__(self, data, ctr):
        self._data = data
        self._i = 0
        self._hi = len(data)
        self._cur = _NOTHING
        self._ctr = ctr

    def advance(self):
        ctr = self._ctr
        ctr.stored_dispatches += 1
        i = self._i
        if i < self._hi:
            self._i = i + 1
            self._cur = self._data[i]
            return True
        self._cur = _NOTHING
        return False

    def get(self):
        self._ctr.stored_dispatches += 1
        v = self._cur
        if v is _NOTHING:
            raise GetBeforeAdvance("source cursor has no current element")
        return v


class _RefsSource(_IntsSource):
    __slots__ = ()

    def get(self):
        self._ctr.stored_dispatches += 1
        r = self._cur
        if r is _NOTHING:
            raise GetBeforeAdvance("source cursor has no current element")
        return r.value


class _MapCursor:
    __slots__ = ("_up", "_fn", "_ctr", "_live")

    def __init__(self, up, fn, ctr):
        self._up = up
        self._fn = fn
        self._ctr = ctr
        self._live = False

    def advance(self):
        self._ctr.stored_dispatches += 1
        ok = self._up.advance()
        self._live = ok
        return ok

    def get(self):
        ctr = self._ctr
        ctr.stored_dispatches += 1
        if not self._live:
            raise GetBeforeAdvance("map cursor has no current element")
        v = self._up.get()
        ctr.stored_applies += 1
        return self._fn(v)


class _FilterCursor:
    __slots__ = ("_up", "_pred", "_ctr", "_cur")

    def __init__(self, up, pred, ctr):
        self._up = up
        self._pred = pred
        self._ctr = ctr
        self._cur = _NOTHING

    def advance(self):
        ctr = self._ctr
        ctr.stored_dispatches += 1
        up = self._up
        pred = self._pred
        while up.advance():
            v = up.get()
            ctr.stored_applies += 1
            if pred(v):
                self._cur = v
                return True
        self._cur = _NOTHING
        return False

    def get(self):
        self._ctr.stored_dispatches += 1
        v = self._cur
        if v is _NOTHING:
            raise GetBeforeAdvance("filter cursor has no current element")
        return v


class _FlatMapCursor:
    """Drains a freshly built inner chain per outer element.

    Rebinding the inner lambdas for every outer element is the capture event
    the call-site counters record; the inner cursors charge their crossings to
    the inner stage slots.  The first outer element binds through the cache,
    which links and checks each inner site; later ones count the
    instantiation and call the site's template directly.
    """

    __slots__ = ("_up", "_ctr", "_inner_data", "_inner_refs", "_inner_stages",
                 "_cache", "_src_ctr", "_stage_ctrs", "_linked", "_inner", "_live")

    def __init__(self, up, ctr, inner_ds, inner_stages, cache, src_ctr, stage_ctrs):
        self._up = up
        self._ctr = ctr
        self._inner_refs = isinstance(inner_ds, RefsDataset)
        self._inner_data = inner_ds.data
        self._inner_stages = inner_stages
        self._cache = cache
        self._src_ctr = src_ctr
        self._stage_ctrs = stage_ctrs
        self._linked = []  # per inner stage: (counters, template or instance, cursor class, slot)
        self._inner = None
        self._live = False

    def _open_inner(self, outer_v):
        if self._inner_refs:
            cursor = _RefsSource(self._inner_data, self._src_ctr)
        else:
            cursor = _IntsSource(self._inner_data, self._src_ctr)
        linked = self._linked
        if linked:
            for ctr, make, kind, slot in linked:
                if ctr is None:
                    fn = make
                else:
                    ctr.instantiations += 1
                    fn = make(outer_v)
                cursor = kind(cursor, fn, slot)
            return cursor
        cache = self._cache
        bound = []
        for stage, slot in zip(self._inner_stages, self._stage_ctrs):
            lam, kind = ((stage.fn, _MapCursor) if isinstance(stage, Map)
                         else (stage.predicate, _FilterCursor))
            fn = cache.bind(lam, (outer_v,) if lam.captures else ())
            cursor = kind(cursor, fn, slot)
            bound.append((lam, kind, slot))
        self._linked = [(*cache.direct(lam), kind, slot) for lam, kind, slot in bound]
        return cursor

    def advance(self):
        self._ctr.stored_dispatches += 1
        inner = self._inner
        up = self._up
        while True:
            if inner is not None and inner.advance():
                self._live = True
                return True
            if not up.advance():
                self._inner = None
                self._live = False
                return False
            inner = self._open_inner(up.get())
            self._inner = inner

    def get(self):
        self._ctr.stored_dispatches += 1
        if not self._live:
            raise GetBeforeAdvance("flat-map cursor has no current element")
        return self._inner.get()


def open_chain(query: QueryExpr, datasets, counters: CounterSet,
               cache: CallSiteCache | None = None):
    """Build the cursor chain for a query.  Lazy: no element moves yet."""
    layout = layout_query(query)
    counters.ensure_stages(layout.labels)
    if cache is None:
        cache = CallSiteCache(counters)
    source_ds = resolve_dataset(datasets, query.source)
    stages = counters.stages
    if isinstance(source_ds, RefsDataset):
        cursor = _RefsSource(source_ds.data, stages[0])
    else:
        cursor = _IntsSource(source_ds.data, stages[0])
    for pos, stage in enumerate(query.stages):
        ctr = stages[layout.top_slots[pos]]
        if isinstance(stage, Map):
            cursor = _MapCursor(cursor, cache.bind(stage.fn), ctr)
        elif isinstance(stage, Filter):
            cursor = _FilterCursor(cursor, cache.bind(stage.predicate), ctr)
        else:
            inner_ds = resolve_dataset(datasets, stage.inner_source)
            stage_ctrs = [stages[s] for s in layout.inner_slots]
            cursor = _FlatMapCursor(cursor, ctr, inner_ds, stage.stages, cache,
                                    stages[layout.inner_source_slot], stage_ctrs)
    return cursor


def run_pull(query: QueryExpr, datasets, counters: CounterSet | None = None) -> int:
    """Drive a pull chain to exhaustion and fold the terminal."""
    if counters is None:
        counters = CounterSet()
    chain = open_chain(query, datasets, counters)
    advance = chain.advance
    get = chain.get
    if query.terminal is Terminal.SUM:
        acc = 0
        while advance():
            acc += get()
        return wrap_i64(acc)
    n = 0
    while advance():
        get()
        n += 1
    return n
