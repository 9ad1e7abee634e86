"""Pull execution: external iteration through a chain of cursors.

Each stage is a cursor: a pair of advance()/get() closures over its
upstream's pair and its lambda, so an element crossing a stage reads no
attribute.  The terminal drives the last cursor, which delegates upstream, so
moving one element through k stages costs a cascade of boundary crossings: a
stage that emits k elements receives k+1 advances plus k gets, i.e. 2k+1
crossings, the number this strategy exists to make visible.  A map's
advance would only delegate, so the map hands out its upstream's advance
as its own, one Python frame fewer per element, as a mature runtime
inlines a MoveNext that only delegates; it is still the map's crossing,
since the counts below are laws, not calls.

Those counts are laws of element flow, so pull keeps them off the
per-element path.  It counts only where the flow starts or changes: a source
has emitted as many elements as its index has moved past, and counts its
failed advances; a filter counts its passes and its failed advances; a
flat-map counts its failed advances and emits what its inner chain emits.
Everything else follows from who calls whom.  A cursor has one caller, so a
map advances as often as its upstream, and a cursor's gets are fixed by its
caller: a filter or a flat-map gets each element its upstream emits once,
and a map (or a flat-map, of its inner chain) passes on the gets that found
an element.  A map applies once per such get, a filter once per element its
upstream emits.  The gets an outside driver makes on open_chain's chain are
counted as they happen; run_pull gets once per element it advances to.
Each chain hands its CounterSet one derivation that fills every slot from
that state; counts fold in when they are read (counters.py).  After a lambda
raises mid-run the derived counts may be below the calls made; the engines
discard a failed run's counters.

A map keeps no state, and a flat-map's get passes straight to its inner
chain: each is live exactly when what it reads from is, so a get before
advance raises where the element would have come from.

A flat-map builds its inner chain once, with the function that builds the
top-level chain.  For each outer element it rebinds the inner lambdas
through the chain's rebind function (CallSiteCache.rebinder), which records
the capture events, then advances the inner chain.  The inner source starts
over by itself on its failed advance, and every drain of the inner chain
ends there: a map passes the failure through, and a filter loops until it
gets a pass or a failure.  So the 2k+1 law holds per drain, and a top-level
source stays exhausted.  The inner source reads its rows boxed once per
chain (the row-read protocol's reader(at, inner)).

Opening a chain does no element work: nothing advances, no lambda applies,
until the terminal starts pulling.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .counters import CounterSet
from .errors import GetBeforeAdvance
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


class _Nothing:
    """No current element: a filter's value, or a source's position, where
    reading a row raises."""

    def __index__(self):
        raise GetBeforeAdvance("source cursor has no current element")


_NOTHING = _Nothing()


class Cursor(NamedTuple):
    """A cursor's closures.  Only advance and get run per element; emitted()
    and advances() read its state when counters are read."""

    advance: Callable[[], bool]
    get: Callable[[], int]
    emitted: Callable[[], int]
    advances: Callable[[], int]
    inner: tuple = ()  # a flat-map's inner cursors, source first


def _source(dataset, inner=False):
    """A cursor over a dataset.  Its get is the dataset's read (query.py) of
    the row at `at[0]`, the source's current position.  An inner source
    starts over on its own failed advance, so a flat-map's next outer
    element finds it at the first row; it has emitted every element its
    index moved past, `before` the last failed advance and since.  A
    top-level source stays exhausted."""
    hi = len(dataset)
    at = [_NOTHING]
    i = before = failed = 0

    def advance():
        nonlocal i, before, failed
        if i < hi:
            at[0] = i
            i += 1
            return True
        at[0] = _NOTHING
        failed += 1
        if inner:
            before += i
            i = 0
        return False

    def emitted():
        return before + i

    return Cursor(advance, dataset.reader(at, inner), emitted,
                  lambda: emitted() + failed)


def _map(up):
    """A cursor whose get applies `fn`.  The map keeps no state: its advance
    is its upstream's, and it emits as its upstream does."""
    up_get = up.get
    fn = None

    def get():
        return fn(up_get())

    return Cursor(up.advance, get, up.emitted, up.advances)


def _filter(up):
    """A cursor whose advance tests `fn`."""
    up_advance, up_get = up.advance, up.get
    fn = None
    cur = _NOTHING
    passed = failed = 0

    def advance():
        nonlocal cur, passed, failed
        while up_advance():
            v = up_get()
            if fn(v):
                cur = v
                passed += 1
                return True
        cur = _NOTHING
        failed += 1
        return False

    def get():
        if cur is _NOTHING:
            raise GetBeforeAdvance("filter cursor has no current element")
        return cur

    return Cursor(advance, get, lambda: passed, lambda: passed + failed)


def _flat_map(up, inner_ds, stages, datasets, cache):
    """A cursor that drains one inner chain per outer element.

    The inner chain is built here, once, with its lambdas unbound; each
    outer element rebinds them (module docstring).  The inner chain fails
    only once its source has failed and started over, so the first inner
    advance after a rebind reads the first row.  The flat-map emits what
    the inner chain's last cursor emits.
    """
    up_advance, up_get = up.advance, up.get
    inner, sites = _chain(_source(inner_ds, True), stages, datasets, cache)
    rebind = cache.rebinder(sites)
    inner_advance, inner_get, inner_emitted = inner[-1][:3]
    opened = False
    failed = 0

    def advance():
        nonlocal opened, failed
        if opened and inner_advance():
            return True
        while up_advance():
            rebind(up_get())
            opened = True
            if inner_advance():
                return True
        opened = False
        failed += 1
        return False

    return Cursor(advance, inner_get, inner_emitted,
                  lambda: inner_emitted() + failed, tuple(inner))


def _chain(up, stages, datasets, cache):
    """The cursors of `stages` over `up`, `up` first, and the (lambda, cell)
    pair of each map and filter, in stage order: the cell of the `fn` its
    closures apply, which binding writes.  No lambda is bound yet."""
    cursors, sites = [up], []
    for stage in stages:
        if isinstance(stage, FlatMap):
            up = _flat_map(up, resolve_dataset(datasets, stage.inner_source),
                           stage.stages, datasets, cache)
        elif isinstance(stage, Map):
            up = _map(up)
            sites.append((stage.fn, stage_cell(up.get)))
        else:
            up = _filter(up)
            sites.append((stage.predicate, stage_cell(up.advance)))
        cursors.append(up)
    return cursors, sites


def _counting(get):
    """(get, calls, found): a get that counts its calls and those that found
    an element, for a chain an outside driver pulls."""
    calls = missed = 0

    def counted():
        nonlocal calls, missed
        calls += 1
        try:
            return get()
        except GetBeforeAdvance:
            missed += 1
            raise

    return counted, lambda: calls, lambda: calls - missed


def _fill(counts, layout, ids, cursors, stages, received, found):
    """Fill each slot's (dispatches, applies), from the last cursor to the first.

    `ids` and `cursors` hold the source first, then one per stage;
    `received` is the gets the last cursor receives and `found` those that
    found an element.  Each cursor's gets are fixed by the one after it.
    """
    for k in range(len(cursors) - 1, -1, -1):
        cursor = cursors[k]
        stage = stages[k - 1] if k else None
        applies = (found if isinstance(stage, Map)
                   else cursors[k - 1].emitted() if isinstance(stage, Filter) else 0)
        counts[ids[k]] = (cursor.advances() + received, applies)
        if isinstance(stage, FlatMap):
            # the gets it answers with an element are its inner chain's gets
            _fill(counts, layout, (layout.inner_source_slot, *layout.inner_slots),
                  cursor.inner, stage.stages, found, found)
        if k and not isinstance(stage, Map):
            # a filter or a flat-map gets each element its upstream emits once
            found = cursors[k - 1].emitted()
        received = found


def _open(query: QueryExpr, datasets, counters: CounterSet, cache, counted: bool):
    """The query's last cursor; the chain's derivation is attached to counters.

    With counted=True its get counts the calls an outside driver makes.
    Without, the caller gets each element it advances to exactly once, as
    run_pull does, and the last cursor's gets are what it emitted.
    """
    layout = layout_query(query)
    counters.ensure_stages(layout.labels)
    if cache is None:
        cache = CallSiteCache(counters)
    cursors, sites = _chain(_source(resolve_dataset(datasets, query.source)),
                            query.stages, datasets, cache)
    for lam, cell in sites:
        cell.cell_contents = cache.bind(lam)
    cursor = cursors[-1]
    received = found = cursor.emitted
    if counted:
        get, received, found = _counting(cursor.get)
        cursor = cursor._replace(get=get)

    def live():
        counts = [(0, 0)] * len(layout.labels)
        _fill(counts, layout, (0, *layout.top_slots), cursors, query.stages,
              received(), found())
        return counts

    counters.attach(live)
    return cursor


def open_chain(query: QueryExpr, datasets, counters: CounterSet,
               cache: CallSiteCache | None = None) -> Cursor:
    """Build the cursor chain for a query and return its last cursor.
    Lazy: no element moves yet."""
    return _open(query, datasets, counters, cache, counted=True)


def run_pull(query: QueryExpr, datasets, counters: CounterSet | None = None) -> int:
    """Drive a pull chain to exhaustion and fold the terminal."""
    if counters is None:
        counters = CounterSet()
    chain = _open(query, datasets, counters, None, counted=False)
    advance, get = chain.advance, chain.get
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
