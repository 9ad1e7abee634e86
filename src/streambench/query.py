"""Declarative pipelines and the datasets they run over.

A QueryExpr is pure data: a named source, an ordered list of stages and a
terminal fold.  The same QueryExpr runs unchanged on every execution strategy,
which is the whole point — the strategies differ only in who drives iteration
and how many boundary crossings that costs.  A QueryExpr is checked against
the query language when it is built, however it is built, so the engines,
the optimizer and the oracle take every QueryExpr as valid and check none.

Datasets come in two layouts.  IntsDataset is a contiguous 64-bit array,
which boxes a value on every read.  RefsDataset holds Ref records with the
value one indirection away: every engine reads it through `r.value`, one
pointer chase per element visit, and never from a copy of the values.

Both layouts build their rows in bulk.  When every value is an int, one
`array("q", ...)` call checks every range in C and accepts exactly those
`wrap_i64` leaves unchanged, so the ints layout keeps that array and each Ref
holds the caller's own int object.  Otherwise both layouts hold the array of
the values' `wrap_i64` images, which gives the rows and the errors of a
value-by-value ints build.  The cyclic collector is paused while the Ref
records are allocated, as it would otherwise walk the young records again
and again: a Ref holds one int and the list holds only Refs, so the build
forms no cycle for it to find, and a paused collector only defers a
collection.

Every engine reads rows through this row-read protocol, and none asks which
layout it holds.  Nothing in it calls anything per element but `accept`.

  len(ds), ds.values()     the row count; the plain value list
  ds.push(accept, lo, hi)  accept(value) per row of [lo, hi), clipped as a
                           slice clips; no copy when that is every row
  ds.walker(accept)        walk() -> accept(value) per row, every row, once
                           per call: a flat-map's inner rows, walked once per
                           outer element; the ints layout boxes its rows once
                           per walker, the refs layout reads each record's
                           `r.value` on every walk
  ds.reader(at, inner)     pull's element read: get() -> the value of row
                           at[0], where pull's position for "no element"
                           raises GetBeforeAdvance when used as an index;
                           for an inner source, read once per outer
                           element, the ints layout boxes its rows once per
                           reader, the refs layout reads `r.value` on every
                           get
  ds.fused_loop(bind, var, inner)
                           a fused loop over [lo, hi) of the rows, or over
                           all of them once per outer element for an inner
                           loop, as (target, iterable, reads): the emitter
                           writes `for <target> in <iterable>:`, then the
                           reads, which set `var`; bind(v) names a value
  ds.fork_safe             True when reading rows writes no memory, so a
                           forked parallel worker leaves the pages it reads
                           shared; a layout without it never forks
"""

from __future__ import annotations

import gc
from array import array
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidPipeline, UnresolvedDataset
from .exprs import Cmp, wrap_i64
from .lambdas import Lambda


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


class Ref:
    """A record holding one value behind a level of indirection."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __repr__(self) -> str:
        return f"Ref({self.value})"


def _wrapped(values):
    """(values, their array) when every value is an int already in i64 range,
    so that wrap_i64 changes none; else (rows, rows), rows the array of their
    wrap_i64 images, which wraps and raises as a value-by-value build does."""
    if type(values) not in (list, tuple, range):  # array() reads them by item
        values = list(values)  # an iterator is read once; bytes are not rows
    # array("q") also takes a bool and any object with __index__
    if set(map(type, values)) <= {int}:
        try:
            return values, array("q", values)
        except OverflowError:
            pass
    rows = array("q", map(wrap_i64, values))
    return rows, rows


class IntsDataset:
    """A contiguous array of signed 64-bit values."""

    __slots__ = ("data",)
    fork_safe = True  # reads copy values out of one buffer

    def __init__(self, values):
        self.data = _wrapped(values)[1]

    def __len__(self) -> int:
        return len(self.data)

    def push(self, accept, lo: int, hi: int) -> None:
        data = self.data
        # a whole run reads the array itself: a slice would copy all of it
        for v in data if lo == 0 and hi >= len(data) else data[lo:hi]:
            accept(v)

    def walker(self, accept):
        rows = list(self.data)  # boxed once, not once per walk

        def walk():
            for v in rows:
                accept(v)
        return walk

    def reader(self, at, inner: bool):
        data = list(self.data) if inner else self.data  # boxed once per reader
        return lambda: data[at[0]]

    def fused_loop(self, bind, var: str, inner: bool):
        if inner:  # walked once per outer element: box it once per run
            return var, bind(list(self.data)), ()
        return var, f"{bind(self.data)}[lo:hi]", ()  # a slice is a memcpy

    def values(self) -> list[int]:
        return list(self.data)


class RefsDataset:
    """An array of Ref records; one indirection per element access."""

    __slots__ = ("data",)
    fork_safe = False  # reading r.value increfs every record

    def __init__(self, values):
        values = _wrapped(values)[0]  # the caller's ints, or the wrapped array
        enabled = gc.isenabled()
        gc.disable()  # a Ref holds one int: the records form no cycle
        try:
            self.data = list(map(Ref, values))
        finally:
            if enabled:
                gc.enable()

    def __len__(self) -> int:
        return len(self.data)

    def push(self, accept, lo: int, hi: int) -> None:
        data = self.data
        # a list slice increfs every record: walk the list when it is all
        for r in data if lo == 0 and hi >= len(data) else data[lo:hi]:
            accept(r.value)

    def walker(self, accept):
        data = self.data

        def walk():
            for r in data:
                accept(r.value)
        return walk

    def reader(self, at, inner: bool):
        data = self.data
        return lambda: data[at[0]].value

    def fused_loop(self, bind, var: str, inner: bool):
        rows = bind(self.data)
        if not inner:
            # the list itself when [lo, hi) covers it: a sequential run
            # copies no pointers, parallel leaves still slice
            rows = f"({rows} if lo == 0 and hi >= len({rows}) else {rows}[lo:hi])"
        return "r", rows, (f"{var} = r.value",)

    def values(self) -> list[int]:
        return [r.value for r in self.data]


Dataset = IntsDataset | RefsDataset


def ints_dataset(values) -> IntsDataset:
    return IntsDataset(values)


def refs_dataset(values) -> RefsDataset:
    return RefsDataset(values)


def resolve_dataset(datasets, name: str) -> Dataset:
    try:
        return datasets[name]
    except KeyError:
        raise UnresolvedDataset(f"no dataset bound to {name!r}") from None


def dataset_values(ds: Dataset) -> list[int]:
    """Plain value list, indirections resolved."""
    return ds.values()


# ---------------------------------------------------------------------------
# Stages and queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Map:
    """Transform each element with an arithmetic lambda."""

    fn: Lambda


@dataclass(frozen=True, slots=True)
class Filter:
    """Keep elements whose predicate lambda holds."""

    predicate: Lambda


@dataclass(frozen=True, slots=True)
class FlatMap:
    """For each element, iterate a named inner dataset through inner stages.

    Inner stage lambdas may reference Capture(0), which is bound to the
    current outer element for the duration of the inner traversal.
    """

    inner_source: str
    stages: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))


Stage = Map | Filter | FlatMap


class Terminal(Enum):
    SUM = "sum"
    COUNT = "count"


@dataclass(frozen=True, slots=True)
class QueryExpr:
    """A pipeline in the query language, checked when it is built.

    The rules: the terminal is a Terminal; the source and a FlatMap's inner
    source are dataset names (str); stages are Maps, Filters or FlatMaps of
    unary Lambdas; top-level lambdas capture nothing, inner ones
    at most Capture(0); predicates are comparison-rooted and map bodies are
    not; a query holds at most one FlatMap, one level deep (the fused plan
    format has exactly one optional inner loop, and every strategy accepts
    the same query language).  A breach raises InvalidPipeline.
    """

    source: str
    stages: tuple
    terminal: Terminal

    def __post_init__(self) -> None:
        if not isinstance(self.terminal, Terminal):
            raise InvalidPipeline(f"unknown terminal: {self.terminal!r}")
        if not isinstance(self.source, str):
            raise InvalidPipeline(f"source is not a dataset name: {self.source!r}")
        object.__setattr__(self, "stages", tuple(self.stages))
        _check_stages(self.stages, "stage", 0)


def _check_stages(stages: tuple, where: str, captures: int) -> None:
    """Check top-level stages (captures 0) or a flat-map's inner ones
    (captures 1), in order; errors name the stage as `<where> <pos>`."""
    flatmaps = 0
    for pos, stage in enumerate(stages):
        if isinstance(stage, Map):
            lam, is_predicate = stage.fn, False
        elif isinstance(stage, Filter):
            lam, is_predicate = stage.predicate, True
        elif captures:
            raise InvalidPipeline(f"{where} {pos}: flat-map nesting is limited to depth 2")
        elif isinstance(stage, FlatMap):
            flatmaps += 1
            if flatmaps > 1:
                raise InvalidPipeline("at most one flat-map per query")
            if not isinstance(stage.inner_source, str):
                raise InvalidPipeline(f"{where} {pos}: inner source is not a dataset "
                                      f"name: {stage.inner_source!r}")
            _check_stages(stage.stages, f"{where} {pos}.inner", 1)
            continue
        else:
            raise InvalidPipeline(f"{where} {pos}: not a pipeline stage: {stage!r}")
        if not isinstance(lam, Lambda):
            raise InvalidPipeline(f"{where} {pos}: not a lambda: {lam!r}")
        if lam.arity != 1:
            raise InvalidPipeline(
                f"{where} {pos}: stage lambdas are unary, got arity {lam.arity}")
        if lam.captures > captures:
            raise InvalidPipeline(
                f"{where} {pos}: at most {captures} capture slot(s) allowed here, "
                f"lambda declares {lam.captures}")
        body_is_cmp = type(lam.body) is Cmp
        if is_predicate and not body_is_cmp:
            raise InvalidPipeline(f"{where} {pos}: predicate body must be comparison-rooted")
        if not is_predicate and body_is_cmp:
            raise InvalidPipeline(
                f"{where} {pos}: map body must be arithmetic, not a comparison")


def build_query(source: str, stages, terminal: Terminal) -> QueryExpr:
    """Assemble a pipeline; QueryExpr checks it against the query language."""
    return QueryExpr(source, stages, terminal)


# ---------------------------------------------------------------------------
# Stage slot layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class StageLayout:
    """Counter slot assignment for a query.

    Slot 0 is the source, slots 1..k the top-level stages in order.  A
    flat-map's inner source and inner stages get the slots after that, so the
    inner machinery is attributable without disturbing top-level numbering.
    """

    labels: tuple
    top_slots: tuple
    flatmap_pos: int | None
    inner_source_slot: int | None
    inner_slots: tuple


def _stage_kind(stage: Stage) -> str:
    if isinstance(stage, Map):
        return "map"
    if isinstance(stage, Filter):
        return "filter"
    return "flat_map"


def layout_query(query: QueryExpr) -> StageLayout:
    labels = ["source"]
    top_slots = []
    flatmap_pos = None
    inner_source_slot = None
    inner_slots = []
    flatmap = None
    for pos, stage in enumerate(query.stages):
        top_slots.append(len(labels))
        labels.append(f"{pos}:{_stage_kind(stage)}")
        if isinstance(stage, FlatMap):
            flatmap_pos = pos
            flatmap = stage
    if flatmap is not None:
        inner_source_slot = len(labels)
        labels.append(f"{flatmap_pos}.inner:source")
        for ipos, inner in enumerate(flatmap.stages):
            inner_slots.append(len(labels))
            labels.append(f"{flatmap_pos}.inner.{ipos}:{_stage_kind(inner)}")
    return StageLayout(tuple(labels), tuple(top_slots), flatmap_pos,
                       inner_source_slot, tuple(inner_slots))
