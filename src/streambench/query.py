"""Declarative pipelines and the datasets they run over.

A QueryExpr is pure data: a named source, an ordered list of stages and a
terminal fold.  The same QueryExpr runs unchanged on every execution strategy,
which is the whole point — the strategies differ only in who drives iteration
and how many boundary crossings that costs.

Datasets come in two layouts.  IntsDataset is a contiguous 64-bit array,
which boxes a value on every read.  RefsDataset holds Ref records with the
value one indirection away: every engine reads it through `r.value`, one
pointer chase per element visit, and never from a copy of the values.

Both layouts build their rows in bulk.  One `array("q", ...)` call checks
every value in C; with each value an int (or bool) it accepts exactly those
`wrap_i64` leaves unchanged, so the ints layout keeps that array and each Ref
holds the caller's own int object.  Otherwise the rows are built by the
`wrap_i64` generator, which gives the wrapped values and the errors of a
value-by-value build.  The cyclic collector is paused while the Ref records
are allocated, as it would otherwise walk the young records again and again:
a Ref holds one int and the list holds only Refs, so the build forms no
cycle for it to find, and a paused collector only defers a collection.

Every engine reads rows through this row-read protocol, and none asks which
layout it holds.  Nothing in it calls anything per element but `accept`.

  len(ds), ds.values()     the row count; the plain value list
  ds.push(accept, lo, hi)  accept(value) per row of [lo, hi), clipped as a
                           slice clips; no copy when that is every row
  ds.reader(at)            pull's element read: get() -> the value of row
                           at[0], where pull's position for "no element"
                           raises GetBeforeAdvance when used as an index
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
    so that wrap_i64 changes none; else (a wrap_i64 map over them, None),
    which wraps and raises as a value-by-value build does."""
    if type(values) not in (list, tuple, range):  # array() reads them by item
        values = list(values)  # an iterator is read once; bytes are not rows
    try:
        rows = array("q", values)
    except (OverflowError, TypeError):
        rows = None
    # array("q") also takes any object with __index__, which wrap_i64 may reject
    if rows is None or not set(map(type, values)) <= {int, bool}:
        return map(wrap_i64, values), None
    return values, rows


class IntsDataset:
    """A contiguous array of signed 64-bit values."""

    __slots__ = ("data",)
    fork_safe = True  # reads copy values out of one buffer

    def __init__(self, values):
        values, rows = _wrapped(values)
        self.data = rows if rows is not None else array("q", values)

    def __len__(self) -> int:
        return len(self.data)

    def push(self, accept, lo: int, hi: int) -> None:
        data = self.data
        # a flat-map walks its inner rows per outer element: copy none
        for v in data if lo == 0 and hi >= len(data) else data[lo:hi]:
            accept(v)

    def reader(self, at):
        data = self.data
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
        values = _wrapped(values)[0]  # drop the array: Refs hold the ints
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

    def reader(self, at):
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


Stage = Map | Filter | FlatMap


class Terminal(Enum):
    SUM = "sum"
    COUNT = "count"


@dataclass(frozen=True, slots=True)
class QueryExpr:
    source: str
    stages: tuple
    terminal: Terminal


def _check_stage_lambda(lam: Lambda, where: str, is_predicate: bool,
                        max_captures: int) -> None:
    if lam.arity != 1:
        raise InvalidPipeline(f"{where}: stage lambdas are unary, got arity {lam.arity}")
    if lam.captures > max_captures:
        raise InvalidPipeline(
            f"{where}: at most {max_captures} capture slot(s) allowed here, "
            f"lambda declares {lam.captures}")
    body_is_cmp = type(lam.body) is Cmp
    if is_predicate and not body_is_cmp:
        raise InvalidPipeline(f"{where}: predicate body must be comparison-rooted")
    if not is_predicate and body_is_cmp:
        raise InvalidPipeline(f"{where}: map body must be arithmetic, not a comparison")


def build_query(source: str, stages, terminal: Terminal) -> QueryExpr:
    """Validate and assemble a pipeline.

    Rules enforced here: stage lambdas are unary; top-level lambdas capture
    nothing; predicates are comparison-rooted and map bodies are not; flat-map
    nesting is at most one level deep; and a query holds at most one FlatMap
    (the fused plan format has exactly one optional inner loop, and every
    strategy accepts the same query language).
    """
    if not isinstance(terminal, Terminal):
        raise InvalidPipeline(f"unknown terminal: {terminal!r}")
    stages = tuple(stages)
    flatmaps = 0
    for pos, stage in enumerate(stages):
        where = f"stage {pos}"
        if isinstance(stage, Map):
            _check_stage_lambda(stage.fn, where, False, 0)
        elif isinstance(stage, Filter):
            _check_stage_lambda(stage.predicate, where, True, 0)
        elif isinstance(stage, FlatMap):
            flatmaps += 1
            if flatmaps > 1:
                raise InvalidPipeline("at most one flat-map per query")
            for ipos, inner in enumerate(stage.stages):
                iwhere = f"{where}.inner {ipos}"
                if isinstance(inner, Map):
                    _check_stage_lambda(inner.fn, iwhere, False, 1)
                elif isinstance(inner, Filter):
                    _check_stage_lambda(inner.predicate, iwhere, True, 1)
                else:
                    raise InvalidPipeline(
                        f"{iwhere}: flat-map nesting is limited to depth 2")
        else:
            raise InvalidPipeline(f"{where}: not a pipeline stage: {stage!r}")
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
