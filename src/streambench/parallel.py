"""Parallel execution by splitting the outer source into leaf ranges.

The outer SplitCursor is split in half recursively until every leaf is at or
below the split threshold; the leaves land in a shared deque that worker
threads drain (plain work-sharing, no stealing).  With one worker, or a
source that forms one leaf, the workers run one after another in the calling
thread instead; each still builds its own chain, so links and counters are
the same either way.  Each worker owns a private consumer chain and a
private CounterSet; a fused plan is compiled once per
run and its generated function, which holds no state, serves every worker.
There is no shared mutable state until the single join point, where partial
accumulators combine with a wrapping add and counters merge by addition.
Wrapping addition is associative and commutative mod 2**64, which is why the
merged result is bit-identical to the sequential one no matter how leaves
were scheduled.

Only Sum and Count terminals run here: they are the folds whose partial
results merge without ordering concerns.  FlatMap splits only the outer
source; inner iteration stays inside whichever worker owns the outer element,
so capture accounting is conserved exactly.

On a CPython with the global interpreter lock, worker threads interleave
rather than overlap, so this buys determinism checking and counter
conservation rather than wall-clock speedup; the harness reports whatever the
hardware gives.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass

from .counters import CounterSet
from .errors import InvalidPipeline
from .exprs import wrap_i64
from .fuse import FusedPlan, compile_plan
from .push import (
    DEFAULT_SPLIT_THRESHOLD,
    SplitCursor,
    build_chain,
    for_each_remaining,
)
from .query import QueryExpr, Terminal, resolve_dataset


@dataclass(frozen=True)
class ParallelConfig:
    """workers=None means one per core this process may run on."""

    workers: int | None = None
    split_threshold: int = DEFAULT_SPLIT_THRESHOLD

    def __post_init__(self):
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.split_threshold < 1:
            raise ValueError(f"split threshold must be >= 1, got {self.split_threshold}")

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return self.workers
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


def split_tasks(cursor: SplitCursor, threshold: int = DEFAULT_SPLIT_THRESHOLD):
    """Recursively halve a cursor into source-ordered leaves <= threshold."""
    leaves: list[SplitCursor] = []

    def go(c: SplitCursor) -> None:
        child = c.try_split(threshold)
        if child is None:
            leaves.append(c)
        else:
            go(child)
            go(c)

    go(cursor)
    return leaves


class _WorkerResult:
    __slots__ = ("partial", "counters", "error", "error_leaf")

    def __init__(self):
        self.partial = 0
        self.counters = CounterSet()
        self.error = None
        self.error_leaf = -1


def _run_leaves_push(query, datasets, tasks, result):
    chain, sink = build_chain(query, datasets, result.counters)
    while True:
        try:
            idx, leaf = tasks.popleft()
        except IndexError:
            break
        try:
            for_each_remaining(leaf, chain)
        except Exception as exc:  # first error wins; drop the rest of the queue
            result.error = exc
            result.error_leaf = idx
            tasks.clear()
            break
    result.partial = sink.result()


def _run_leaves_fused(run, datasets, tasks, result):
    acc = 0
    while True:
        try:
            idx, leaf = tasks.popleft()
        except IndexError:
            break
        try:
            acc += run(leaf.lo, leaf.hi)
        except Exception as exc:
            result.error = exc
            result.error_leaf = idx
            tasks.clear()
            break
    result.partial = acc


def run_parallel(target, datasets, config: ParallelConfig | None = None,
                 counters: CounterSet | None = None) -> int:
    """Run a QueryExpr (push chains) or FusedPlan (fused loops) in parallel."""
    if config is None:
        config = ParallelConfig()
    if counters is None:
        counters = CounterSet()
    if isinstance(target, FusedPlan):
        terminal = target.terminal
        source = target.outer.source
        run_leaves = _run_leaves_fused
    elif isinstance(target, QueryExpr):
        terminal = target.terminal
        source = target.source
        run_leaves = _run_leaves_push
    else:
        raise InvalidPipeline(f"cannot run {target!r} in parallel")
    if terminal not in (Terminal.SUM, Terminal.COUNT):
        raise InvalidPipeline(f"terminal {terminal!r} is not parallelizable")

    source_ds = resolve_dataset(datasets, source)
    # one generated function serves every leaf and every worker
    work = compile_plan(target, datasets) if run_leaves is _run_leaves_fused else target
    leaves = split_tasks(SplitCursor(source_ds), config.split_threshold)
    tasks = deque(enumerate(leaves))
    workers = config.resolved_workers()

    results = [_WorkerResult() for _ in range(workers)]
    if workers == 1 or len(leaves) <= 1:
        # nothing to share: the first worker drains the queue
        for result in results:
            run_leaves(work, datasets, tasks, result)
    else:
        threads = [
            threading.Thread(
                target=run_leaves, args=(work, datasets, tasks, results[w]),
                name=f"streambench-worker-{w}", daemon=True)
            for w in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    failed = [r for r in results if r.error is not None]
    if failed:
        raise min(failed, key=lambda r: r.error_leaf).error

    total = 0
    for r in results:
        total += r.partial
        counters.merge(r.counters)
    return wrap_i64(total) if terminal is Terminal.SUM else total
