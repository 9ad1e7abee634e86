"""Parallel execution by splitting the outer source into leaf ranges.

The outer SplitCursor is split in half recursively until every leaf is at or
below the split threshold.  Worker w of W takes the contiguous share
leaves[w*n//W:(w+1)*n//W] and runs it in order with a private consumer chain
and a private CounterSet; a fused plan is compiled once per run, before any
worker starts, and its generated function, which holds no state, serves
every worker.  Each worker builds its chain even when its share is empty, so
every top-level call site links once per worker whatever the source size.

On a large source the workers are processes: the caller forks W-1 children,
runs share 0 itself, then reads each child's outcome from a pipe and reaps
it.  An error raises where it happens and becomes data only to cross the
pipe: a child sends (value, counters, error) and the caller raises the error
again; from Python 3.11 it carries the child's traceback as a note.
A forked child reads the caller's datasets in place,
copy-on-write, with nothing pickled in, which is why this uses fork and not
a fresh interpreter.  The same reason limits it to layouts whose row reads
write no memory (`fork_safe` in query.py): reading a Ref record's value
increfs it, so a child would copy every page of records and the caller
would fault on each of them again after the join.  Below FORK_MIN_ROWS rows
read, with one worker or one leaf, in a process with a second live thread
(fork copies only the calling thread, and the locks the others hold), or
where os.fork is missing, the workers run one after another in the calling
process instead; values, counters and errors are the same either way.  A
fork that fails (EAGAIN or ENOMEM under a process or memory limit), or a
pipe that is refused (EMFILE or ENFILE under a descriptor limit), leaves
the shares not yet forked to the caller, which runs them after it has
reaped the children: they hold only later leaves.

There is no shared mutable state until the single join point, where partial
accumulators combine with a wrapping add and counters merge by addition.
Wrapping addition is associative and commutative mod 2**64, which is why the
merged result is bit-identical to the sequential one for any worker count.
A worker stops at its first error, which with contiguous shares is its
lowest failing leaf.  The caller meets the shares in order and raises the
first error, or WorkerFailed for a child that sent no result, so the error
raised is the one the sequential run raises first.

The language's two terminals, Sum and Count, are folds whose partial
results merge without ordering concerns.  FlatMap splits only the outer
source; inner iteration stays inside whichever worker owns the outer element,
so capture accounting is conserved exactly.
"""

from __future__ import annotations

import gc
import os
import pickle
import sys
import traceback
from dataclasses import dataclass
from functools import partial

from .counters import CounterSet
from .errors import InvalidPipeline, WorkerFailed
from .exprs import wrap_i64
from .fuse import FusedPlan, compile_plan
from .push import (
    DEFAULT_SPLIT_THRESHOLD,
    SplitCursor,
    build_chain,
    for_each_remaining,
)
from .query import FlatMap, QueryExpr, Terminal, resolve_dataset

# The sequential cutoff, in rows read: an inner source's rows count once per
# outer row.  A fork, its pipe and its reaping cost 3-7 ms in a 60-130 MB
# process; on two cores a fused linear pipeline breaks even at about 2**17
# rows and wins at 2**18, where push runs in two thirds of its inline time.
FORK_MIN_ROWS = 1 << 18


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


# A share runner returns its worker's (value, counters) and raises its
# first error.
def _push_share(query, datasets, share):
    counters = CounterSet()
    chain, sink = build_chain(query, datasets, counters)
    for leaf in share:
        for_each_remaining(leaf, chain)
    return sink.result(), counters


def _fused_share(run, share):
    acc = 0
    for leaf in share:
        acc += run(leaf.lo, leaf.hi)
    return acc, CounterSet()


def _child(wfd, run, share):
    """Run one share in a forked child and send (value, counters, error)
    down the pipe; never returns.

    os._exit leaves without unwinding into the caller's stack, running
    atexit handlers or flushing stdio buffers the parent still owns.
    """
    code = 1
    try:
        # a collection would write to the header of every shared object
        gc.disable()
        try:
            outcome = (*run(share), None)
        except Exception as exc:
            if hasattr(exc, "add_note"):
                # pickling drops the traceback; a note carries it to the caller
                exc.add_note("".join(traceback.format_exception(exc)).rstrip())
            outcome = (0, None, exc)
        payload = pickle.dumps(outcome)
        with open(wfd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _fork_shares(run, shares):
    """(value, counters) of every share, in share order: share 0 here, each
    other in a forked child, or here after the children once a pipe or a
    fork has failed.  Raises the error of the lowest share that failed."""
    children = []
    left = []  # the shares no child took
    try:
        for w in range(1, len(shares)):
            fds = ()
            try:
                fds = rfd, wfd = os.pipe()
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                left = shares[w:]
                break
            if pid == 0:
                _child(wfd, run, shares[w])
            os.close(wfd)
            children.append((w, pid, open(rfd, "rb")))
        outcomes = [run(shares[0])]
    finally:
        ended = []
        for w, pid, pipe in children:
            with pipe:
                payload = pipe.read()
            ended.append((w, os.waitpid(pid, 0)[1], payload))
    for w, status, payload in ended:
        if not payload:
            raise WorkerFailed(
                f"parallel worker {w} exited without a result "
                f"(wait status {status:#x})")
        value, counters, error = pickle.loads(payload)
        if error is not None:
            raise error
        outcomes.append((value, counters))
    return outcomes + [run(share) for share in left]


def _may_fork(read, workers: int, leaves: int) -> bool:
    return (workers > 1 and leaves > 1
            and len(read[0]) * (1 + sum(map(len, read[1:]))) >= FORK_MIN_ROWS
            and hasattr(os, "fork") and len(sys._current_frames()) == 1
            and all(getattr(ds, "fork_safe", False) for ds in read))


def run_parallel(target, datasets, config: ParallelConfig | None = None,
                 counters: CounterSet | None = None) -> int:
    """Run a QueryExpr (push chains) or FusedPlan (fused loops) in parallel."""
    if config is None:
        config = ParallelConfig()
    if counters is None:
        counters = CounterSet()
    if isinstance(target, FusedPlan):
        reads = [level.source for level in (target.outer, target.inner)
                 if level is not None]
    elif isinstance(target, QueryExpr):
        reads = [target.source]
        reads += [s.inner_source for s in target.stages if isinstance(s, FlatMap)]
    else:
        raise InvalidPipeline(f"cannot run {target!r} in parallel")
    read = [resolve_dataset(datasets, name) for name in reads]

    if isinstance(target, FusedPlan):
        # one generated function serves every leaf and every worker
        run = partial(_fused_share, compile_plan(target, datasets))
    else:
        run = partial(_push_share, target, datasets)
    leaves = split_tasks(SplitCursor(read[0]), config.split_threshold)
    workers = config.resolved_workers()
    n = len(leaves)
    shares = [leaves[w * n // workers:(w + 1) * n // workers] for w in range(workers)]

    if _may_fork(read, workers, n):
        outcomes = _fork_shares(run, shares)
    else:
        outcomes = [run(share) for share in shares]
    total = 0
    for value, worker_counters in outcomes:
        total += value
        counters.merge(worker_counters)
    return wrap_i64(total) if target.terminal is Terminal.SUM else total
