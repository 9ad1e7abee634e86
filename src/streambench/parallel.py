"""Parallel execution by splitting the outer source into leaf ranges.

The outer SplitCursor is split in half recursively until every leaf is at or
below the split threshold.  Worker w of W takes the contiguous share
leaves[w*n//W:(w+1)*n//W] and runs it in order with a private consumer chain
and a private CounterSet; a fused plan is compiled once per run, before any
worker starts, and its generated function, which holds no state, serves
every worker.  Each worker builds its chain even when its share is empty, so
every top-level call site links once per worker whatever the source size.

On a large source the workers are processes: the caller forks W-1 children,
runs share 0 itself, then reads each child's (partial, counters, error) from
a pipe and reaps it; from Python 3.11 a child's error carries the child's
traceback as a note.  A forked child reads the caller's datasets in place,
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
the shares not yet forked to the caller, which runs them after share 0.

There is no shared mutable state until the single join point, where partial
accumulators combine with a wrapping add and counters merge by addition.
Wrapping addition is associative and commutative mod 2**64, which is why the
merged result is bit-identical to the sequential one for any worker count.
A worker stops at its first error, which with contiguous shares is its
lowest failing leaf, so the first failed worker's error is the one the
sequential run raises first.

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


# A share runner returns its worker's outcome: (partial, counters, error),
# stopping at the first error.
def _push_share(query, datasets, share):
    counters = CounterSet()
    chain, sink = build_chain(query, datasets, counters)
    for leaf in share:
        try:
            for_each_remaining(leaf, chain)
        except Exception as exc:
            return 0, counters, exc
    return sink.result(), counters, None


def _fused_share(run, datasets, share):
    acc = 0
    for leaf in share:
        try:
            acc += run(leaf.lo, leaf.hi)
        except Exception as exc:
            return 0, CounterSet(), exc
    return acc, CounterSet(), None


def _child(wfd, run_share, work, datasets, share):
    """Run one share in a forked child and send its outcome; never returns.

    os._exit leaves without unwinding into the caller's stack, running
    atexit handlers or flushing stdio buffers the parent still owns.
    """
    code = 1
    try:
        # a collection would write to the header of every shared object
        gc.disable()
        outcome = run_share(work, datasets, share)
        exc = outcome[2]
        if exc is not None and hasattr(exc, "add_note"):
            # pickling drops the traceback; a note carries it to the caller
            exc.add_note("".join(traceback.format_exception(exc)).rstrip())
        payload = pickle.dumps(outcome)
        with open(wfd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _fork_shares(run_share, work, datasets, shares):
    """Outcomes of every share, in share order: share 0 here, each other in
    a forked child, or here after share 0 once a pipe or a fork has failed."""
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
                _child(wfd, run_share, work, datasets, shares[w])
            os.close(wfd)
            children.append((w, pid, open(rfd, "rb")))
        here = _run_inline(run_share, work, datasets, [shares[0], *left])
    finally:
        ended = []
        for w, pid, pipe in children:
            with pipe:
                payload = pipe.read()
            ended.append((w, os.waitpid(pid, 0)[1], payload))
    outcomes = here[:1]
    for w, status, payload in ended:
        if not payload:
            raise WorkerFailed(
                f"parallel worker {w} exited without a result "
                f"(wait status {status:#x})")
        outcomes.append(pickle.loads(payload))
    return outcomes + here[1:]


def _run_inline(run_share, work, datasets, shares):
    """Outcomes of shares run one after another here, up to the first error:
    the shares after it hold only later leaves."""
    outcomes = []
    for share in shares:
        outcomes.append(run_share(work, datasets, share))
        if outcomes[-1][2] is not None:
            break
    return outcomes


def _may_fork(datasets, reads, workers: int, leaves: int) -> bool:
    if workers < 2 or leaves < 2:
        return False
    read = [resolve_dataset(datasets, name) for name in reads]
    rows = len(read[0]) * (1 + sum(len(ds) for ds in read[1:]))
    return (rows >= FORK_MIN_ROWS and hasattr(os, "fork")
            and len(sys._current_frames()) == 1
            and all(getattr(ds, "fork_safe", False) for ds in read))


def run_parallel(target, datasets, config: ParallelConfig | None = None,
                 counters: CounterSet | None = None) -> int:
    """Run a QueryExpr (push chains) or FusedPlan (fused loops) in parallel."""
    if config is None:
        config = ParallelConfig()
    if counters is None:
        counters = CounterSet()
    if isinstance(target, FusedPlan):
        terminal = target.terminal
        reads = [target.outer.source]
        if target.inner is not None:
            reads.append(target.inner.source)
        run_share = _fused_share
    elif isinstance(target, QueryExpr):
        terminal = target.terminal
        reads = [target.source]
        reads += [s.inner_source for s in target.stages if isinstance(s, FlatMap)]
        run_share = _push_share
    else:
        raise InvalidPipeline(f"cannot run {target!r} in parallel")

    source_ds = resolve_dataset(datasets, reads[0])
    # one generated function serves every leaf and every worker
    work = compile_plan(target, datasets) if run_share is _fused_share else target
    leaves = split_tasks(SplitCursor(source_ds), config.split_threshold)
    workers = config.resolved_workers()
    n = len(leaves)
    shares = [leaves[w * n // workers:(w + 1) * n // workers] for w in range(workers)]

    if _may_fork(datasets, reads, workers, n):
        outcomes = _fork_shares(run_share, work, datasets, shares)
    else:
        outcomes = _run_inline(run_share, work, datasets, shares)

    for _, _, error in outcomes:
        if error is not None:
            raise error  # the first failed worker holds the lowest failing leaf
    total = 0
    for partial, worker_counters, _ in outcomes:
        total += partial
        counters.merge(worker_counters)
    return wrap_i64(total) if terminal is Terminal.SUM else total
