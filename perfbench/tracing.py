"""The traced run: spans around the benchmark's calls into each layer.

A span records its name, start, end, parent span and operation id.  Spans
are kept in memory and written to perfbench/out/ when the run ends, with a
per-name summary whose self time is span time minus the time of its child
spans.  Spans are taken only around calls into the program's public
functions; nothing inside the program is instrumented.

The run has two phases.  Phase A times untraced paired samples, as the
end-to-end run does, over the items phase B will trace; it gives the
calibration time, tails, garbage collections per operation, parallel
speed-up and the untraced side of the tracing overhead.  Phase B runs the
same operations split into spans: link, open and drive for pull and push,
optimize and exec for fused, split, parallel run and the leaves one by one
for the parallel engines.  Beside the operations it times each layer on its
own: stage lambdas applied in a bare loop, call-site binds, plan compiles,
counter merges, prefix queries (source, then one stage more each time) for
the marginal cost of every stage, and the suite's oracle.

Counts come from the first round of phase B, summed over its items, and do
not depend on how long the run lasts.  Times are medians over rounds of the
per-round values.  No end-to-end number comes from this run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from streambench import (
    DEFAULT_SPLIT_THRESHOLD,
    CallSiteCache,
    CounterSet,
    FlatMap,
    Map,
    SplitCursor,
    Terminal,
    build_chain,
    build_query,
    dataset_values,
    exec_fused,
    for_each_remaining,
    layout_query,
    open_chain,
    optimize,
    resolve_dataset,
    run_parallel,
    run_pull,
    run_push,
    split_tasks,
    wrap_i64,
)
from streambench.lambdas import compile_binary, compile_unary
from streambench.suite import oracle_run

import measure
import workloads

_clock = time.perf_counter_ns

ENGINES = ("pull", "push", "fused", "push_par", "fused_par")
# Stage metrics are per prefix step: step 0 is the source alone, step k adds
# the k-th stage in layout order, inner stages after their flat-map.  Every
# hot workload has three steps (linear: source, 0-filter, 1-map; nested:
# source, 0-flat_map, 0.inner.0-map; refs: source, 0-filter, 1-filter); adhoc
# adds each query's steps to the same positions.  The spans in the trace file
# carry the layout labels.
STAGE_STEPS = 3
BIND_REPS = 2000
ADHOC_TRACED_ITEMS = 32
APPLY_SAMPLE = 100_000
MERGE_REPS = 100
PHASE_A_SHARE = 0.35


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self._stack = []
        self.op = 0

    def span(self, name):
        return _Span(self, name)

    def summary(self, spans=None, offset=0):
        """{name: [count, total ns, self ns]} over spans[offset:]."""
        spans = self.spans if spans is None else spans
        out = {}
        child = [0] * len(spans)
        for rec in spans[offset:]:
            if rec[3] >= offset:
                child[rec[3]] += rec[2] - rec[1]
        for i in range(offset, len(spans)):
            name, start, end = spans[i][0], spans[i][1], spans[i][2]
            entry = out.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return out

    def write(self, path, extra):
        spans = [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": o}
                 for n, s, e, p, o in self.spans]
        summary = {name: {"count": c, "total_ns": t, "self_ns": s}
                   for name, (c, t, s) in self.summary().items()}
        path.write_text(json.dumps({**extra, "summary": summary, "spans": spans}))


class _Span:
    __slots__ = ("tracer", "name", "rec")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.rec = [self.name, 0, 0, t._stack[-1] if t._stack else -1, t.op]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[1] = _clock()
        return self

    def __exit__(self, *exc):
        self.rec[2] = _clock()
        self.tracer._stack.pop()
        return False


class CountingCache(CallSiteCache):
    """A call-site cache that counts binds and binds served by a cached instance."""

    def __init__(self, counters):
        super().__init__(counters)
        self.binds = 0
        self.cached = 0

    def bind(self, lam, captures=()):
        self.binds += 1
        if lam.captures == 0 and self.stats(lam.site_id)[0]:
            self.cached += 1
        return super().bind(lam, captures)


# ---------------------------------------------------------------------------
# Helpers over queries
# ---------------------------------------------------------------------------


def _lam(stage):
    return stage.fn if isinstance(stage, Map) else stage.predicate


def _metric_label(label):
    """A layout label ("0:filter") as a metric label ("0-filter").  An inner
    source ("0.inner:source") counts with its flat-map: a prefix query cannot
    add one without the other."""
    if label == "source":
        return label
    pos, kind = label.split(":")
    if kind == "source":
        return pos.split(".")[0] + "-flat_map"
    return f"{pos}-{kind}"


def prefixes(query):
    """(label, query) for the source alone, then one more stage each step."""
    src, stages, term = query.source, query.stages, query.terminal
    out = [("source", build_query(src, (), term))]
    for pos, st in enumerate(stages):
        if isinstance(st, FlatMap):
            head = stages[:pos]
            out.append((f"{pos}-flat_map",
                        build_query(src, head + (FlatMap(st.inner_source, ()),), term)))
            for j, inner in enumerate(st.stages):
                kind = "map" if isinstance(inner, Map) else "filter"
                out.append((f"{pos}.inner.{j}-{kind}", build_query(
                    src, head + (FlatMap(st.inner_source, st.stages[:j + 1]),), term)))
        else:
            kind = "map" if isinstance(st, Map) else "filter"
            out.append((f"{pos}-{kind}", build_query(src, stages[:pos + 1], term)))
    return out


def stage_inputs(query, datasets, limit):
    """(bound instance, input values) for every stage lambda application
    over the first `limit` source elements."""
    cache = CallSiteCache(CounterSet())
    vals = dataset_values(resolve_dataset(datasets, query.source))[:limit]
    pairs = []
    for st in query.stages:
        if isinstance(st, FlatMap):
            inner_vals = dataset_values(resolve_dataset(datasets, st.inner_source))
            out = []
            for v in vals:
                us = inner_vals
                for inner in st.stages:
                    lam = _lam(inner)
                    f = cache.bind(lam, (v,) if lam.captures else ())
                    pairs.append((f, us))
                    us = [f(u) for u in us] if isinstance(inner, Map) else [u for u in us if f(u)]
                out.extend(us)
            vals = out
            continue
        f = cache.bind(_lam(st))
        pairs.append((f, vals))
        vals = [f(v) for v in vals] if isinstance(st, Map) else [v for v in vals if f(v)]
    return pairs


def plan_trees(plan):
    trees = [*plan.outer.guards, plan.body]
    if plan.inner is not None:
        trees += [*plan.inner.guards, plan.outer_element]
    return trees


def _nodes(tree):
    if hasattr(tree, "left"):
        return 1 + _nodes(tree.left) + _nodes(tree.right)
    return 1


def drive_pull(chain, terminal):
    advance, get = chain.advance, chain.get
    if terminal is Terminal.SUM:
        acc = 0
        while advance():
            acc += get()
        return wrap_i64(acc)
    n = 0
    while advance():
        get()
        n += 1
    return n


# ---------------------------------------------------------------------------
# One traced pass over an item
# ---------------------------------------------------------------------------


def trace_item(tr, item, index, hot, checker, counts, first_round):
    ds = item.datasets
    src = resolve_dataset(ds, item.query.source)

    def op(engine):
        tr.op += 1
        return tr.span(f"op.{engine}")

    def query():
        if hot:
            return item.query
        with tr.span("query.build"):
            return item.build()

    def plan_of(q):
        if hot:
            return item.plan
        with tr.span("fuse.optimize"):
            return optimize(q)

    def check(engine, value, q, counters):
        checker.check(engine, item, index, value, q, counters)

    # pull: link, open, drive
    with op("pull"):
        q = query()
        pull_counters = CounterSet()
        cache = CountingCache(pull_counters)
        for lam in workloads.top_lambdas(q):
            with tr.span("lambdas.link"):
                cache.bind(lam)
        cache.binds = cache.cached = 0
        with tr.span("pull.open"):
            chain = open_chain(q, ds, pull_counters, cache)
        with tr.span("pull.drive"):
            value = drive_pull(chain, q.terminal)
    check("pull", value, q, pull_counters)
    pull_query = q

    # push: link, open, drive
    with op("push"):
        q = query()
        push_counters = CounterSet()
        cache_push = CallSiteCache(push_counters)
        for lam in workloads.top_lambdas(q):
            with tr.span("lambdas.link"):
                cache_push.bind(lam)
        with tr.span("push.open"):
            head, sink = build_chain(q, ds, push_counters, cache_push)
        with tr.span("push.drive"):
            for_each_remaining(SplitCursor(src), head)
            value = sink.result()
    check("push", value, q, push_counters)

    with op("fused"):
        q = query()
        plan = plan_of(q)
        counters = CounterSet()
        with tr.span("fuse.exec"):
            value = exec_fused(plan, ds, counters)
    check("fused", value, q, counters)

    with op("push_par"):
        q = query()
        counters = CounterSet()
        with tr.span("parallel.run.push"):
            value = run_parallel(q, ds, measure.CONFIG, counters)
    check("push_par", value, q, counters)

    with op("fused_par"):
        q = query()
        plan = plan_of(q)
        counters = CounterSet()
        with tr.span("parallel.run.fused"):
            value = run_parallel(plan, ds, measure.CONFIG, counters)
    check("fused_par", value, q, counters)

    # layers on their own
    tr.op += 1
    with tr.span("layers"):
        if hot:
            with tr.span("query.build"):
                q = item.build()
            with tr.span("fuse.optimize"):
                plan = optimize(q)
        trees = plan_trees(plan)
        with tr.span("lambdas.compile"):
            if plan.inner is None:
                for t in trees:
                    compile_unary(t)
            else:
                for t in plan.outer.guards:
                    compile_unary(t)
                compile_unary(plan.outer_element)
                for t in (*plan.inner.guards, plan.body):
                    compile_binary(t)
        # binds as the engines make them: a capturing site builds an instance
        # per bind, the others return the instance cached at link
        side_cache = CallSiteCache(CounterSet())
        top = workloads.top_lambdas(pull_query)
        inner_sites = workloads.inner_lambdas(pull_query)
        for lam in top:
            side_cache.bind(lam)  # their links are timed in the operations above
        for lam in inner_sites:
            with tr.span("lambdas.link"):
                side_cache.bind(lam, (0,) * lam.captures)
        sites = top + inner_sites
        bind_values = dataset_values(src)[:BIND_REPS]
        with tr.span("lambdas.bind"):
            for lam in sites:
                if lam.captures:
                    for v in bind_values:
                        side_cache.bind(lam, (v,))
                else:
                    for _ in bind_values:
                        side_cache.bind(lam)
        inner = next((s for s in pull_query.stages if isinstance(s, FlatMap)), None)
        width = len(resolve_dataset(ds, inner.inner_source)) if inner else 1
        pairs = stage_inputs(pull_query, ds, max(1, APPLY_SAMPLE // max(1, width)))
        with tr.span("lambdas.apply"):
            for f, xs in pairs:
                for x in xs:
                    f(x)
        with tr.span("parallel.split"):
            leaves = split_tasks(SplitCursor(src), DEFAULT_SPLIT_THRESHOLD)
        with tr.span("parallel.serial.push"):
            head, sink = build_chain(pull_query, ds, CounterSet())
            for leaf in leaves:
                with tr.span("parallel.leaf"):
                    for_each_remaining(leaf, head)
        with tr.span("parallel.serial.fused"):
            for leaf in split_tasks(SplitCursor(src), DEFAULT_SPLIT_THRESHOLD):
                with tr.span("parallel.leaf"):
                    exec_fused(plan, ds, None, leaf.lo, leaf.hi)
        with tr.span("counters.merge"):
            for _ in range(MERGE_REPS):
                CounterSet().merge(push_counters)
        steps = prefixes(pull_query)
        for engine, run in (("pull", run_pull), ("push", run_push),
                            ("fused", lambda p, d: exec_fused(optimize(p), d))):
            for label, p in steps:
                with tr.span(f"prefix.{engine}.{label}"):
                    run(p, ds)
        if first_round or not hot:
            with tr.span("suite.oracle"):
                oracle_run(pull_query, ds)

    if first_round:
        ref = item.ref
        layout = layout_query(pull_query)
        c = counts
        c["items"] += 1
        c["instantiations"] += pull_counters.instantiations
        c["link_events"] += pull_counters.link_events
        c["applies"] += pull_counters.lambda_applies
        c["binds"] += cache.binds
        c["cached_binds"] += cache.cached
        c["binds_timed"] += len(sites) * len(bind_values)
        c["apply_sample"] += sum(len(xs) for _, xs in pairs)
        c["pull.dispatches"] += pull_counters.control_dispatches
        c["push.dispatches"] += push_counters.control_dispatches
        c["terminal_elements"] += ref.terminal_elements
        c["fused_iterations"] += len(src) + ref.flatmap_entered * (width if inner else 0)
        c["plan_nodes"] += sum(_nodes(t) for t in trees)
        c["leaves"] += len(leaves)
        step_of = {label: k for k, (label, _) in enumerate(steps)}
        for engine, counters in (("pull", pull_counters), ("push", push_counters)):
            for label, st in zip(layout.labels, counters.stages):
                k = step_of[_metric_label(label)]
                c[f"{engine}.stage.{k}.dispatches"] += st.control_dispatches
        for k in range(len(steps)):
            c[f"stage_source_elements.{k}"] += len(src)


def round_values(tr, start, counts):
    """Per-layer times from the spans of one round (spans[start:])."""
    s = tr.summary(offset=start)
    items = counts["items"]

    def total(name):
        return s.get(name, (0, 0, 0))[1]

    def mean(name):
        c, t, _ = s.get(name, (0, 0, 0))
        return t / c if c else 0.0

    v = {
        "query.build_us": mean("query.build") / 1e3,
        "lambdas.link_us": mean("lambdas.link") / 1e3,
        "lambdas.compile_us": mean("lambdas.compile") / 1e3,
        "lambdas.bind_ns": total("lambdas.bind") / max(1, counts["binds_timed"]),
        "lambdas.apply_ns": total("lambdas.apply") / max(1, counts["apply_sample"]),
        "pull.open_us": mean("pull.open") / 1e3,
        "push.open_us": mean("push.open") / 1e3,
        "pull.drive_ms": total("pull.drive") / items / 1e6,
        "push.drive_ms": total("push.drive") / items / 1e6,
        "fuse.optimize_us": mean("fuse.optimize") / 1e3,
        "fuse.exec_ms": total("fuse.exec") / items / 1e6,
        "fuse.element_ns": total("fuse.exec") / counts["fused_iterations"],
        "parallel.split_us": mean("parallel.split") / 1e3,
        "parallel.overhead_ms.push": (total("parallel.run.push")
                                      - total("parallel.serial.push")) / items / 1e6,
        "parallel.overhead_ms.fused": (total("parallel.run.fused")
                                       - total("parallel.serial.fused")) / items / 1e6,
        "counters.merge_us": total("counters.merge") / (MERGE_REPS * items) / 1e3,
    }
    for engine in ("pull", "push"):
        applied = counts["applies"] * v["lambdas.apply_ns"]
        v[f"{engine}.dispatch_ns"] = ((v[f"{engine}.drive_ms"] * 1e6 * items - applied)
                                      / max(1, counts[f"{engine}.dispatches"]))
    for engine in ("pull", "push", "fused"):
        # a stage's marginal cost: its prefix query minus the one before it,
        # per source element
        tag = f"prefix.{engine}."
        marginal = Counter()
        step = prev = 0
        for name, t0, t1, _, _ in tr.spans[start:]:
            if name.startswith(tag):
                step = 0 if name == tag + "source" else step + 1
                marginal[step] += t1 - t0 - (prev if step else 0)
                prev = t1 - t0
        for k in range(STAGE_STEPS):
            elements = counts[f"stage_source_elements.{k}"]
            v[f"{engine}.stage.{k}.marginal_ns"] = marginal[k] / elements if elements else 0.0
    for engine in ENGINES:
        v[f"_op.{engine}"] = total(f"op.{engine}")
    return v


def run(name, seed, seconds, out_dir, scale=1.0):
    tr = Tracer()
    t_start = time.perf_counter()
    with tr.span("setup"):
        workload = workloads.setup(name, seed, scale=scale, tracer=tr)
    setup_end = len(tr.spans)
    hot = workload.hot
    items = workload.items if hot else workload.items[:ADHOC_TRACED_ITEMS]
    checker = measure.Checker()

    phase_a = measure.sample(workload, seconds * PHASE_A_SHARE, checker, items=items)
    # untraced time of one pass over the items, per engine; None if none passed
    untraced = {e: sum(phase_a.item_medians(e, lambda cal, t: t)) or None
                for e in measure.ENGINES}

    counts = Counter()
    rounds = []
    while True:
        start, t0 = len(tr.spans), time.perf_counter()
        for index, item in enumerate(items):
            trace_item(tr, item, index, hot, checker, counts, first_round=not rounds)
        rounds.append(round_values(tr, start, counts))
        # another round only if one as long as this fits in the time left
        now = time.perf_counter()
        if not hot or now + (now - t0) > t_start + seconds:
            break

    def med(key):
        return measure.median([r[key] for r in rounds])

    m = {}

    def put(key, value, unit):
        if value is not None:  # None: every operation it needs failed
            m[key] = {"value": value, "unit": unit}

    def div(a, b):
        return a / b if a is not None and b else None

    setup_summary = tr.summary(tr.spans[:setup_end])
    put("query.dataset_build_s", setup_summary["query.dataset_build"][1] / 1e9, "s")
    put("query.build_us", med("query.build_us"), "us")
    put("lambdas.link_us", med("lambdas.link_us"), "us")
    put("lambdas.compile_us", med("lambdas.compile_us"), "us")
    put("lambdas.bind_ns", med("lambdas.bind_ns"), "ns")
    put("lambdas.instantiations", counts["instantiations"], "count")
    put("lambdas.link_events", counts["link_events"], "count")
    put("lambdas.apply_ns", med("lambdas.apply_ns"), "ns")
    put("lambdas.applies", counts["applies"], "count")
    put("lambdas.reuse_ratio", counts["cached_binds"] / max(1, counts["binds"]), "ratio")
    for engine in ("pull", "push"):
        put(f"{engine}.open_us", med(f"{engine}.open_us"), "us")
        put(f"{engine}.drive_ms", med(f"{engine}.drive_ms"), "ms")
        put(f"{engine}.dispatches", counts[f"{engine}.dispatches"], "count")
        put(f"{engine}.dispatch_ns", med(f"{engine}.dispatch_ns"), "ns_est")
        put(f"{engine}.yield_ratio",
            counts["terminal_elements"] / max(1, counts[f"{engine}.dispatches"]), "ratio")
    for engine in ("pull", "push", "fused"):
        for k in range(STAGE_STEPS):
            put(f"{engine}.stage.{k}.marginal_ns", med(f"{engine}.stage.{k}.marginal_ns"), "ns")
            put(f"{engine}.stage.{k}.dispatches", counts[f"{engine}.stage.{k}.dispatches"],
                "count")
    put("fuse.optimize_us", med("fuse.optimize_us"), "us")
    put("fuse.plan_nodes", counts["plan_nodes"], "count")
    put("fuse.exec_ms", med("fuse.exec_ms"), "ms")
    put("fuse.element_ns", med("fuse.element_ns"), "ns")
    put("parallel.split_us", med("parallel.split_us"), "us")
    put("parallel.leaves", counts["leaves"], "count")
    put("parallel.speedup.push", div(untraced["push"], untraced["push_par"]), "ratio")
    put("parallel.speedup.fused", div(untraced["fused"], untraced["fused_par"]), "ratio")
    put("parallel.overhead_ms.push", med("parallel.overhead_ms.push"), "ms")
    put("parallel.overhead_ms.fused", med("parallel.overhead_ms.fused"), "ms")
    put("counters.merge_us", med("counters.merge_us"), "us")
    tails = {}
    for engine in ENGINES:
        put(f"suite.{engine}_over_baseline", div(phase_a.rel(engine), phase_a.rel("baseline")),
            "ratio")
        ratios = phase_a.ratios(engine)
        tails[engine] = measure.tail(ratios) if ratios else None
    oracle = tr.summary(offset=setup_end)["suite.oracle"]
    put("suite.oracle_ms", oracle[1] / oracle[0] / 1e6, "ms")
    cal = phase_a.cal_ms()
    put("harness.cal_ms", measure.median(cal) if cal else None, "ms")
    for engine in ENGINES:
        put(f"harness.{engine}_tail_rel", tails[engine] and tails[engine][1], "ratio")
    put("harness.gc_collections", phase_a.gc_collections / max(1, phase_a.ops), "1/op")
    for engine in ENGINES:
        overhead = div(med(f"_op.{engine}"), untraced[engine])
        put(f"harness.trace_overhead.{engine}", None if overhead is None else overhead - 1,
            "ratio")
    put("harness.failed_share", checker.failed / max(1, checker.attempted), "ratio")

    detail = {"rounds": len(rounds), "tails": tails, "counts": counts,
              "phase_a_samples": {e: len(phase_a.pairs[e]) for e in measure.ENGINES}}
    print(f"# {name} traced rounds {len(rounds)}; tails (percentile, value, samples): "
          f"{tails}", file=sys.stderr)
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / f"trace-{name}-seed{seed}.json",
             {"workload": name, "seed": seed, "metrics": m, "detail": detail})
    return workload, checker, m, detail
