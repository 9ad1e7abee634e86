"""Query fusion: compile a pipeline into a loop nest with inlined bodies.

optimize() folds every stage lambda into guard and body expressions by
substitution, so the resulting plan holds no lambda references at all.  Filters
become guards at their loop level: a filter before any map guards on the raw
loop variable, a filter after maps guards on the composed body expression.  A
flat-map contributes the inner loop; its lambdas' Capture(0) references are
rebound to the (composed) outer element during inlining.  Maps and filters
inline through one rule (_fold_map), which keeps an element that a body
erases still evaluated when evaluating it can fail.

compile_plan() lowers the plan to the source of one Python function holding
the loop nest over resolved datasets, and exec_fused() runs it.  It touches
no cursors, no consumers and no call sites: zero control dispatches, zero
lambda applies, zero instantiations.  Plan text rendering is stable and
documented here because golden tests pin it:

    loop0: for x0 in <source>[0:len) if <guard> && <guard>
    loop1: for x1 in <inner>[0:len) if <guard>        (only when a flat-map fused)
    body: <expr>
    acc: sum(init=0) | count(init=0)

x0 names the outer loop variable (Param 0), x1 the inner one (Param 1); the
" if ..." part is omitted for a guard-free loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counters import CounterSet
from .exprs import (
    Arith,
    Capture,
    Cmp,
    Const,
    Param,
    ScalarExpr,
    format_expr,
    max_param_index,
    may_raise,
    rewrite,
)
from .lambdas import Emitter, fold, truth
from .query import (
    FlatMap,
    Map,
    QueryExpr,
    Terminal,
    resolve_dataset,
)


def substitute(expr: ScalarExpr, replacement: ScalarExpr,
               captures: dict | None = None) -> ScalarExpr:
    """Inline: replace Param(0) with `replacement`, rebind mapped captures.

    Evaluating the substituted tree equals evaluating `expr` with Param(0)
    bound to the value of `replacement` — the composition law the property
    tests hold this to.  A subtree shared in `expr` is shared in the result
    (`rewrite`).
    """
    def leaf(expr):
        kind = type(expr)
        if kind is Param:
            return replacement if expr.index == 0 else expr
        if kind is Capture and captures is not None:
            return captures.get(expr.slot, expr)
        return expr

    return rewrite(expr, leaf)


@dataclass(frozen=True, slots=True)
class LoopLevel:
    """One loop of the nest: its dataset and the guards tested at this depth."""

    source: str
    guards: tuple


@dataclass(frozen=True, slots=True)
class FusedPlan:
    """A query compiled to at most two nested loops plus an accumulator.

    outer_element is only set for two-loop plans: the composed expression the
    inner lambdas' captures were rebound to.  It is kept so execution can
    preserve evaluation effects — a mod-by-zero in a map before the flat-map
    must still raise even when no surviving inner tree references the value.
    """

    outer: LoopLevel
    inner: LoopLevel | None
    body: ScalarExpr
    terminal: Terminal
    outer_element: ScalarExpr | None = None


def _fold_map(body: ScalarExpr, cur: ScalarExpr, rebind=None) -> ScalarExpr:
    """Inline a map body or a predicate over the running element expression.

    A body with no Param(0) erases `cur` from everything downstream: a map's
    result does not read it, and a constant guard drops an element before
    anything else looks at it.  When `cur` can fail, keep it anchored as
    ((cur * 0) + tree), in a comparison's left side, so the failure still
    happens in order, as it would stage by stage.
    """
    new = substitute(body, cur, rebind)
    if max_param_index(body) >= 0 or not may_raise(cur):
        return new
    anchor = Arith("mul", cur, Const(0))
    if type(new) is Cmp:
        return Cmp(new.op, Arith("add", anchor, new.left), new.right)
    return Arith("add", anchor, new)


def optimize(query: QueryExpr) -> FusedPlan:
    """Fuse a query into a FusedPlan.  Pure tree rewriting, no execution."""
    cur: ScalarExpr = Param(0)
    guards = outer_guards = []
    flatmap = outer_element = rebind = None
    for stage in query.stages:
        level = (stage,)
        if isinstance(stage, FlatMap):
            # inner lambdas read the outer element through Capture(0); the
            # top-level lambdas after the flat-map capture nothing
            flatmap, level, guards = stage, stage.stages, []
            outer_element, cur, rebind = cur, Param(1), {0: cur}
        for step in level:
            if isinstance(step, Map):
                cur = _fold_map(step.fn.body, cur, rebind)
            else:
                guards.append(_fold_map(step.predicate.body, cur, rebind))
    outer = LoopLevel(query.source, tuple(outer_guards))
    if flatmap is None:
        return FusedPlan(outer, None, cur, query.terminal)
    return FusedPlan(outer, LoopLevel(flatmap.inner_source, tuple(guards)),
                     cur, query.terminal, outer_element)


def render_plan(plan: FusedPlan) -> str:
    """The stable text form documented in the module docstring."""
    def loop_line(idx: int, var: str, level: LoopLevel) -> str:
        line = f"loop{idx}: for {var} in {level.source}[0:len)"
        if level.guards:
            line += " if " + " && ".join(format_expr(g) for g in level.guards)
        return line

    lines = [loop_line(0, "x0", plan.outer)]
    if plan.inner is not None:
        lines.append(loop_line(1, "x1", plan.inner))
    lines.append(f"body: {format_expr(plan.body)}")
    lines.append(f"acc: {plan.terminal.value}(init=0)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------

_IDENTITY = Param(0)


def compile_plan(plan: FusedPlan, datasets):
    """Lower the loop nest to one generated function run(lo, hi).

    run(lo, hi) folds the outer source's [lo, hi) and returns the partial
    result: loops, guards, the forced outer element and the accumulator are
    all inline, and `run.source` holds the generated text.  The fold adds
    the body unwrapped and wraps once at the end.  Each dataset writes its
    own loop header (query.py).  Every guard, the body and the forced outer
    element go through lambdas.fold first: a guard that folds to true is
    dropped, and one that folds to false empties the plan, so run is
    `return 0` with no loop, unless some tree of the plan can raise; then
    the loop stays and raises where the other engines do.  A subtree of the
    inner loop that reads no x1 and cannot raise is computed before it, once
    per outer element; one that can raise stays, since an empty or fully
    filtered inner source must not raise.  Under a count terminal the body
    is evaluated only when it can raise.  A single guard-free loop needs no
    loop at all for a count whose body cannot raise, nor for an identity sum
    over rows that are the values: that one keeps the builtin sum.
    """
    outer_ds = resolve_dataset(datasets, plan.outer.source)
    # resolved before any fold, so a plan that folds empty still raises here
    inner_ds = resolve_dataset(datasets, plan.inner.source) if plan.inner else None
    is_sum = plan.terminal is Terminal.SUM
    em = Emitter(("x0",))
    outer_guards = tuple(map(fold, plan.outer.guards))
    inner_guards = tuple(map(fold, plan.inner.guards)) if plan.inner else ()
    body = fold(plan.body)
    # maps folded into the outer element still fail per element, even when
    # the inner loop never evaluates them
    forced = fold(plan.outer_element) if plan.inner is not None else None
    if forced is not None and not may_raise(forced):
        forced = None
    guards = (*outer_guards, *inner_guards)
    if False in map(truth, guards) and forced is None and not any(
            map(may_raise, (*guards, body))):
        em.line("return 0")
        return em.build("run", ("lo", "hi"))
    outer_guards, inner_guards = ([g for g in level if truth(g) is not True]
                                  for level in (outer_guards, inner_guards))
    target, rows, reads = outer_ds.fused_loop(em.bind, "x0", False)
    if plan.inner is None and not outer_guards and (
            body == _IDENTITY and not reads if is_sum else not may_raise(body)):
        # a count is the length of [lo, hi) clipped as a slice clips it
        em.line(f"return wrap_i64(sum({rows}))" if is_sum
                else f"return len(range({em.bind(len(outer_ds))})[lo:hi])")
        return em.build("run", ("lo", "hi"))
    if not is_sum and not may_raise(body):
        body = None
    em.expect(*outer_guards, forced, *inner_guards, body)
    em.line("acc = 0")
    _loop(em, target, rows, reads)
    for guard in outer_guards:
        em.line(f"if not {em.value(guard)}: continue")
    if plan.inner is not None:
        if forced is not None:
            em.value(forced, wrap=False)
        for tree in (*inner_guards, body):
            for invariant, wrap in _invariants(tree):
                em.hoist(invariant, wrap)
        em.params = ("x0", "x1")
        _loop(em, *inner_ds.fused_loop(em.bind, "x1", True))
        for guard in inner_guards:
            em.line(f"if not {em.value(guard)}: continue")
    if body is not None:
        body = em.value(body, wrap=False)
    em.line(f"acc += {body}" if is_sum else "acc += 1")
    em.depth = 1
    em.line("return wrap_i64(acc)" if is_sum else "return acc")
    return em.build("run", ("lo", "hi"))


def _loop(em: Emitter, target: str, rows: str, reads: tuple) -> None:
    """Open `for <target> in <rows>:` and the reads that set its variable."""
    em.line(f"for {target} in {rows}:")
    em.depth += 1
    for read in reads:
        em.line(read)


def _invariants(tree) -> list:
    """(subtree, wrap) for the largest Arith subtrees that read no x1 and
    cannot raise, each pair once, in the order first met; wrap when a
    comparison or a mod observes the subtree."""
    found, seen = {}, set()

    def walk(expr, wrap):
        kind = type(expr)
        if kind is Arith and max_param_index(expr) < 1 and not may_raise(expr):
            found[expr, wrap] = None
        elif (kind is Arith or kind is Cmp) and id(expr) not in seen:
            # an operand's wrap depends on its parent alone: walk each node once
            seen.add(id(expr))
            wrap = kind is Cmp or expr.op == "mod"
            walk(expr.left, wrap)
            walk(expr.right, wrap)

    walk(tree, False)
    return list(found)


def exec_fused(plan: FusedPlan, datasets, counters: CounterSet | None = None,
               lo: int = 0, hi: int | None = None) -> int:
    """Compile the plan and run it over [lo, hi) of the outer source.

    `counters` is accepted for interface symmetry with the other strategies
    and is left untouched: a fused run has nothing to count.
    """
    run = compile_plan(plan, datasets)
    if hi is None:
        hi = len(resolve_dataset(datasets, plan.outer.source))
    return run(lo, hi)


def run_fused(query: QueryExpr, datasets, counters: CounterSet | None = None) -> int:
    """optimize() then exec_fused() in one step."""
    return exec_fused(optimize(query), datasets, counters)
