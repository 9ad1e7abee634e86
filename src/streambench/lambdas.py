"""Lambdas as first-class values, and the call-site model that counts them.

A Lambda is an expression tree plus an arity, a capture count and a call-site
id.  Call sites go through three observable phases, each of which the
CallSiteCache accounts for separately:

  linkage       first touch of a site compiles its body once (link_events)
  capture       binding capture values produces an invocable instance; a
                non-capturing site reuses a single cached instance forever,
                a capturing site produces one instance per capture event
                (instantiations)
  invocation    calling the instance evaluates the body (the engines charge
                this to the owning stage's lambda_applies)

Linking generates Python source for the body and compiles it once; each
instance is a closure over the compiled function.  Instances must agree with
eval_scalar bit for bit; the test suite holds them to that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .counters import CounterSet
from .errors import ArityMismatch, InvalidExpression
from .exprs import (
    Arith,
    Capture,
    Cmp,
    Const,
    Param,
    ScalarExpr,
    I64_MAX,
    I64_MIN,
    max_capture_slot,
    max_param_index,
    mod_i64,
    wrap_i64,
)

_site_ids = itertools.count()


@dataclass(frozen=True, slots=True)
class Lambda:
    """An anonymous function value: body tree, arity, captures, call site."""

    arity: int
    captures: int
    body: ScalarExpr
    site_id: int

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise InvalidExpression(f"lambda arity must be >= 1, got {self.arity}")
        if self.captures < 0:
            raise InvalidExpression(f"negative capture count: {self.captures}")
        if max_param_index(self.body) >= self.arity:
            raise InvalidExpression(
                f"body references param {max_param_index(self.body)} "
                f"but arity is {self.arity}")
        if max_capture_slot(self.body) >= self.captures:
            raise InvalidExpression(
                f"body references capture slot {max_capture_slot(self.body)} "
                f"but only {self.captures} declared")


def make_lambda(body: ScalarExpr, arity: int = 1, captures: int = 0) -> Lambda:
    """Build a Lambda with a fresh, process-unique call-site id."""
    return Lambda(arity, captures, body, next(_site_ids))


def is_capturing(lam: Lambda) -> bool:
    return lam.captures > 0


# ---------------------------------------------------------------------------
# Code generation: expression tree -> Python source -> callable
# ---------------------------------------------------------------------------
# Every tree reaches Python through one Emitter.  It writes one statement per
# Arith node into the body of a generated function and compiles that with
# compile()/exec().  The source holds only names the emitter makes itself,
# op symbols from the tables below and indentation: every Const value,
# capture value and dataset is bound to a name, so no text of a tree value
# ever reaches exec().

_ARITH_SYMBOL = {"add": "+", "sub": "-", "mul": "*"}
_CMP_SYMBOL = {"eq": "==", "lt": "<"}
_ZERO = Const(0)
_HELPERS = {"MIN": I64_MIN, "MAX": I64_MAX, "wrap_i64": wrap_i64,
            "mod_i64": mod_i64}


class Emitter:
    """Lowers expression trees to the statements of one generated function.

    `params` names the variables Param(0), Param(1), ... read and `captures`
    the ones Capture(0), ... read; both are bound by the caller's source.
    Lines go into the function body at indent level `depth`, which a caller
    emitting loops raises.
    """

    def __init__(self, params: tuple, captures: tuple = ()):
        self.params = params
        self.captures = captures
        self.depth = 2
        self.names = list(_HELPERS)
        self.values = list(_HELPERS.values())
        self.lines: list[str] = []
        self._temps = itertools.count()

    def bind(self, value) -> str:
        """A fresh name the generated code reads `value` through."""
        name = f"k{len(self.names)}"
        self.names.append(name)
        self.values.append(value)
        return name

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def value(self, expr: ScalarExpr) -> str:
        """Emit the statements that compute `expr`; return the text of its value.

        An Arith node becomes one statement, followed for add/sub/mul by the
        64-bit wrap check.  A mod by a non-zero constant is inlined with the
        sign of the dividend; any other mod calls mod_i64, so a zero divisor
        raises DivisionByZero.  A Cmp root becomes an expression.  The zero
        test `a mod k == 0` (either operand order, k a non-zero constant) is
        written `a % |k| == 0`: truncated and floored remainders are zero for
        exactly the same dividends, so it needs no temp and no sign branch.
        """
        kind = type(expr)
        if kind is Param:
            return _slot(self.params, expr.index, "param")
        if kind is Capture:
            return _slot(self.captures, expr.slot, "capture slot")
        if kind is Const:
            return self.bind(expr.value)
        if kind not in (Arith, Cmp):
            raise InvalidExpression(f"not an expression node: {type(expr).__name__}")
        if kind is Cmp:
            if expr.op == "eq" and _ZERO in (expr.left, expr.right):
                return f"{self._zero_side(expr.left)} == {self._zero_side(expr.right)}"
            sym = _symbol(_CMP_SYMBOL, expr.op)
            return f"{self.value(expr.left)} {sym} {self.value(expr.right)}"
        left = self.value(expr.left)
        t = f"t{next(self._temps)}"
        right = expr.right
        if _mod_by_const(expr):
            k = self.bind(abs(right.value))
            self.line(f"{t} = {left} % {k} if {left} >= 0 else -(-{left} % {k})")
        elif expr.op == "mod":
            self.line(f"{t} = mod_i64({left}, {self.value(right)})")
        else:
            sym = _symbol(_ARITH_SYMBOL, expr.op)
            self.line(f"{t} = {left} {sym} {self.value(right)}")
            self.line(f"if not MIN <= {t} <= MAX: {t} = wrap_i64({t})")
        return t

    def _zero_side(self, expr: ScalarExpr) -> str:
        """One side of a comparison with 0: a mod by a constant k stays the
        floored `a % |k|`, which is 0 exactly when the truncated remainder is."""
        if _mod_by_const(expr):
            return f"{self.value(expr.left)} % {self.bind(abs(expr.right.value))}"
        return self.value(expr)

    def build(self, name: str, params: tuple):
        """Compile `def <name>(<params>):` over the emitted lines.

        Returns a maker: calling it with the capture values produces a new
        instance of the function.  Bound names are the generated module's
        globals, so an instance closes over its captures only.  The maker's
        `source` attribute holds the generated text.
        """
        source = "\n".join((f"def make({', '.join(self.captures)}):",
                            f"    def {name}({', '.join(params)}):", *self.lines,
                            f"    return {name}\n"))
        scope = dict(zip(self.names, self.values))
        exec(compile(source, f"<streambench {name}>", "exec"), scope)
        make = scope["make"]
        make.source = source
        return make


def _mod_by_const(expr: ScalarExpr) -> bool:
    """True for a mod node whose divisor is a non-zero constant."""
    return (type(expr) is Arith and expr.op == "mod"
            and type(expr.right) is Const and expr.right.value != 0)


def _slot(names: tuple, index: int, what: str) -> str:
    if not 0 <= index < len(names):
        raise InvalidExpression(f"unbound {what} {index}")
    return names[index]


def _symbol(table: dict, op: str) -> str:
    try:
        return table[op]
    except KeyError:
        raise InvalidExpression(f"unknown op: {op!r}") from None


def _compile(expr: ScalarExpr, params: tuple, captures: int):
    """Maker for f(*params) computing `expr`; the maker takes the captures."""
    em = Emitter(params, tuple(f"c{i}" for i in range(captures)))
    em.line(f"return {em.value(expr)}")
    return em.build("fn", params)


def compile_unary(expr: ScalarExpr, captures: tuple = ()):
    """Compile a one-parameter tree, captures bound to `captures`, to f(x)."""
    return _compile(expr, ("x0",), len(captures))(*captures)


def compile_binary(expr: ScalarExpr):
    """Compile a capture-free two-parameter tree to a callable f(x0, x1)."""
    return _compile(expr, ("x0", "x1"), 0)()


# ---------------------------------------------------------------------------
# Call sites
# ---------------------------------------------------------------------------


class _Site:
    __slots__ = ("lam", "instance", "template", "counters")

    def __init__(self, lam, counters):
        self.lam = lam
        self.instance = None
        self.template = None
        self.counters = counters


class CallSiteCache:
    """Per-run registry of call sites and their closure accounting.

    Counters are written straight into a CounterSet's site table so that one
    object carries everything a run observed.  A cache is private to one run
    (or one parallel worker); nothing here is thread-safe by design.
    """

    def __init__(self, counters: CounterSet | None = None):
        self.counters = counters if counters is not None else CounterSet()
        self._sites: dict[int, _Site] = {}

    def bind(self, lam: Lambda, captures: tuple = ()):
        """Link on first touch, then produce (or reuse) an invocable instance."""
        site = self._sites.get(lam.site_id)
        if site is None:
            site = self._link(lam)
        if lam.captures == 0:
            return site.instance
        if len(captures) != lam.captures:
            raise ArityMismatch(
                f"lambda captures {lam.captures} values, got {len(captures)}")
        site.counters.instantiations += 1
        return site.template(*captures)

    def _link(self, lam: Lambda) -> _Site:
        if lam.arity != 1:
            raise ArityMismatch(f"stage lambdas are unary, got arity {lam.arity}")
        ctr = self.counters.site(lam.site_id)
        site = _Site(lam, ctr)
        ctr.link_events += 1
        if lam.captures == 0:
            site.instance = compile_unary(lam.body)
            ctr.instantiations += 1
        else:
            site.template = _compile(lam.body, ("x0",), lam.captures)
        self._sites[lam.site_id] = site
        return site

    def stats(self, site_id: int):
        """(link_events, instantiations) for a site; zeros if never touched."""
        ctr = self.counters.sites.get(site_id)
        if ctr is None:
            return (0, 0)
        return (ctr.link_events, ctr.instantiations)


def apply_lambda(cache: CallSiteCache, lam: Lambda, params: tuple,
                 captures: tuple = (), stage=None):
    """One-shot apply: capture (one event if capturing) then invoke.

    Equivalent to eval_scalar on the same bindings; the counters are the only
    side effect.  `stage` is an optional StageCounters to charge the apply to.
    """
    if len(params) != lam.arity:
        raise ArityMismatch(f"lambda arity {lam.arity}, got {len(params)} params")
    fn = cache.bind(lam, captures)
    if stage is not None:
        stage.lambda_applies += 1
    return fn(*params)
