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

Linking generates Python source for the body and compiles it once, to one
flat function that takes the captures as its leading parameters: `def
fn(x0):` or `def fn(c0, x0):`.  A non-capturing instance is that function
itself; a capturing one binds the captures with types.MethodType, one bound
method per capture (`instance`), as a JVM lambda is a small object holding
its captures in front of shared method code.  Every instance of a site thus
calls one function object, so CPython's specializing interpreter, which
keys a call on the callee's function version, keeps the call site
specialized from one capture event to the next.  Instances must agree with
eval_scalar bit for bit; the test suite holds them to that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from types import MethodType

from .counters import CounterSet
from .errors import ArityMismatch, InvalidExpression
from .exprs import (
    ARITH_OPS,
    CMP_OPS,
    Arith,
    Capture,
    Cmp,
    Const,
    Param,
    ScalarExpr,
    I64_MAX,
    I64_MIN,
    OP_SYMBOL,
    eval_scalar,
    max_capture_slot,
    max_param_index,
    mod_by_const,
    mod_i64,
    rewrite,
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
# Every tree reaches Python through one Emitter, a small optimizing pass that
# writes the body of one generated function and compiles it with
# compile()/exec().  Add, sub and mul commute with reduction mod 2**64, so
# their values are written unwrapped, as inline expressions, and wrapped only
# where something observes them non-congruently: a mod operand, a comparison
# side or the value a lambda instance returns.  A static bound on each value's
# bit width wraps early past WRAP_BUDGET bits, so no chain builds huge ints.
# A subtree met more than once is computed once into a temp and reused, and
# an operand whose inline text nests NEST_LIMIT parentheses deep goes to a
# temp too, so no chain reaches the parser's nesting limit.  The source holds
# only names the emitter makes itself, op symbols from exprs.OP_SYMBOL and
# indentation: every Const value, capture value and dataset is bound to a
# name, so no text of a tree value ever reaches exec().
#
# Before any of that, fold() evaluates at compile time every subtree that
# reads no parameter and no capture, through eval_scalar: an add, sub,
# mul or mod of two constants becomes one Const, and a comparison of two
# constants is emitted as a bound bool.  A mod by a constant zero never
# folds, so it still raises DivisionByZero per element, in order.

_ZERO = Const(0)
# each op over (x0, x1): fold evaluates a node of two constants as the
# reference interpreter does, without building a tree per fold
_OP_TREE = {op: (Arith if op in ARITH_OPS else Cmp)(op, Param(0), Param(1))
            for op in ARITH_OPS + CMP_OPS}
_HELPERS = {"MIN": I64_MIN, "MAX": I64_MAX, "wrap_i64": wrap_i64,
            "mod_i64": mod_i64}
# widest unwrapped value, in bits, an add/sub/mul may build before its
# operands are wrapped; a leaf or a wrapped value has 64
WRAP_BUDGET = 256
# deepest parenthesis nesting an inline value may reach before it goes to a
# temp; CPython's parser refuses 200
NEST_LIMIT = 50


def fold(expr: ScalarExpr) -> ScalarExpr:
    """`expr` with its constant subtrees evaluated: an Arith whose operands
    fold to Consts becomes the Const of its wrapped value, unless it is a mod
    by zero, which must raise when it runs.  A Cmp keeps its sides, folded;
    `truth` reads a Cmp of two Consts.  A tree with nothing to fold is
    returned as it is, and a subtree shared in `expr` is shared in the
    result (`rewrite`)."""
    return rewrite(expr, lambda leaf: leaf, _fold_node)


def _fold_node(expr: ScalarExpr, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr:
    """An Arith or Cmp node over its folded operands."""
    if (type(expr) is Arith and type(left) is Const and type(right) is Const
            and (expr.op != "mod" or right.value)):
        return Const(eval_scalar(_OP_TREE[expr.op], (left.value, right.value)))
    return expr.over(left, right)


def truth(expr: ScalarExpr):
    """The value of a comparison of two constants; None for any other tree."""
    if type(expr) is Cmp and type(expr.left) is Const and type(expr.right) is Const:
        return eval_scalar(_OP_TREE[expr.op], (expr.left.value, expr.right.value))
    return None


class Emitter:
    """Lowers expression trees to the statements of one generated function.

    `params` names the variables Param(0), Param(1), ... read and `captures`
    the ones Capture(0), ... read; build() makes the captures the generated
    function's leading parameters.  Lines go into the function body at
    indent level `depth`, which a caller emitting loops raises.  `_memo`
    maps each tree computed into a temp to (temp, bit bound).  Every
    statement at one loop level precedes the loop nested in it, so a temp is
    only reused where it was made or in a loop nested there: a position its
    computation dominates.

    Callers pass trees through fold() first, so a constant subtree reaches
    the emitter as one Const, bound to a name like any other; a comparison
    of two Consts becomes a bound True or False.  Nothing else folds: a mod
    by a constant zero, and any subtree that reads a parameter or a
    capture, are computed where they run.
    """

    def __init__(self, params: tuple, captures: tuple = ()):
        self.params = params
        self.captures = captures
        self.depth = 1
        self.names = list(_HELPERS)
        self.values = list(_HELPERS.values())
        self.lines: list[str] = []
        self._memo: dict = {}
        self._seen: set = set()
        self._shared: set = set()
        self._temps = itertools.count()

    def bind(self, value) -> str:
        """A fresh name the generated code reads `value` through."""
        name = f"k{len(self.names)}"
        self.names.append(name)
        self.values.append(value)
        return name

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def expect(self, *trees) -> None:
        """Note trees the caller will emit (None is skipped): an Arith subtree
        met a second time is shared, and gets a temp when first computed."""
        def walk(expr):
            if type(expr) is Arith:
                if expr in self._seen:
                    self._shared.add(expr)
                    return
                self._seen.add(expr)
            if type(expr) in (Arith, Cmp):
                walk(expr.left)
                walk(expr.right)
        for tree in trees:
            walk(tree)

    def value(self, expr: ScalarExpr, wrap: bool = True) -> str:
        """Emit the statements that compute `expr`; return the text of its value.

        With wrap=False the value is only congruent mod 2**64, which is all a
        fold needs.  A mod is a statement: inlined with the sign of the
        dividend for a non-zero constant divisor, else a mod_i64 call, so a
        zero divisor raises DivisionByZero.  Reusing a shared subtree's temp
        adds and drops no raise, since its first evaluation ran in the same
        order.  A Cmp root becomes an expression.  The zero test `a mod k ==
        0` (either operand order, k a non-zero constant) is written
        `a % |k| == 0`: truncated and floored remainders are zero for exactly
        the same dividends, so it needs no temp and no sign branch.  When
        other code reads the same `a mod k`, the test compares its signed
        temp with 0 instead, so the remainder is computed once.
        """
        if type(expr) is Cmp:
            known = truth(expr)
            if known is not None:
                return self.bind(known)
            if expr.op == "eq" and _ZERO in (expr.left, expr.right):
                return f"{self._zero_side(expr.left)} == {self._zero_side(expr.right)}"
            sym = OP_SYMBOL[expr.op]
            return f"{self.value(expr.left)} {sym} {self.value(expr.right)}"
        text, bits, _ = self._arith(expr)
        return self._wrapped(expr, text, bits) if wrap else text

    def hoist(self, expr: ScalarExpr, wrap: bool) -> None:
        """Compute an Arith tree into a temp here, for later code to reuse;
        wrap it here too when the code after observes it wrapped."""
        text, bits, _ = self._arith(expr)
        if expr not in self._memo:
            self._temp(expr, text, bits)
        if wrap:
            self._wrapped(expr, *self._memo[expr])

    def _arith(self, expr: ScalarExpr):
        """(text, bits, nest): text of a value congruent to expr's mod 2**64,
        a bound 2**bits on its magnitude, and the parenthesis nesting of the
        text as an operand (0 for a name)."""
        kind = type(expr)
        if kind is Param:
            return _slot(self.params, expr.index, "param"), 64, 0
        if kind is Capture:
            return _slot(self.captures, expr.slot, "capture slot"), 64, 0
        if kind is Const:
            return self.bind(expr.value), 64, 0
        if kind is not Arith:
            raise InvalidExpression(f"not an expression node: {type(expr).__name__}")
        hit = self._memo.get(expr)
        if hit is not None:
            return *hit, 0
        if expr.op == "mod":
            left = self.value(expr.left)
            if mod_by_const(expr):
                k = self.bind(abs(expr.right.value))
                text = f"{left} % {k} if {left} >= 0 else -(-{left} % {k})"
            else:
                text = f"mod_i64({left}, {self.value(expr.right)})"
            return *self._temp(expr, text, 64), 0
        sym = OP_SYMBOL[expr.op]
        (left, lbits, lnest), (right, rbits, rnest) = \
            self._arith(expr.left), self._arith(expr.right)
        bits = lbits + rbits if sym == "*" else max(lbits, rbits) + 1
        if bits > WRAP_BUDGET:
            left = self._wrapped(expr.left, left, lbits)
            right = self._wrapped(expr.right, right, rbits)
            bits = 128 if sym == "*" else 65
            lnest = rnest = 0
        text = f"{_operand(left)} {sym} {_operand(right)}"
        nest = 1 + max(lnest, rnest)
        if expr in self._shared or nest >= NEST_LIMIT:
            return *self._temp(expr, text, bits), 0
        return text, bits, nest

    def _wrapped(self, expr: ScalarExpr, text: str, bits: int) -> str:
        """The value `_arith` gave for expr, reduced to signed 64 bits."""
        if bits <= 64:
            return text
        name, bits = self._memo.get(expr) or self._temp(expr, text, bits)
        if bits > 64:
            self.line(f"if not MIN <= {name} <= MAX: {name} = wrap_i64({name})")
            self._memo[expr] = (name, 64)
        return name

    def _temp(self, expr: ScalarExpr, text: str, bits: int):
        name = f"t{next(self._temps)}"
        self.line(f"{name} = {text}")
        self._memo[expr] = (name, bits)
        return name, bits

    def _zero_side(self, expr: ScalarExpr) -> str:
        """One side of a comparison with 0: a mod by a constant k stays the
        floored `a % |k|`, which is 0 exactly when the truncated remainder is,
        unless other code reads the same mod: then its signed temp, computed
        once, is compared."""
        if mod_by_const(expr) and expr not in self._shared and expr not in self._memo:
            return f"{self.value(expr.left)} % {self.bind(abs(expr.right.value))}"
        return self.value(expr)

    def build(self, name: str, params: tuple):
        """Compile `def <name>(<captures>, <params>):` over the emitted lines.

        Returns the function, with the generated text as its `source`.
        Bound names are the generated module's globals and the captures lead
        the parameters, so one function serves every instance of a site
        (`instance`).
        """
        source = "\n".join((f"def {name}({', '.join((*self.captures, *params))}):",
                            *self.lines, ""))
        scope = dict(zip(self.names, self.values))
        exec(compile(source, f"<streambench {name}>", "exec"), scope)
        fn = scope[name]
        fn.source = source
        return fn


def _operand(text: str) -> str:
    """An operand's text, parenthesized unless it is a name."""
    return text if text.isidentifier() else f"({text})"


def _slot(names: tuple, index: int, what: str) -> str:
    if not 0 <= index < len(names):
        raise InvalidExpression(f"unbound {what} {index}")
    return names[index]


def instance(fn, captures: tuple):
    """`fn` with `captures` bound as its leading arguments: fn itself when
    there are none, else one bound method per capture, all over fn."""
    return reduce(MethodType, captures, fn)


def _compile(expr: ScalarExpr, params: tuple, captures: int):
    """f(*captures, *params) computing `expr`."""
    em = Emitter(params, tuple(f"c{i}" for i in range(captures)))
    expr = fold(expr)
    em.expect(expr)
    em.line(f"return {em.value(expr)}")
    return em.build("fn", params)


def compile_unary(expr: ScalarExpr, captures: tuple = ()):
    """Compile a one-parameter tree, captures bound to `captures`, to f(x)."""
    return instance(_compile(expr, ("x0",), len(captures)), captures)


def compile_binary(expr: ScalarExpr):
    """Compile a capture-free two-parameter tree to a callable f(x0, x1)."""
    return _compile(expr, ("x0", "x1"), 0)


# ---------------------------------------------------------------------------
# Call sites
# ---------------------------------------------------------------------------


class CallSiteCache:
    """Per-run registry of call sites and their closure accounting.

    Counters are written straight into a CounterSet's site table so that one
    object carries everything a run observed.  A cache is private to one run
    (or one parallel worker); nothing here is thread-safe by design.
    """

    def __init__(self, counters: CounterSet | None = None):
        self.counters = counters if counters is not None else CounterSet()
        # site id -> (counters, linked function); a non-capturing site's
        # function is its one instance
        self._sites: dict[int, tuple] = {}

    def bind(self, lam: Lambda, captures: tuple = ()):
        """Link on first touch, then produce (or reuse) an invocable instance."""
        site = self._sites.get(lam.site_id)
        if site is None:
            site = self._link(lam)
        ctr, fn = site
        if lam.captures == 0:
            return fn
        if len(captures) != lam.captures:
            raise ArityMismatch(
                f"lambda captures {lam.captures} values, got {len(captures)}")
        ctr.instantiations += 1
        return instance(fn, captures)

    def rebinder(self, sites):
        """rebind(v), which binds a flat-map's inner lambdas to outer element v.

        `sites` holds one (lambda, cell) pair per inner stage (stage_cell).
        The first call binds every site through bind, which links and checks
        it; later ones count and write a new instance for each capturing
        site into its cell, as bind would make it, with no lookup: one
        MethodType(fn, v), a single allocation made in C.
        """
        later = None  # after the first call: (counters, linked function, cell)
        def rebind(v):
            nonlocal later
            if later is None:
                for lam, cell in sites:
                    cell.cell_contents = self.bind(lam, (v,) if lam.captures else ())
                later = [(*self._sites[lam.site_id], cell)
                         for lam, cell in sites if lam.captures]
                return
            for ctr, fn, cell in later:
                ctr.instantiations += 1
                cell.cell_contents = MethodType(fn, v)
        return rebind

    def _link(self, lam: Lambda) -> tuple:
        if lam.arity != 1:
            raise ArityMismatch(f"stage lambdas are unary, got arity {lam.arity}")
        ctr = self.counters.site(lam.site_id)
        ctr.link_events += 1
        if lam.captures == 0:
            ctr.instantiations += 1
        site = ctr, _compile(lam.body, ("x0",), lam.captures)
        self._sites[lam.site_id] = site
        return site

    def stats(self, site_id: int):
        """(link_events, instantiations) for a site; zeros if never touched."""
        ctr = self.counters.sites.get(site_id)
        if ctr is None:
            return (0, 0)
        return (ctr.link_events, ctr.instantiations)


def stage_cell(closure):
    """The cell of `fn`, the lambda a stage closure applies; writing it binds."""
    return closure.__closure__[closure.__code__.co_freevars.index("fn")]


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
