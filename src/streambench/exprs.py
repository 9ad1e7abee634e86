"""Scalar expression trees over 64-bit integers.

Pipeline lambdas are not host-language callables.  They are small expression
trees so that every execution strategy interprets exactly the same object, the
optimizer can inline one tree into another by substitution, and the act of
applying a lambda stays an observable, countable boundary.

Value semantics: every value is a signed 64-bit integer.  add/sub/mul wrap
modulo 2**64 (two's complement, like a JVM or CLR long).  mod is the truncated
remainder (result takes the sign of the dividend, matching those runtimes) and
raises DivisionByZero on a zero divisor.  Comparisons appear only at the root
of predicate trees; the node constructors make nested comparisons
unrepresentable.

Arith and Cmp share one operator base, which checks a node once when it is
built, caches its hash and what walks ask of it, compares trees and pickles
them by rebuilding.  rewrite() is the one bottom-up rebuild of a tree: the
optimizer's substitution and the emitter's constant folding are both
functions over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DivisionByZero, IndexOutOfRange, InvalidExpression

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1
_U64_MASK = (1 << 64) - 1
_BIAS = 1 << 63

ARITH_OPS = ("add", "sub", "mul", "mod")
CMP_OPS = ("eq", "lt")

OP_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "mod": "%", "eq": "==", "lt": "<"}


def wrap_i64(x: int) -> int:
    """Reduce an unbounded int to signed 64-bit two's complement."""
    if I64_MIN <= x <= I64_MAX:
        return x
    return ((x + _BIAS) & _U64_MASK) - _BIAS


def mod_i64(a: int, b: int) -> int:
    """Truncated remainder: sign follows the dividend, |r| < |b|."""
    if b == 0:
        raise DivisionByZero("mod by zero")
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Const:
    """A literal value, already in signed 64-bit range."""

    value: int

    def __post_init__(self) -> None:
        # a bool is an int, but would print as True and equal Const(1)
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise InvalidExpression(f"constant is not an int: {self.value!r}")
        if not (I64_MIN <= self.value <= I64_MAX):
            raise InvalidExpression(f"constant out of 64-bit range: {self.value}")


@dataclass(frozen=True, slots=True)
class Param:
    """The lambda parameter at position `index`."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidExpression(f"negative parameter index: {self.index}")


@dataclass(frozen=True, slots=True)
class Capture:
    """A value captured from the enclosing scope, bound at capture time."""

    slot: int

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise InvalidExpression(f"negative capture slot: {self.slot}")


def _equal(a, b) -> bool:
    """a == b for two Arith or Cmp nodes of one class.  Each pair of nodes is
    compared once, so two equal trees that share subtrees cost their
    distinct nodes, never their paths."""
    done = set()
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        kind = type(x)
        if kind is not type(y):
            return False
        if kind is Arith or kind is Cmp:
            if x.op != y.op or x._hash != y._hash:
                return False
            if (id(x), id(y)) not in done:
                done.add((id(x), id(y)))
                todo += ((x.right, y.right), (x.left, y.left))
        elif x != y:
            return False
    return True


@dataclass(frozen=True, slots=True)
class _OpNode:
    """An operator over two operand trees: the base of Arith and Cmp.

    Building one checks its op against the class's `_ops` and its operands,
    then records on it what walks ask of a tree (`_facts`): the highest
    Param index and Capture slot it reads, and whether evaluating it can
    raise.  Each fact, and the hash, is O(1) from its operands', so a tree
    that shares subtrees costs its distinct nodes, never its paths.
    """

    op: str
    left: "ScalarExpr"
    right: "ScalarExpr"
    _hash: int = field(init=False, repr=False, compare=False)
    _facts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kind, ops = self._ops
        if self.op not in ops:
            raise InvalidExpression(f"unknown {kind} op: {self.op!r}")
        left, right = self.left, self.right
        for side in (left, right):
            if isinstance(side, Cmp):
                raise InvalidExpression(f"comparison nested inside {kind}")
        lp, lc, lr = _facts(left)  # raises for an operand that is no node
        rp, rc, rr = _facts(right)
        object.__setattr__(self, "_facts", (
            lp if lp > rp else rp, lc if lc > rc else rc,
            lr or rr or (self.op == "mod" and not mod_by_const(self))))
        # the emitter keys its tables by tree, so hash in O(1), not O(size)
        object.__setattr__(self, "_hash", hash((self.op, left, right)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _equal(self, other)

    def __reduce__(self):
        # str hashes differ between processes: rebuild, never copy _hash
        return self.__class__, (self.op, self.left, self.right)

    def over(self, left: "ScalarExpr", right: "ScalarExpr") -> "ScalarExpr":
        """This node's op over `left` and `right`: itself when those are
        its own operands, else a new node of its class."""
        if left is self.left and right is self.right:
            return self
        return self.__class__(self.op, left, right)


class Arith(_OpNode):
    """A wrapping arithmetic node.  Operands are themselves arithmetic."""

    __slots__ = ()
    _ops = ("arithmetic", ARITH_OPS)


class Cmp(_OpNode):
    """A comparison node.  Legal only as the root of a predicate tree."""

    __slots__ = ()
    _ops = ("comparison", CMP_OPS)


ScalarExpr = Const | Param | Capture | Arith | Cmp


def rewrite(expr: ScalarExpr, leaf, node=_OpNode.over) -> ScalarExpr:
    """`expr` rebuilt bottom-up: each Const, Param or Capture x becomes
    `leaf(x)`, and each Arith or Cmp x becomes `node(x, left, right)` over
    its rewritten operands (by default x over them).  Each node is rewritten
    once per call, so a subtree shared in `expr` is shared in the result."""
    done = {}  # id of a node of expr -> its rewrite

    def walk(expr):
        kind = type(expr)
        if kind is not Arith and kind is not Cmp:
            return leaf(expr)
        new = done.get(id(expr))
        if new is None:
            new = done[id(expr)] = node(expr, walk(expr.left), walk(expr.right))
        return new

    return walk(expr)


# ---------------------------------------------------------------------------
# Reference interpreter
# ---------------------------------------------------------------------------


def eval_scalar(expr: ScalarExpr, params: tuple = (), captures: tuple = ()):
    """Evaluate an expression tree against parameter and capture bindings.

    This is the reference interpreter: deliberately plain recursion, used by
    the brute-force oracle and as the ground truth the compiled fast path is
    tested against.  Returns an int for arithmetic trees, a bool for
    comparisons.
    """
    kind = type(expr)
    if kind is Const:
        return expr.value
    if kind is Param:
        if expr.index >= len(params):
            raise IndexOutOfRange(f"param {expr.index} with {len(params)} bound")
        return params[expr.index]
    if kind is Capture:
        if expr.slot >= len(captures):
            raise IndexOutOfRange(f"capture {expr.slot} with {len(captures)} bound")
        return captures[expr.slot]
    left = eval_scalar(expr.left, params, captures)
    right = eval_scalar(expr.right, params, captures)
    op = expr.op
    if kind is Arith:
        if op == "add":
            return wrap_i64(left + right)
        if op == "sub":
            return wrap_i64(left - right)
        if op == "mul":
            return wrap_i64(left * right)
        return mod_i64(left, right)
    if op == "eq":
        return left == right
    return left < right


_LEAF = (-1, -1, False)


def _facts(expr: ScalarExpr) -> tuple:
    """(highest Param index, highest Capture slot, can raise) of a tree."""
    kind = type(expr)
    if kind is Arith or kind is Cmp:
        return expr._facts
    if kind is Param:
        return expr.index, -1, False
    if kind is Capture:
        return -1, expr.slot, False
    if kind is Const:
        return _LEAF
    raise InvalidExpression(f"not an expression node: {type(expr).__name__}")


def max_param_index(expr: ScalarExpr) -> int:
    """Highest Param index referenced, or -1 if none."""
    return _facts(expr)[0]


def max_capture_slot(expr: ScalarExpr) -> int:
    """Highest Capture slot referenced, or -1 if none."""
    return _facts(expr)[1]


def may_raise(expr: ScalarExpr) -> bool:
    """True when evaluating the tree can fail: it holds a mod whose divisor
    is not a non-zero constant."""
    return _facts(expr)[2]


def mod_by_const(expr: ScalarExpr) -> bool:
    """True for a mod node whose divisor is a non-zero constant."""
    return (type(expr) is Arith and expr.op == "mod"
            and type(expr.right) is Const and expr.right.value != 0)


def format_expr(expr: ScalarExpr) -> str:
    """Deterministic text form: leaves bare, compound nodes parenthesized.

    Params print as x0, x1, ...; captures as c0, c1, ...  The fused-plan
    renderer and the golden-plan tests rely on this exact layout.
    """
    kind = type(expr)
    if kind is Const:
        return str(expr.value)
    if kind is Param:
        return f"x{expr.index}"
    if kind is Capture:
        return f"c{expr.slot}"
    sym = OP_SYMBOL[expr.op]
    return f"({format_expr(expr.left)} {sym} {format_expr(expr.right)})"
