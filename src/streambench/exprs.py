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

_OP_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "mod": "%", "eq": "==", "lt": "<"}


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


@dataclass(frozen=True, slots=True)
class Arith:
    """A wrapping arithmetic node.  Operands are themselves arithmetic."""

    op: str
    left: "ScalarExpr"
    right: "ScalarExpr"
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise InvalidExpression(f"unknown arithmetic op: {self.op!r}")
        for side in (self.left, self.right):
            if isinstance(side, Cmp):
                raise InvalidExpression("comparison nested inside arithmetic")
            if not isinstance(side, (Const, Param, Capture, Arith)):
                raise InvalidExpression(f"bad operand: {side!r}")
        # the emitter keys its tables by tree, so hash in O(1), not O(size)
        object.__setattr__(self, "_hash", hash((self.op, self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # str hashes differ between processes: rebuild, never copy _hash
        return Arith, (self.op, self.left, self.right)


@dataclass(frozen=True, slots=True)
class Cmp:
    """A comparison node.  Legal only as the root of a predicate tree."""

    op: str
    left: "ScalarExpr"
    right: "ScalarExpr"

    def __post_init__(self) -> None:
        if self.op not in CMP_OPS:
            raise InvalidExpression(f"unknown comparison op: {self.op!r}")
        for side in (self.left, self.right):
            if isinstance(side, Cmp):
                raise InvalidExpression("comparison nested inside comparison")
            if not isinstance(side, (Const, Param, Capture, Arith)):
                raise InvalidExpression(f"bad operand: {side!r}")


ScalarExpr = Const | Param | Capture | Arith | Cmp


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


def max_param_index(expr: ScalarExpr) -> int:
    """Highest Param index referenced, or -1 if none."""
    kind = type(expr)
    if kind is Param:
        return expr.index
    if kind in (Arith, Cmp):
        return max(max_param_index(expr.left), max_param_index(expr.right))
    return -1


def max_capture_slot(expr: ScalarExpr) -> int:
    """Highest Capture slot referenced, or -1 if none."""
    kind = type(expr)
    if kind is Capture:
        return expr.slot
    if kind in (Arith, Cmp):
        return max(max_capture_slot(expr.left), max_capture_slot(expr.right))
    return -1


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
    sym = _OP_SYMBOL[expr.op]
    return f"({format_expr(expr.left)} {sym} {format_expr(expr.right)})"
