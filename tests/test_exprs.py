"""Expression tree semantics: wrapping, truncated mod, evaluation, printing."""

import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from streambench.errors import DivisionByZero, IndexOutOfRange, InvalidExpression
from streambench.exprs import (
    I64_MAX,
    I64_MIN,
    Arith,
    Capture,
    Cmp,
    Const,
    Param,
    eval_scalar,
    format_expr,
    max_capture_slot,
    max_param_index,
    may_raise,
    mod_i64,
    wrap_i64,
)


def wrap_oracle(x: int) -> int:
    """Independent statement of two's-complement reduction."""
    return ((x + 2**63) % 2**64) - 2**63


def truncated_mod_oracle(a: int, b: int) -> int:
    """Derive truncated remainder from Python's floored one."""
    r = a % b
    if r != 0 and (a < 0) != (b < 0):
        r -= b
    return r


class TestWrap:
    def test_identity_in_range(self):
        for x in (0, 1, -1, I64_MAX, I64_MIN, 42, -(1 << 62)):
            assert wrap_i64(x) == x

    def test_boundary_values(self):
        assert wrap_i64(I64_MAX + 1) == I64_MIN
        assert wrap_i64(I64_MIN - 1) == I64_MAX
        assert wrap_i64(1 << 63) == I64_MIN
        assert wrap_i64(1 << 64) == 0
        assert wrap_i64((1 << 64) + 5) == 5
        assert wrap_i64(-(1 << 64)) == 0

    @given(st.integers(min_value=-(1 << 130), max_value=1 << 130))
    def test_matches_oracle(self, x):
        got = wrap_i64(x)
        assert got == wrap_oracle(x)
        assert I64_MIN <= got <= I64_MAX

    @given(st.integers(min_value=-(1 << 130), max_value=1 << 130))
    def test_idempotent(self, x):
        assert wrap_i64(wrap_i64(x)) == wrap_i64(x)


class TestMod:
    def test_sign_follows_dividend(self):
        assert mod_i64(7, 3) == 1
        assert mod_i64(-7, 3) == -1
        assert mod_i64(7, -3) == 1
        assert mod_i64(-7, -3) == -1
        assert mod_i64(0, 5) == 0
        assert mod_i64(6, 3) == 0
        assert mod_i64(-6, 3) == 0

    def test_zero_divisor_raises(self):
        with pytest.raises(DivisionByZero):
            mod_i64(5, 0)
        with pytest.raises(DivisionByZero):
            mod_i64(0, 0)

    @given(
        st.integers(min_value=I64_MIN, max_value=I64_MAX),
        st.integers(min_value=I64_MIN, max_value=I64_MAX).filter(lambda b: b != 0),
    )
    def test_matches_oracle(self, a, b):
        got = mod_i64(a, b)
        assert got == truncated_mod_oracle(a, b)
        assert abs(got) < abs(b)
        assert got == 0 or (got < 0) == (a < 0)


class TestConstruction:
    def test_const_range_checked(self):
        Const(I64_MAX)
        Const(I64_MIN)
        with pytest.raises(InvalidExpression):
            Const(I64_MAX + 1)
        with pytest.raises(InvalidExpression):
            Const(I64_MIN - 1)

    def test_non_int_const_rejected(self):
        for value in (1.5, "1", None, True, False):
            with pytest.raises(InvalidExpression):
                Const(value)

    def test_negative_indices_rejected(self):
        with pytest.raises(InvalidExpression):
            Param(-1)
        with pytest.raises(InvalidExpression):
            Capture(-1)

    def test_unknown_ops_rejected(self):
        with pytest.raises(InvalidExpression):
            Arith("div", Param(0), Const(2))
        with pytest.raises(InvalidExpression):
            Cmp("ge", Param(0), Const(2))

    def test_nested_comparison_unrepresentable(self):
        inner = Cmp("eq", Param(0), Const(0))
        with pytest.raises(InvalidExpression):
            Arith("add", inner, Const(1))
        with pytest.raises(InvalidExpression):
            Arith("add", Const(1), inner)
        with pytest.raises(InvalidExpression):
            Cmp("lt", inner, Const(1))

    def test_non_node_operands_rejected(self):
        with pytest.raises(InvalidExpression):
            Arith("add", 3, Const(1))
        with pytest.raises(InvalidExpression):
            Cmp("eq", Param(0), "zero")


class TestEval:
    def test_square(self):
        sq = Arith("mul", Param(0), Param(0))
        assert eval_scalar(sq, (7,)) == 49
        assert eval_scalar(sq, (-3,)) == 9

    def test_add_const(self):
        assert eval_scalar(Arith("add", Param(0), Const(1)), (41,)) == 42

    def test_capture_binding(self):
        scaled = Arith("mul", Param(0), Capture(0))
        assert eval_scalar(scaled, (6,), (7,)) == 42

    def test_two_params(self):
        prod = Arith("mul", Param(1), Param(0))
        assert eval_scalar(prod, (3, 5)) == 15

    def test_comparison_returns_bool(self):
        evens = Cmp("eq", Arith("mod", Param(0), Const(2)), Const(0))
        assert eval_scalar(evens, (4,)) is True
        assert eval_scalar(evens, (3,)) is False
        lt = Cmp("lt", Param(0), Const(10))
        assert eval_scalar(lt, (9,)) is True
        assert eval_scalar(lt, (10,)) is False

    def test_arith_wraps(self):
        inc = Arith("add", Param(0), Const(1))
        assert eval_scalar(inc, (I64_MAX,)) == I64_MIN
        sq = Arith("mul", Param(0), Param(0))
        assert eval_scalar(sq, (1 << 32,)) == 0
        neg = Arith("sub", Const(0), Param(0))
        assert eval_scalar(neg, (I64_MIN,)) == I64_MIN

    def test_mod_by_zero_expr(self):
        bad = Arith("mod", Param(0), Const(0))
        with pytest.raises(DivisionByZero):
            eval_scalar(bad, (5,))

    def test_unbound_param_raises(self):
        with pytest.raises(IndexOutOfRange):
            eval_scalar(Param(1), (5,))
        with pytest.raises(IndexOutOfRange):
            eval_scalar(Param(0), ())

    def test_unbound_capture_raises(self):
        with pytest.raises(IndexOutOfRange):
            eval_scalar(Capture(0), (5,), ())
        with pytest.raises(IndexOutOfRange):
            eval_scalar(Capture(2), (), (1, 2))


class TestIntrospection:
    def test_max_param_index(self):
        assert max_param_index(Const(3)) == -1
        assert max_param_index(Param(2)) == 2
        assert max_param_index(Arith("add", Param(0), Param(1))) == 1
        assert max_param_index(Cmp("lt", Const(0), Param(3))) == 3
        assert max_param_index(Capture(5)) == -1

    def test_max_capture_slot(self):
        assert max_capture_slot(Param(0)) == -1
        assert max_capture_slot(Capture(1)) == 1
        assert max_capture_slot(Arith("mul", Capture(0), Capture(2))) == 2

    def test_may_raise(self):
        assert not may_raise(Param(0))
        assert not may_raise(Arith("mod", Param(0), Const(3)))
        assert may_raise(Arith("mod", Param(0), Const(0)))
        assert may_raise(Arith("add", Const(1), Arith("mod", Const(1), Param(0))))
        assert may_raise(Cmp("eq", Arith("mod", Param(0), Capture(0)), Const(0)))

    def test_shared_subtrees_read_in_constant_time(self):
        tree = Arith("mod", Param(1), Capture(2))
        for _ in range(200):  # 2**200 paths
            tree = Arith("add", tree, tree)
        root = Cmp("lt", tree, Const(0))
        assert (max_param_index(root), max_capture_slot(root), may_raise(root)) \
            == (1, 2, True)

    def test_equal_trees_built_apart_compare_in_linear_time(self):
        def tower(leaf):
            tree = Arith("mod", Param(1), leaf)
            for _ in range(24):  # 2**24 paths
                tree = Arith("add", tree, tree)
            return tree

        start = time.perf_counter()
        assert tower(Capture(2)) == tower(Capture(2))
        assert tower(Capture(2)) != tower(Capture(3))
        assert Cmp("lt", tower(Const(1)), Const(0)) == Cmp("lt", tower(Const(1)), Const(0))
        assert Cmp("lt", tower(Const(1)), Const(0)) != Cmp("eq", tower(Const(1)), Const(0))
        assert Arith("add", tower(Const(1)), Const(0)) != Cmp("eq", tower(Const(1)), Const(0))
        assert time.perf_counter() - start < 0.5


class TestFormat:
    def test_leaves_bare(self):
        assert format_expr(Const(5)) == "5"
        assert format_expr(Const(-5)) == "-5"
        assert format_expr(Param(0)) == "x0"
        assert format_expr(Param(1)) == "x1"
        assert format_expr(Capture(0)) == "c0"

    def test_compound_parenthesized(self):
        assert format_expr(Arith("mul", Param(0), Param(0))) == "(x0 * x0)"
        evens = Cmp("eq", Arith("mod", Param(0), Const(2)), Const(0))
        assert format_expr(evens) == "((x0 % 2) == 0)"
        assert format_expr(Cmp("lt", Param(0), Const(3))) == "(x0 < 3)"
        nested = Arith("sub", Arith("add", Param(0), Const(1)), Capture(0))
        assert format_expr(nested) == "((x0 + 1) - c0)"


# Unpickles the trees on stdin in a process of its own and prints, against
# trees built fresh there: equal, equal hashes, and the hash of the op string.
_UNPICKLE = """
import pickle, sys
from streambench.exprs import Arith, Capture, Cmp, Const, Param
got = pickle.loads(sys.stdin.buffer.read())
arith = Arith("add", Arith("mul", Param(0), Const(3)), Capture(0))
fresh = (arith, Cmp("lt", arith, Const(7)))
print(got == fresh, list(map(hash, got)) == list(map(hash, fresh)), hash("add"))
"""


class TestPickle:
    def test_recorded_fields_are_rebuilt(self):
        shared = Arith("mod", Param(0), Capture(1))
        for tree in (Arith("mul", shared, shared), Cmp("lt", shared, shared)):
            got = pickle.loads(pickle.dumps(tree))
            assert got == tree and got.left is got.right
            assert (max_param_index(got), max_capture_slot(got), may_raise(got)) \
                == (0, 1, True)

    def test_arith_rehashes_in_a_process_with_another_hash_seed(self):
        tree = Arith("add", Arith("mul", Param(0), Const(3)), Capture(0))
        trees = (tree, Cmp("lt", tree, Const(7)))  # each node caches its hash
        seed = os.environ.get("PYTHONHASHSEED", "random")
        src = str(Path(sys.modules["streambench.exprs"].__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src,
               "PYTHONHASHSEED": str(int(seed) + 1) if seed.isdigit() else "0"}
        out = subprocess.run([sys.executable, "-c", _UNPICKLE], env=env,
                             input=pickle.dumps(trees), capture_output=True,
                             check=True).stdout.split()
        assert int(out[2]) != hash("add")  # the op strings hash differently
        assert out[:2] == [b"True", b"True"]
