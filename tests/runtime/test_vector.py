"""Tests of the cell-function table every layer reads.

Each ``UNARY`` / ``BINARY`` / ``AGG`` entry is checked against a
reference written with :mod:`math` and plain Python over the three
operand kinds the drivers pass: a dense 2-D block, a 1-D vector of
non-zero values, and Python floats.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro import api
from repro.compiler.execution import Engine
from repro.hops.types import (
    CELLWISE_BINARY,
    CELLWISE_UNARY,
    SPARSE_SAFE_BINARY,
    SPARSE_SAFE_UNARY,
)
from repro.runtime import vector as vp


RNG = np.random.default_rng(3)

UNARY_REFERENCE = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "sign": lambda x: float((x > 0) - (x < 0)),
    "round": round,
    "floor": math.floor,
    "ceil": math.ceil,
    "neg": lambda x: -x,
    "not": lambda x: 1.0 if x == 0 else 0.0,
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)),
    "sprop": lambda x: x * (1.0 - x),
    "pow2": lambda x: x * x,
    "erf": math.erf,
    "normpdf": lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
}

BINARY_REFERENCE = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": math.pow,
    "min": min,
    "max": max,
    "==": lambda a, b: float(a == b),
    "!=": lambda a, b: float(a != b),
    "<": lambda a, b: float(a < b),
    ">": lambda a, b: float(a > b),
    "<=": lambda a, b: float(a <= b),
    ">=": lambda a, b: float(a >= b),
    "&": lambda a, b: float(a != 0 and b != 0),
    "|": lambda a, b: float(a != 0 or b != 0),
}

AGG_REFERENCE = {
    "sum": math.fsum,
    "min": min,
    "max": max,
    "mean": lambda values: math.fsum(values) / len(values),
}

#: Ops whose reference raises on a zero or negative operand.
_POSITIVE_DOMAIN = {"log", "sqrt", "^", "/"}


def _operands(op: str, seed: int):
    """A dense block (with a zero), a vector of non-zeros and a float."""
    rng = np.random.default_rng(seed)
    low = 0.1 if op in _POSITIVE_DOMAIN else -2.0
    block = rng.uniform(low, 2.0, (3, 4))
    if op not in _POSITIVE_DOMAIN:
        block[0, 0] = 0.0
    nonzeros = rng.uniform(0.1, 2.0, 6)
    return [block, nonzeros, float(rng.uniform(0.1, 2.0))]


def _cellwise(ref, *args):
    """``ref`` applied cell by cell in Python floats."""
    if isinstance(args[0], float):
        return float(ref(*args))
    flat = zip(*(np.ravel(a).tolist() for a in args))
    return np.array([float(ref(*cell)) for cell in flat]).reshape(np.shape(args[0]))


class TestReductions:
    def test_row_sum_keeps_axis(self):
        a = RNG.random((4, 6))
        result = vp.AGG["sum"](a, axis=-1, keepdims=True)
        assert result.shape == (4, 1)
        expected = [[math.fsum(row)] for row in a.tolist()]
        np.testing.assert_allclose(result, expected, rtol=1e-14)

    def test_min_max_mean(self):
        a = RNG.random((4, 6))
        for op in ("min", "max", "mean"):
            rows = vp.AGG[op](a, axis=-1, keepdims=True)
            cols = vp.AGG[op](a, axis=0, keepdims=True)
            assert rows.shape == (4, 1) and cols.shape == (1, 6)
            ref = AGG_REFERENCE[op]
            np.testing.assert_allclose(
                rows.ravel(), [ref(row) for row in a.tolist()], rtol=1e-14)
            np.testing.assert_allclose(
                cols.ravel(), [ref(col) for col in a.T.tolist()], rtol=1e-14)

    @pytest.mark.parametrize("op", sorted(vp.AGG))
    def test_agg_matches_reference(self, op):
        block, nonzeros, scalar = _operands(op, seed=11)
        ref = AGG_REFERENCE[op]
        for value in (block, nonzeros):
            assert np.ndim(vp.AGG[op](value)) == 0
            assert vp.AGG[op](value) == pytest.approx(
                ref(np.ravel(value).tolist()), rel=1e-14)
        assert vp.AGG[op](scalar) == scalar


class TestMatrixShaped:
    def test_vect_matmult(self):
        a, block = RNG.random((4, 6)), RNG.random((6, 3))
        np.testing.assert_allclose(vp.vect_matmult(a, block), a @ block)

    @pytest.mark.usefixtures("parallel_tiny_ops")
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("shape", ["vector", "matrix", "f-order",
                                       "strided"])
    def test_vect_tmatmult_is_the_transposed_product(self, shape, sparse):
        a = RNG.random((300, 7))
        if sparse:
            a = sp.csr_matrix(np.where(a < 0.7, 0.0, a))
        b = {
            "vector": lambda: RNG.random((300, 1)),
            "matrix": lambda: RNG.random((300, 5)),
            "f-order": lambda: np.asfortranarray(RNG.random((300, 5))),
            "strided": lambda: RNG.random((600, 10))[::2, ::2],
        }[shape]()
        assert np.array_equal(vp.vect_tmatmult(a, b), a.T @ b)

    @pytest.mark.usefixtures("parallel_tiny_ops")
    def test_row_source_calls_vect_tmatmult(self):
        """``t(X) %*% v`` in a Row body is the helper, never ``.T @``."""
        x = api.matrix(RNG.random((40, 6)), "X")
        v = api.matrix(RNG.random((6, 1)), "v")
        engine = Engine(mode="gen")
        api.eval(x.T @ (x @ v), engine=engine)
        (operator,) = engine.plan_cache._cache.values()
        assert operator.cplan.ttype.value == "Row"
        assert "vp.vect_tmatmult(" in operator.source
        assert ".T @" not in operator.source


class TestElementwise:
    def test_row_scalar_broadcast(self):
        tile = RNG.random((4, 6))
        scalar_col = vp.AGG["sum"](tile, axis=-1, keepdims=True)  # (4, 1)
        result = vp.BINARY["*"](tile, scalar_col)
        expected = [[x * math.fsum(row) for x in row] for row in tile.tolist()]
        np.testing.assert_allclose(result, expected, rtol=1e-14)

    @pytest.mark.parametrize("op", sorted(vp.UNARY))
    def test_unary_matches_reference(self, op):
        for value in _operands(op, seed=5):
            result = vp.UNARY[op](value)
            assert np.shape(result) == np.shape(value)
            np.testing.assert_allclose(
                result, _cellwise(UNARY_REFERENCE[op], value), rtol=1e-14)

    @pytest.mark.parametrize("op", sorted(vp.BINARY))
    def test_binary_matches_reference(self, op):
        lhs = _operands(op, seed=7)
        rhs = _operands(op, seed=8)
        # Equal cells, so == / <= / >= see both outcomes.
        rhs[0][1] = lhs[0][1]
        rhs[1][:2] = lhs[1][:2]
        ref = BINARY_REFERENCE[op]
        for a, b in zip(lhs, rhs):
            np.testing.assert_allclose(
                vp.BINARY[op](a, b), _cellwise(ref, a, b), rtol=1e-14)
        # A block against a broadcast Python float, on either side.
        block, scalar = lhs[0], rhs[2]
        np.testing.assert_allclose(
            vp.BINARY[op](block, scalar),
            _cellwise(ref, block, np.full(block.shape, scalar)), rtol=1e-14)
        np.testing.assert_allclose(
            vp.BINARY[op](scalar, block),
            _cellwise(ref, np.full(block.shape, scalar), block), rtol=1e-14)

    def test_sigmoid_saturates_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = vp.UNARY["sigmoid"](np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_array_equal(result, [0.0, 0.5, 1.0])

    def test_base_engine_runs_the_same_primitives(self, monkeypatch):
        """The base kernels and a compiled ``genbody`` resolve each op
        to the same table entry: a spy put into the table is called by
        both engines."""
        calls = []

        def spy(table, op):
            func = table[op]

            def wrapper(*args, **kwargs):
                calls.append(op)
                return func(*args, **kwargs)

            monkeypatch.setitem(table, op, wrapper)

        spy(vp.UNARY, "exp")
        spy(vp.BINARY, "*")
        spy(vp.AGG, "sum")
        xd, yd = RNG.random((40, 8)), RNG.random((40, 8))
        results = {}
        for mode in ("base", "gen"):
            calls.clear()
            engine = Engine(mode=mode)
            x, y = api.matrix(xd, "X"), api.matrix(yd, "Y")
            results[mode] = api.eval((api.exp(x) * y).row_sums(),
                                     engine=engine).to_dense()
            assert {"exp", "*", "sum"} <= set(calls), mode
        assert engine.stats.n_compiled_runs > 0
        operator = next(iter(engine.plan_cache._cache.values()))
        assert operator.genbody.__globals__["vp"] is vp
        np.testing.assert_allclose(results["gen"], results["base"], rtol=1e-14)

    def test_comparisons_indicator(self):
        a, b = RNG.random((3, 4)), RNG.random((3, 4))
        for op in ("==", "!=", "<", ">", "<=", ">=", "&", "|"):
            assert set(np.unique(vp.BINARY[op](a, b))) <= {0.0, 1.0}
            assert vp.BINARY[op](1.0, 2.0) in (0.0, 1.0)
        np.testing.assert_array_equal(vp.BINARY[">="](a, a), np.ones_like(a))

    def test_ifelse(self):
        cond = np.array([[1.0, 0.0]])
        np.testing.assert_array_equal(
            vp.vect_ifelse(cond, 2.0, 3.0), np.array([[2.0, 3.0]])
        )

    def test_vect_div_by_zero_suppressed(self):
        a = np.ones((2, 2))
        b = np.zeros((2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = vp.BINARY["/"](a, b)
        assert np.all(np.isinf(result))


class TestPrimitiveRegistry:
    def test_every_unary_primitive_exists(self):
        assert set(vp.UNARY) == CELLWISE_UNARY
        assert all(callable(func) for func in vp.UNARY.values())

    def test_every_binary_primitive_exists(self):
        assert set(vp.BINARY) == CELLWISE_BINARY
        assert all(callable(func) for func in vp.BINARY.values())

    @pytest.mark.parametrize("op", sorted(SPARSE_SAFE_UNARY))
    def test_sparse_safe_unary_maps_zero_to_zero(self, op):
        assert vp.UNARY[op](0.0) == 0.0
        np.testing.assert_array_equal(vp.UNARY[op](np.zeros((2, 3))), 0.0)

    @pytest.mark.parametrize("op", sorted(SPARSE_SAFE_BINARY))
    def test_sparse_safe_binary_zero_dominates(self, op):
        for y in (-3.5, 0.0, 1e300, 2.0):
            assert vp.BINARY[op](0.0, y) == 0.0
            assert vp.BINARY[op](y, 0.0) == 0.0
        finite = np.array([-3.5, 0.0, 1e300, 2.0])
        np.testing.assert_array_equal(vp.BINARY[op](np.zeros(4), finite), 0.0)


class TestSparseSafeErf:
    def test_erf_over_csr_plans_a_sparse_safe_cell(self):
        """``erf(0) == 0``, so ``erf(X) * 2`` over a CSR ``X`` is one
        sparse-safe Cell over the CSR main that keeps X's non-zero
        count, and it computes what the basic operators compute."""
        import scipy.sparse as sp

        from repro.runtime.matrix import MatrixBlock

        block = MatrixBlock(
            sp.random(400, 300, density=0.02, format="csr", random_state=1)
        )

        def build():
            return api.erf(api.matrix(block, "X")) * 2.0

        engine = Engine("gen")
        (instr,) = engine.compile([build().hop]).instructions
        cplan = instr.hop.operator.cplan
        main = instr.hop.inputs[cplan.main_index]
        assert cplan.ttype.value == "Cell" and cplan.sparse_safe
        assert main.name == "X" and main.data.is_sparse
        assert instr.hop.nnz == block.nnz
        gen = api.eval(build(), engine=engine)
        base = api.eval(build(), engine=Engine("base"))
        assert gen.is_sparse and base.is_sparse
        np.testing.assert_array_equal(gen.to_dense(), base.to_dense())
