"""Tests of the vector-primitive library used by generated operators."""

import warnings

import numpy as np
import pytest

from repro.runtime import vector as vp


RNG = np.random.default_rng(3)


class TestReductions:
    def test_vect_sum_kd_shape(self):
        a = RNG.random((4, 6))
        result = vp.vect_sum_kd(a)
        assert result.shape == (4, 1)
        np.testing.assert_allclose(result.ravel(), a.sum(axis=1))

    def test_min_max_mean(self):
        a = RNG.random((4, 6))
        np.testing.assert_allclose(vp.vect_min_kd(a).ravel(), a.min(axis=1))
        np.testing.assert_allclose(vp.vect_max_kd(a).ravel(), a.max(axis=1))
        np.testing.assert_allclose(vp.vect_mean_kd(a).ravel(), a.mean(axis=1))


class TestMatrixShaped:
    def test_vect_matmult(self):
        a, block = RNG.random((4, 6)), RNG.random((6, 3))
        np.testing.assert_allclose(vp.vect_matmult(a, block), a @ block)


class TestElementwise:
    def test_row_scalar_broadcast(self):
        tile = RNG.random((4, 6))
        scalar_col = vp.vect_sum_kd(tile)  # (4, 1)
        result = vp.vect_mult(tile, scalar_col)
        np.testing.assert_allclose(result, tile * tile.sum(axis=1, keepdims=True))

    @pytest.mark.parametrize(
        "func,ref",
        [
            (vp.vect_exp, np.exp),
            (vp.vect_log, np.log),
            (vp.vect_sqrt, np.sqrt),
            (vp.vect_abs, np.abs),
            (vp.vect_sign, np.sign),
            (vp.vect_neg, np.negative),
            (vp.vect_pow2, np.square),
            (vp.vect_sigmoid, lambda x: 1 / (1 + np.exp(-x))),
        ],
    )
    def test_unary_matches_numpy(self, func, ref):
        a = RNG.random((3, 4)) + 0.1
        np.testing.assert_allclose(func(a), ref(a))

    def test_sigmoid_saturates_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = vp.vect_sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_array_equal(result, [0.0, 0.5, 1.0])

    def test_base_engine_runs_the_same_primitives(self):
        from repro.runtime import ops

        for name in ("not", "sigmoid", "sprop", "pow2", "erf", "normpdf"):
            primitive = getattr(vp, vp.UNARY_PRIMITIVES[name])
            assert ops._UNARY_FUNCS[name] is primitive

    def test_comparisons_indicator(self):
        a, b = RNG.random((3, 4)), RNG.random((3, 4))
        assert set(np.unique(vp.vect_lt(a, b))) <= {0.0, 1.0}
        np.testing.assert_array_equal(vp.vect_ge(a, a), np.ones_like(a))

    def test_ifelse(self):
        cond = np.array([[1.0, 0.0]])
        np.testing.assert_array_equal(
            vp.vect_ifelse(cond, 2.0, 3.0), np.array([[2.0, 3.0]])
        )

    def test_vect_div_by_zero_suppressed(self):
        a = np.ones((2, 2))
        b = np.zeros((2, 2))
        result = vp.vect_div(a, b)
        assert np.all(np.isinf(result))


class TestPrimitiveRegistry:
    def test_every_unary_primitive_exists(self):
        for name in vp.UNARY_PRIMITIVES.values():
            assert callable(getattr(vp, name))

    def test_every_binary_primitive_exists(self):
        for name in vp.BINARY_PRIMITIVES.values():
            assert callable(getattr(vp, name))
