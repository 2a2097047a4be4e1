"""Format layer: recommend_format policy and sparse kernel dispatch."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.compiler.symbolic import sparsity_class
from repro.hops import memory
from repro.hops.hop import DataOp
from repro.runtime import matrix as matrix_mod
from repro.runtime import ops
from repro.runtime.matrix import (
    SPARSE_THRESHOLD,
    MatrixBlock,
    recommend_format,
)
from repro.runtime.vector import BINARY

RNG = np.random.default_rng(9)


def _sparse_block(rows=40, cols=30, density=0.05, seed=4) -> MatrixBlock:
    return MatrixBlock.rand(rows, cols, sparsity=density, seed=seed)


class TestRecommendFormat:
    def test_threshold_rule(self):
        assert recommend_format(10, 10, 10) == "sparse"  # 10% < 0.4
        assert recommend_format(10, 10, 60) == "dense"
        assert recommend_format(10, 10, 39) == "sparse"
        assert recommend_format(10, 10, 40) == "dense"  # exactly at 0.4

    def test_unknown_and_empty_default_dense(self):
        assert recommend_format(10, 10, -1) == "dense"
        assert recommend_format(0, 10, 0) == "dense"

    def test_examine_representation_follows_policy(self):
        dense_store = MatrixBlock(_sparse_block().to_dense())
        assert not dense_store.is_sparse
        assert dense_store.examine_representation().is_sparse
        ones = MatrixBlock(sp.csr_matrix(np.ones((8, 8))))
        assert not ones.examine_representation().is_sparse

    def test_custom_threshold(self, monkeypatch):
        block = _sparse_block(density=0.3)
        monkeypatch.setattr(matrix_mod, "SPARSE_THRESHOLD", 0.1)
        assert recommend_format(block.rows, block.cols, block.nnz) == "dense"

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_every_layer_agrees_at_the_threshold(self, delta):
        """Compiler estimates, kernel output storage and specialization
        keys all read SPARSE_THRESHOLD: just below it is sparse, at and
        just above it dense, for every one of them."""
        rows, cols = 50, 40
        nnz = round(SPARSE_THRESHOLD * rows * cols) + delta
        arr = np.zeros(rows * cols)
        arr[:nnz] = 1.0
        block = MatrixBlock(arr.reshape(rows, cols))
        hop = DataOp(block, name="X")
        sparse = delta < 0
        csr_bytes = nnz * 12.0 + (rows + 1) * 4.0
        assert (recommend_format(rows, cols, nnz) == "sparse") == sparse
        assert hop.is_sparse_est() == sparse
        assert (memory.output_bytes(hop) == csr_bytes) == sparse
        assert block.examine_representation().is_sparse == sparse
        assert (sparsity_class(block) == "sparse") == sparse

    def test_nnz_is_cached(self):
        block = _sparse_block()
        first = block.nnz
        assert block._nnz == first
        block.examine_representation()  # representation switch keeps it
        assert block.nnz == first


class TestSparseBinaryDispatch:
    @pytest.mark.parametrize("op", ["+", "-", "*", "min", "max"])
    def test_sparse_sparse_stays_sparse(self, op):
        a = _sparse_block(seed=1)
        b = _sparse_block(seed=2)
        result = ops.binary(op, a, b)
        assert result.is_sparse
        expected = BINARY[op](a.to_dense(), b.to_dense())
        np.testing.assert_array_equal(result.to_dense(), expected)

    def test_sparse_dense_multiply_keeps_pattern(self):
        a = _sparse_block(seed=3)
        b = MatrixBlock(RNG.random((40, 30)) + 0.5)  # fully dense
        result = ops.binary("*", a, b)
        assert result.is_sparse
        np.testing.assert_array_equal(
            result.to_dense(), a.to_dense() * b.to_dense()
        )

    def test_dense_result_densifies_by_policy(self):
        a = _sparse_block(seed=5)
        b = _sparse_block(seed=6)
        # max with a dense operand fills nearly every cell.
        result = ops.binary("+", a, MatrixBlock(np.ones((40, 30))))
        assert not result.is_sparse


class TestSparseAggregations:
    @pytest.mark.parametrize("op", ["min", "max"])
    @pytest.mark.parametrize("direction", ["full", "row", "col"])
    def test_min_max_over_csr(self, op, direction):
        x = _sparse_block(seed=7)
        result = ops.agg_unary(op, x, direction)
        dense = x.to_dense()
        func = {"min": np.min, "max": np.max}[op]
        if direction == "full":
            assert result == func(dense)
        else:
            axis = 1 if direction == "row" else 0
            expected = func(dense, axis=axis)
            np.testing.assert_array_equal(
                result.to_dense().ravel(), expected.ravel()
            )


class TestSizeEstimates:
    def test_csr_size_accounts_for_indptr(self):
        block = _sparse_block(rows=100, cols=50, density=0.02)
        assert block.is_sparse
        expected = block.to_csr().nnz * 12.0 + 101 * 4.0
        assert block.size_bytes == expected

    def test_hop_output_bytes_matches_runtime_size(self):
        block = _sparse_block(rows=100, cols=50, density=0.02)
        hop = DataOp(block, name="X")
        # The estimate and the runtime block agree exactly for exact nnz
        # (explicit zeros aside).
        assert memory.output_bytes(hop) == block.nnz * 12.0 + 101 * 4.0

    def test_unknown_nnz_estimates_dense(self):
        block = _sparse_block(rows=100, cols=50, density=0.02)
        hop = DataOp(block, name="X", nnz_unknown=True)
        assert hop.nnz == -1
        assert memory.output_bytes(hop) == 100 * 50 * 8.0
