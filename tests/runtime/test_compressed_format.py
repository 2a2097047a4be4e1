"""COMPRESSED as a first-class runtime format.

Covers the three-format policy (`recommend_format` with a
distinct-value estimate), auto-compression at recompile boundaries
(`observed_block`), admission-relevant size estimates (`memory.py`),
the compressed dispatch in `runtime/ops.py` with its stay-compressed
output policy, and the end-to-end acceptance property: sum-aggregated
sparse-safe cell pipelines run over compressed inputs with *zero*
decompressions.
"""

import numpy as np
import pytest

from repro import api
from repro.compiler.execution import Engine
from repro.compiler.recompile import observed_block
from repro.hops.hop import DataOp
from repro.hops import memory
from repro.runtime import ops as rops
from repro.runtime.compressed import CompressedMatrix, compress, estimate_distinct
from repro.runtime.matrix import (
    MatrixBlock,
    estimate_compressed_bytes,
    recommend_format,
)
from repro.runtime.stats import RuntimeStats


def _categorical_block(rows=200, cols=100, levels=3, seed=0):
    rng = np.random.default_rng(seed)
    return MatrixBlock(rng.integers(1, levels + 1, (rows, cols)).astype(np.float64))


class TestRecommendFormat:
    def test_compressed_for_low_distinct_dense(self):
        # 200x100 dense with 2 distinct values: dictionary + 1B DDC
        # codes undercut 8B dense cells by far more than the 2x floor.
        assert recommend_format(200, 100, 20_000, distinct=2.0) == "compressed"

    def test_unknown_distinct_keeps_two_format_policy(self):
        assert recommend_format(200, 100, 20_000) == "dense"
        assert recommend_format(200, 100, 100) == "sparse"

    def test_high_distinct_stays_dense(self):
        # Distinct ~ rows: the dictionary is as large as the data.
        assert recommend_format(200, 100, 20_000, distinct=200.0) == "dense"

    def test_ratio_floor_gates_compression(self):
        fmt_loose = recommend_format(200, 100, 20_000, distinct=2.0,
                                     compress_ratio=1.0)
        fmt_tight = recommend_format(200, 100, 20_000, distinct=2.0,
                                     compress_ratio=1e9)
        assert fmt_loose == "compressed"
        assert fmt_tight == "dense"

    def test_compressed_can_beat_sparse(self):
        # Ultra-sparse with a tiny dictionary: OLE's 4B offsets beat
        # CSR's 12B per non-zero.
        rows, cols, nnz = 100_000, 10, 20_000
        assert recommend_format(rows, cols, nnz) == "sparse"
        assert recommend_format(rows, cols, nnz, distinct=2.0) == "compressed"


class TestEstimates:
    def test_compressed_bytes_monotone_in_distinct(self):
        small = estimate_compressed_bytes(1000, 10, 10_000, 2.0)
        large = estimate_compressed_bytes(1000, 10, 10_000, 500.0)
        assert small < large

    def test_estimate_distinct_counts_unique_values(self):
        block = MatrixBlock(np.tile([[1.0, 2.0], [1.0, 3.0]], (50, 1)))
        assert estimate_distinct(block) == pytest.approx(1.5)

    def test_estimate_distinct_sparse_input(self):
        block = MatrixBlock.rand(500, 4, sparsity=0.1, seed=1)
        est = estimate_distinct(block, sample_rows=500)
        dense = block.to_dense()
        exact = np.mean([len(np.unique(dense[:, j])) for j in range(4)])
        assert est == pytest.approx(exact)

    def test_memory_output_bytes_uses_compressed_footprint(self):
        comp = compress(_categorical_block())
        hop = DataOp(comp, "X")
        assert memory.output_bytes(hop) == pytest.approx(comp.size_bytes)
        assert memory.output_bytes(hop) < comp.uncompressed_bytes


class TestObservedBlock:
    def test_dense_low_distinct_block_compresses(self):
        block = _categorical_block(rows=200, cols=100, levels=2, seed=2)
        stats = RuntimeStats()
        out = observed_block(block, stats)
        assert isinstance(out, CompressedMatrix)
        assert stats.n_compressions == 1
        assert stats.n_format_conversions == 1
        np.testing.assert_array_equal(
            out.decompress().to_dense(), block.to_dense()
        )

    def test_small_block_skips_compression(self):
        block = _categorical_block(rows=20, cols=10, levels=2, seed=3)
        out = observed_block(block)
        assert isinstance(out, MatrixBlock)

    def test_sparse_recommendation_still_converts_to_csr(self):
        arr = np.zeros((300, 80))
        arr[::9, ::7] = 1.0
        stats = RuntimeStats()
        out = observed_block(MatrixBlock(arr), stats)
        assert isinstance(out, MatrixBlock) and out.is_sparse
        assert stats.n_compressions == 0


class TestOpsDispatch:
    def test_scalar_op_stays_compressed(self):
        comp = compress(_categorical_block(seed=5))
        stats = RuntimeStats()
        out = rops.binary("*", comp, 2.0, stats=stats)
        assert isinstance(out, CompressedMatrix)
        assert stats.n_compressed_ops == 1
        assert stats.n_decompressions == 0
        np.testing.assert_allclose(
            out.decompress().to_dense(), comp.decompress().to_dense() * 2.0
        )

    def test_unary_stays_compressed(self):
        comp = compress(_categorical_block(seed=6))
        stats = RuntimeStats()
        out = rops.unary("sqrt", comp, stats=stats)
        assert isinstance(out, CompressedMatrix)
        assert stats.n_compressed_ops == 1
        np.testing.assert_allclose(
            out.decompress().to_dense(),
            np.sqrt(comp.decompress().to_dense()),
        )

    def test_aggregations_run_on_dictionaries(self):
        comp = compress(_categorical_block(seed=7))
        dense = comp.decompress().to_dense()
        stats = RuntimeStats()
        assert rops.agg_unary("sum", comp, stats=stats) == pytest.approx(dense.sum())
        assert rops.agg_unary("min", comp, stats=stats) == pytest.approx(dense.min())
        assert rops.agg_unary("max", comp, stats=stats) == pytest.approx(dense.max())
        np.testing.assert_allclose(
            rops.agg_unary("sum", comp, "row", stats=stats).to_dense().ravel(),
            dense.sum(axis=1),
        )
        assert stats.n_decompressions == 0
        assert stats.n_compressed_ops == 4

    def test_unsupported_op_decompresses_and_counts(self):
        comp = compress(_categorical_block(seed=8))
        stats = RuntimeStats()
        out = rops.cumsum(comp, stats=stats)
        assert isinstance(out, MatrixBlock)
        assert stats.n_decompressions == 1
        np.testing.assert_allclose(
            out.to_dense(), np.cumsum(comp.decompress().to_dense(), axis=0)
        )

    def test_matvec_stays_dictionary_direct(self):
        comp = compress(_categorical_block(seed=9))
        v = np.random.default_rng(10).random((comp.cols, 1))
        stats = RuntimeStats()
        out = rops.matmult(comp, MatrixBlock(v), stats=stats)
        assert stats.n_decompressions == 0
        np.testing.assert_allclose(
            out.to_dense(), comp.decompress().to_dense() @ v
        )


class TestEndToEndStaysCompressed:
    """Acceptance: a sum-aggregated sparse-safe cell pipeline over a
    compressed input executes with zero decompressions."""

    @pytest.mark.parametrize("mode", ["base", "gen"])
    def test_zero_decompressions(self, mode):
        block = _categorical_block(rows=500, cols=6, levels=4, seed=11)
        comp = compress(block)
        engine = Engine(mode=mode)
        x = api.matrix(comp, name="X")
        result = api.eval(((x * x) * 2.0).sum(), engine=engine)
        assert result == pytest.approx(2.0 * np.sum(block.to_dense() ** 2))
        assert engine.stats.n_compressed_ops >= 1
        assert engine.stats.n_decompressions == 0
