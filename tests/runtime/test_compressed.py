"""CLA compressed-matrix tests: round trips, operations, fused exec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.compressed import ColumnGroup, CompressedMatrix, compress
from repro.runtime.matrix import MatrixBlock


def _categorical_block(rows=500, cols=6, levels=5, seed=0):
    """A matrix with few distinct values per column (compresses well)."""
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, levels, size=(rows, cols)).astype(np.float64)
    return MatrixBlock(arr)


class TestCompressionRoundtrip:
    def test_decompress_equals_original(self):
        block = _categorical_block()
        comp = compress(block)
        np.testing.assert_array_equal(comp.decompress().to_dense(), block.to_dense())

    def test_decompress_without_cocoding(self):
        block = _categorical_block(seed=1)
        comp = compress(block, co_code=False)
        np.testing.assert_array_equal(comp.decompress().to_dense(), block.to_dense())

    def test_compression_ratio_favorable(self):
        block = _categorical_block(rows=5000, cols=8, levels=4, seed=2)
        comp = compress(block)
        assert comp.compression_ratio > 2.0

    def test_continuous_data_still_roundtrips(self):
        rng = np.random.default_rng(3)
        block = MatrixBlock(rng.random((100, 4)))
        comp = compress(block)
        np.testing.assert_allclose(comp.decompress().to_dense(), block.to_dense())

    def test_shape_and_nnz(self):
        block = _categorical_block(rows=200, cols=3, seed=4)
        comp = compress(block)
        assert comp.shape == (200, 3)
        assert comp.nnz == block.nnz


class TestCompressedOps:
    def test_sum(self):
        block = _categorical_block(seed=5)
        comp = compress(block)
        assert np.isclose(comp.sum(), block.to_dense().sum())

    def test_sum_sq(self):
        block = _categorical_block(seed=6)
        comp = compress(block)
        assert np.isclose(comp.sum_sq(), np.sum(block.to_dense() ** 2))

    def test_col_sums(self):
        block = _categorical_block(seed=7)
        comp = compress(block)
        np.testing.assert_allclose(
            comp.col_sums().to_dense().ravel(), block.to_dense().sum(axis=0)
        )

    def test_matvec(self):
        block = _categorical_block(rows=300, cols=5, seed=8)
        comp = compress(block)
        v = np.random.default_rng(9).random(5)
        np.testing.assert_allclose(
            comp.matvec(v).to_dense().ravel(), block.to_dense() @ v
        )

    def test_iter_distinct_counts_cover_rows(self):
        block = _categorical_block(rows=250, cols=4, seed=10)
        comp = compress(block)
        total_cells = sum(counts.sum() for _, counts in comp.iter_distinct())
        assert total_cells == 250 * 4


class TestEncodings:
    def test_ole_used_for_few_distinct(self):
        arr = np.tile(np.array([0.0, 1.0, 2.0]), (300, 1))
        comp = compress(MatrixBlock(arr), co_code=False)
        assert any(g.encoding == "ole" for g in comp.groups)
        np.testing.assert_array_equal(comp.decompress().to_dense(), arr)

    def test_ddc_used_for_many_distinct(self):
        rng = np.random.default_rng(11)
        arr = rng.integers(0, 200, (300, 2)).astype(float)
        comp = compress(MatrixBlock(arr), co_code=False)
        assert all(g.encoding == "ddc" for g in comp.groups)

    def test_cocoding_merges_columns(self):
        rng = np.random.default_rng(12)
        arr = rng.integers(0, 3, (1000, 4)).astype(float)
        comp = compress(MatrixBlock(arr), co_code=True)
        assert any(len(g.cols) == 2 for g in comp.groups)
        np.testing.assert_array_equal(comp.decompress().to_dense(), arr)

    def test_group_counts(self):
        arr = np.array([[0.0], [1.0], [1.0], [2.0]])
        comp = compress(MatrixBlock(arr), co_code=False)
        (group,) = comp.groups
        counts = dict(zip(group.dictionary.ravel(), group.counts()))
        assert counts == {0.0: 1.0, 1.0: 2.0, 2.0: 1.0}


class TestFusedOverCompressed:
    def test_gen_sumsq_over_compressed(self):
        """The Figure 9 experiment path: generated operator over distinct
        dictionary values only."""
        from repro import api
        from repro.compiler.execution import Engine

        block = _categorical_block(rows=2000, cols=6, seed=13)
        comp = compress(block)
        expected = np.sum(block.to_dense() ** 2)

        engine = Engine(mode="gen")
        x = api.matrix(comp, name="X")
        result = api.eval((x * x).sum(), engine=engine)
        # sum(X^2) compiles to a fused cell operator; over the
        # compressed block it must execute on distinct values only.
        assert np.isclose(result, expected)

    @pytest.mark.parametrize("mode", ["base", "fused"])
    def test_base_and_fused_over_compressed(self, mode):
        from repro import api
        from repro.compiler.execution import Engine

        block = _categorical_block(rows=500, cols=4, seed=14)
        comp = compress(block)
        engine = Engine(mode=mode)
        x = api.matrix(comp, name="X")
        result = api.eval((x * x).sum(), engine=engine)
        assert np.isclose(result, np.sum(block.to_dense() ** 2))

    def test_cla_unary_shallow_transform(self):
        from repro import api
        from repro.compiler.execution import Engine

        block = _categorical_block(rows=300, cols=3, seed=15)
        comp = compress(block)
        x = api.matrix(comp, name="X")
        result = api.eval(api.abs_(x).sum(), engine=Engine(mode="base"))
        assert np.isclose(result, np.abs(block.to_dense()).sum())

    def test_cla_matvec_in_dag(self):
        from repro import api
        from repro.compiler.execution import Engine

        block = _categorical_block(rows=300, cols=5, seed=16)
        comp = compress(block)
        v = np.random.default_rng(17).random((5, 1))
        x = api.matrix(comp, name="X")
        result = api.eval(x @ api.matrix(v, "v"), engine=Engine(mode="base"))
        np.testing.assert_allclose(
            result.to_dense(), block.to_dense() @ v
        )


@given(
    rows=st.integers(2, 60),
    cols=st.integers(1, 6),
    levels=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=50, deadline=None)
def test_compress_roundtrip_property(rows, cols, levels, seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, levels, size=(rows, cols)).astype(np.float64)
    comp = compress(MatrixBlock(arr))
    np.testing.assert_array_equal(comp.decompress().to_dense(), arr)
    assert np.isclose(comp.sum(), arr.sum())
    assert np.isclose(comp.sum_sq(), np.sum(arr * arr))


def _implicit_zero_block(rows=240, cols=3, seed=21):
    """Zero-dominated columns: compress() encodes them OLE with an
    implicit (offset-less) zero tuple."""
    rng = np.random.default_rng(seed)
    arr = np.zeros((rows, cols))
    for j in range(cols):
        nz = rng.choice(rows, size=rows // 5, replace=False)
        arr[nz, j] = rng.integers(1, 5, size=len(nz)).astype(np.float64)
    return MatrixBlock(arr)


class TestRowSumsOverImplicitZeroOLE:
    """Regression: the seed's CLA ROW-sum iterated OLE offset lists
    without the ``rows is None`` guard, crashing on any zero-dominated
    column and dropping the implicit tuple's contribution."""

    def test_row_sums_direct(self):
        block = _implicit_zero_block()
        comp = compress(block, co_code=False)
        assert any(
            g.encoding == "ole" and g.implicit_index >= 0 for g in comp.groups
        )
        np.testing.assert_allclose(
            comp.row_sums().to_dense().ravel(), block.to_dense().sum(axis=1)
        )

    def test_row_sums_after_dictionary_shift(self):
        """X + 1 moves the implicit tuple off zero; its base term must
        reach every row, with explicit tuples contributing deltas."""
        from repro.runtime.compressed import transform_dictionaries

        block = _implicit_zero_block(seed=22)
        comp = compress(block, co_code=False)
        shifted = transform_dictionaries(comp, lambda d: d + 1.0)
        np.testing.assert_allclose(
            shifted.row_sums().to_dense().ravel(),
            (block.to_dense() + 1.0).sum(axis=1),
        )

    def test_row_sums_through_engine(self):
        """The original crash path: rowSums(X + 1) over compressed X."""
        from repro import api
        from repro.compiler.execution import Engine

        block = _implicit_zero_block(seed=23)
        comp = compress(block, co_code=False)
        x = api.matrix(comp, name="X")
        result = api.eval((x + 1.0).row_sums(), engine=Engine(mode="base"))
        np.testing.assert_allclose(
            result.to_dense().ravel(), (block.to_dense() + 1.0).sum(axis=1)
        )


class TestMultiColumnOLEGroup:
    """Hardening: co-coded (multi-column) OLE groups must scatter whole
    value tuples — not corrupt through element-wise fancy indexing."""

    def _comp(self):
        dictionary = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        offsets = [None, np.array([1, 3]), np.array([0])]
        group = ColumnGroup((0, 1), "ole", dictionary, offsets=offsets,
                            n_rows=5)
        comp = CompressedMatrix(5, 2, [group], uncompressed_bytes=5 * 2 * 8.0)
        expected = np.array(
            [[3.0, 4.0], [1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]
        )
        return comp, expected

    def test_counts_include_implicit(self):
        comp, _ = self._comp()
        np.testing.assert_array_equal(
            comp.groups[0].counts(), np.array([2.0, 2.0, 1.0])
        )

    def test_decompress(self):
        comp, expected = self._comp()
        np.testing.assert_array_equal(comp.decompress().to_dense(), expected)

    def test_matvec(self):
        comp, expected = self._comp()
        v = np.array([0.5, 2.0])
        np.testing.assert_allclose(
            comp.matvec(v).to_dense().ravel(), expected @ v
        )

    def test_row_sums(self):
        comp, expected = self._comp()
        np.testing.assert_allclose(
            comp.row_sums().to_dense().ravel(), expected.sum(axis=1)
        )


class TestPartitionAccounting:
    """Regression: per-group partition views used to claim the *full*
    matrix's uncompressed bytes each, inflating per-view ratios."""

    def test_views_share_parent_bytes(self):
        from repro.runtime.skeletons import _column_group_views

        block = _categorical_block(rows=400, cols=8, levels=5, seed=30)
        comp = compress(block, co_code=False)
        views = _column_group_views(comp, 4)
        assert views is not None and len(views) >= 2
        assert np.isclose(
            sum(v.size_bytes for v in views), comp.size_bytes
        )
        assert np.isclose(
            sum(v.uncompressed_bytes for v in views), comp.uncompressed_bytes
        )
        for view in views:
            assert view.uncompressed_bytes < comp.uncompressed_bytes
