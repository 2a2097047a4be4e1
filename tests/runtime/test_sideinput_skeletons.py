"""Side-input access and skeleton edge cases."""

import numpy as np
import pytest

from repro import api
from repro.runtime.matrix import MatrixBlock
from repro.runtime.sideinput import SideInput
from tests.conftest import make_engine


class TestSideInput:
    def test_tile_dense(self, rng):
        """A dense side is its own tile: no copy, no slice."""
        block = MatrixBlock(rng.random((10, 4)))
        assert SideInput(block).tile() is block.to_dense()

    def test_tile_sparse(self):
        block = MatrixBlock.rand(20, 6, sparsity=0.2, seed=1)
        tile = SideInput(block).tile()
        assert isinstance(tile, np.ndarray) and tile.shape == (20, 6)
        np.testing.assert_array_equal(tile, block.to_dense())

    def test_tile_keeps_csr_on_request(self):
        block = MatrixBlock.rand(20, 6, sparsity=0.2, seed=1)
        assert SideInput(block).tile(keep_csr=True) is block.to_csr()
        # A dense side has nothing to keep.
        dense = SideInput(MatrixBlock(block.to_dense()))
        assert isinstance(dense.tile(keep_csr=True), np.ndarray)

    def test_row_vector_shared_across_tiles(self, rng):
        """A (1, m) row vector is the whole dense row, which broadcasts
        against a block of any height — even when it is stored as CSR
        and the body could keep it."""
        import scipy.sparse as sp

        block = MatrixBlock(rng.random((1, 6)))
        assert SideInput(block).tile() is block.to_dense()
        row = SideInput(MatrixBlock(sp.csr_matrix(rng.random((1, 6)))))
        tile = row.tile(keep_csr=True)
        assert isinstance(tile, np.ndarray) and tile.shape == (1, 6)
        np.testing.assert_array_equal(tile, row.block.to_dense())

    def test_gather_full_matrix(self, rng):
        arr = rng.random((8, 8))
        side = SideInput(MatrixBlock(arr))
        rows = np.array([0, 3, 7])
        cols = np.array([1, 5, 2])
        np.testing.assert_array_equal(side.gather(rows, cols), arr[rows, cols])

    def test_gather_broadcasts_vectors(self, rng):
        col = rng.random((8, 1))
        row = rng.random((1, 8))
        rows = np.array([0, 3, 7])
        cols = np.array([1, 5, 2])
        np.testing.assert_array_equal(
            SideInput(MatrixBlock(col)).gather(rows, cols), col[rows, 0]
        )
        np.testing.assert_array_equal(
            SideInput(MatrixBlock(row)).gather(rows, cols), row[0, cols]
        )

    def test_gather_scalar_block(self):
        side = SideInput(MatrixBlock(np.array([[4.5]])))
        out = side.gather(np.array([0, 0]), np.array([0, 0]))
        np.testing.assert_array_equal(out, [4.5, 4.5])


class TestSkeletonEdgeCases:
    """Generated operators over shapes that stress the skeletons."""

    def test_single_row_matrix(self, rng):
        xd = rng.random((1, 50))
        yd = rng.random((1, 50))

        def build():
            return [(api.matrix(xd, "X") * api.matrix(yd, "Y")).sum()]

        base = api.eval_all(build(), engine=make_engine("base"))[0]
        gen = api.eval_all(build(), engine=make_engine("gen"))[0]
        assert gen == pytest.approx(base)

    def test_single_column_aggregation(self, rng):
        xd = rng.random((500, 2))

        def build():
            x = api.matrix(xd, "X")
            return [(x * 2.0).col_sums()]

        base = api.eval_all(build(), engine=make_engine("base"))[0]
        gen = api.eval_all(build(), engine=make_engine("gen"))[0]
        np.testing.assert_allclose(gen.to_dense(), base.to_dense())

    def test_tall_skinny_row_template(self, rng):
        xd = rng.random((10_000, 3))
        vd = rng.random((3, 1))

        def build():
            x = api.matrix(xd, "X")
            return [x.T @ (x @ api.matrix(vd, "v"))]

        base = api.eval_all(build(), engine=make_engine("base"))[0]
        gen = api.eval_all(build(), engine=make_engine("gen"))[0]
        np.testing.assert_allclose(gen.to_dense(), base.to_dense(), rtol=1e-9)

    @pytest.mark.parametrize("config", [
        {"intra_op_threads": 1},
        {"intra_op_threads": 4},
    ], ids=["serial", "intra-op-4"])
    def test_row_operator_multiplies_a_csr_side_without_densifying(
        self, rng, monkeypatch, request, config
    ):
        """ALS-CG's gradient shape: the side ``X`` of ``A @ F - X @ F``
        is only ever the left operand of a multiply, so the Row driver
        hands the kernel the CSR rows (it used to build an 80 MB dense
        copy per call on the benchmark's input)."""
        import scipy.sparse as sp

        ad = rng.random((300, 40))
        xs = MatrixBlock(sp.random(300, 40, density=0.05, format="csr",
                                   random_state=1))
        fd = rng.random((40, 6))

        def build():
            a, x, f = (api.matrix(ad, "A"), api.matrix(xs, "X"),
                       api.matrix(fd, "F"))
            return [a @ f - x @ f]

        base = api.eval_all(build(), engine=make_engine("base"))[0]
        if config["intra_op_threads"] > 1:
            # 300 x 40 is below the parallelism threshold.
            request.getfixturevalue("parallel_tiny_ops")
        engine = make_engine("gen", **config)

        def no_densify(self):
            raise AssertionError("a CSR block was densified")

        with monkeypatch.context() as patch:
            patch.setattr(sp.csr_matrix, "todense", no_densify)
            patch.setattr(sp.csr_matrix, "toarray", no_densify)
            gen = api.eval_all(build(), engine=engine)[0]
        np.testing.assert_allclose(gen.to_dense(), base.to_dense(),
                                   rtol=1e-12)
        (operator,) = engine.plan_cache._cache.values()
        assert operator.csr_sides == (1,)
        assert engine.stats.n_format_conversions == 0

    def test_empty_sparse_rows(self):
        """Rows without non-zeros must not break the sparse paths."""
        import scipy.sparse as sp

        arr = np.zeros((50, 20))
        arr[5, 3] = 2.0
        arr[30, 7] = -1.0
        block = MatrixBlock(sp.csr_matrix(arr))

        def build():
            x = api.matrix(block, "S")
            return [(x * x).sum(), (x * 3.0).row_sums()]

        base = api.eval_all(build(), engine=make_engine("base"))
        gen = api.eval_all(build(), engine=make_engine("gen"))
        assert gen[0] == pytest.approx(base[0])
        np.testing.assert_allclose(gen[1].to_dense(), base[1].to_dense())

    def test_all_zero_sparse_driver_outer(self, rng):
        block = MatrixBlock.zeros(100, 80, sparse=True)
        u = rng.random((100, 4))
        v = rng.random((80, 4))

        def build():
            s = api.matrix(block, "S")
            return [
                (s * api.log(api.matrix(u, "U") @ api.matrix(v, "V").T + 1e-15)).sum()
            ]

        gen = api.eval_all(build(), engine=make_engine("gen"))[0]
        assert gen == 0.0

    def test_outer_left_matmult(self, rng):
        """t(O) %*% W via the Outer template's left-mm variant."""
        s_block = MatrixBlock.rand(200, 150, sparsity=0.05, seed=9)
        u = rng.random((200, 5))
        v = rng.random((150, 5))

        def build():
            s = api.matrix(s_block, "S")
            um, vm = api.matrix(u, "U"), api.matrix(v, "V")
            guarded = (s != 0.0) * (um @ vm.T)
            return [guarded.T @ um]

        base = api.eval_all(build(), engine=make_engine("base"))[0]
        gen = api.eval_all(build(), engine=make_engine("gen"))[0]
        np.testing.assert_allclose(gen.to_dense(), base.to_dense(), rtol=1e-8)
