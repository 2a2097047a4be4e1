"""HOP IR tests: shapes, nnz propagation, DAG utilities."""

import numpy as np
import pytest

from repro import api
from repro.codegen.cplan import CNode
from repro.errors import CompileError, ShapeError
from repro.hops.hop import (
    AggBinaryOp,
    AggUnaryOp,
    BinaryOp,
    DataOp,
    LiteralOp,
    ReorgOp,
    UnaryOp,
    collect_dag,
    topological_order,
)
from repro.hops.types import AggDir, AggOp
from repro.runtime.matrix import MatrixBlock


def _data(rows, cols, sparsity=1.0, seed=0):
    return DataOp(MatrixBlock.rand(rows, cols, sparsity=sparsity, seed=seed), name="X")


class TestShapes:
    def test_data_dims(self):
        hop = _data(10, 5)
        assert hop.dims == (10, 5)
        assert hop.is_matrix and not hop.is_scalar

    def test_literal_is_scalar(self):
        lit = LiteralOp(3.0)
        assert lit.is_scalar and lit.dims == (0, 0)

    def test_binary_broadcast_dims(self):
        a = _data(10, 5)
        v = _data(10, 1, seed=1)
        assert BinaryOp("+", a, v).dims == (10, 5)
        r = _data(1, 5, seed=2)
        assert BinaryOp("*", a, r).dims == (10, 5)

    def test_binary_scalar_matrix(self):
        a = _data(4, 4)
        assert BinaryOp("*", a, LiteralOp(2.0)).dims == (4, 4)
        assert BinaryOp("+", LiteralOp(1.0), LiteralOp(2.0)).is_scalar

    def test_binary_shape_error(self):
        with pytest.raises(ShapeError):
            BinaryOp("+", _data(3, 3), _data(4, 4, seed=1))

    def test_agg_dims(self):
        a = _data(10, 5)
        assert AggUnaryOp(AggOp.SUM, AggDir.FULL, a).is_scalar
        assert AggUnaryOp(AggOp.SUM, AggDir.ROW, a).dims == (10, 1)
        assert AggUnaryOp(AggOp.SUM, AggDir.COL, a).dims == (1, 5)

    def test_matmult_dims(self):
        out = AggBinaryOp(_data(10, 5), _data(5, 3, seed=1))
        assert out.dims == (10, 3)
        with pytest.raises(ShapeError):
            AggBinaryOp(_data(10, 5), _data(4, 3, seed=1))

    def test_transpose_dims(self):
        assert ReorgOp(_data(10, 5)).dims == (5, 10)

    def test_vector_predicates(self):
        assert _data(10, 1).is_col_vector
        assert _data(1, 10).is_row_vector
        assert not _data(3, 3).is_vector


class TestNnzPropagation:
    def test_data_nnz_exact(self):
        hop = _data(100, 50, sparsity=0.1)
        assert abs(hop.sparsity - 0.1) < 0.05

    def test_multiply_takes_min(self):
        a = _data(100, 100, sparsity=0.1, seed=1)
        b = _data(100, 100, sparsity=0.5, seed=2)
        out = BinaryOp("*", a, b)
        assert out.nnz == min(a.nnz, b.nnz)

    def test_add_sums_capped(self):
        a = _data(100, 100, sparsity=0.1, seed=1)
        b = _data(100, 100, sparsity=0.1, seed=2)
        out = BinaryOp("+", a, b)
        assert out.nnz <= 100 * 100
        assert out.nnz >= max(a.nnz, b.nnz)

    def test_neq_zero_keeps_sparsity(self):
        a = _data(100, 100, sparsity=0.05, seed=3)
        out = BinaryOp("!=", a, LiteralOp(0.0))
        assert out.nnz == a.nnz

    def test_sparse_safe_unary_keeps_nnz(self):
        a = _data(100, 100, sparsity=0.05, seed=4)
        assert UnaryOp("abs", a).nnz == a.nnz
        assert UnaryOp("exp", a).nnz == 100 * 100

    def test_matmult_density_estimate(self):
        a = _data(50, 40, sparsity=0.05, seed=5)
        b = _data(40, 30, sparsity=0.05, seed=6)
        out = AggBinaryOp(a, b)
        assert 0 <= out.nnz <= 50 * 30

    def test_dense_matmult_estimate_full(self):
        out = AggBinaryOp(_data(10, 10), _data(10, 10, seed=1))
        assert out.nnz == 100


class TestDagUtilities:
    def test_collect_dag_unique(self):
        x = api.matrix(np.ones((5, 5)), "X")
        expr = (x * x + x).sum()
        hops = collect_dag([expr.hop])
        assert len({h.id for h in hops}) == len(hops)

    def test_topological_order_children_first(self):
        x = api.matrix(np.ones((5, 5)), "X")
        expr = (x * 2.0 + 1.0).sum()
        order = topological_order([expr.hop])
        seen = set()
        for hop in order:
            for child in hop.inputs:
                assert child.id in seen
            seen.add(hop.id)

    def test_rewire_to(self):
        x = api.matrix(np.ones((3, 3)), "X")
        a = (x * 2.0).hop
        parent = UnaryOp("exp", a)
        replacement = UnaryOp("abs", x.hop)
        a.rewire_to(replacement)
        assert parent.inputs[0] is replacement
        assert parent in replacement.parents
        assert parent not in a.parents

    def test_multi_root_topological(self):
        x = api.matrix(np.ones((4, 4)), "X")
        s1, s2 = (x * 2.0).sum(), (x * 3.0).sum()
        order = topological_order([s1.hop, s2.hop])
        ids = [h.id for h in order]
        assert len(ids) == len(set(ids))
        assert s1.hop.id in ids and s2.hop.id in ids


class TestWalkContract:
    """The order every caller of ``topological_order`` relies on."""

    @staticmethod
    def _diamond():
        # x is listed twice by a and reached again through b.
        x = _data(4, 4)
        a = BinaryOp("*", x, x)
        b = UnaryOp("exp", x)
        return x, a, b, BinaryOp("+", a, b)

    def test_left_first_post_order(self):
        x, a, b, c = self._diamond()
        assert topological_order([c]) == [x, a, b, c]
        assert topological_order([BinaryOp("-", b, a)])[:3] == [x, b, a]

    def test_roots_in_order_each_node_once(self):
        x, a, b, c = self._diamond()
        assert topological_order([b, c, a]) == [x, b, a, c]

    def test_empty_children_make_a_leaf(self):
        x, a, b, c = self._diamond()
        cut = topological_order([c], children=lambda h: () if h is a else h.inputs)
        assert cut == [a, x, b, c]

    def test_cycle_through_children_raises(self):
        x, a, b, c = self._diamond()
        with pytest.raises(CompileError, match="cycle"):
            topological_order([c], children=lambda h: (c,) if h is x else h.inputs)

    def test_cnode_body_walks_like_its_hop_dag(self):
        x, a, b, c = self._diamond()
        cx = CNode("data", input_index=0)
        ca = CNode("b:*", [cx, cx])
        cb = CNode("u:exp", [cx])
        cc = CNode("b:+", [ca, cb])
        mirror = {x.id: cx, a.id: ca, b.id: cb, c.id: cc}
        assert topological_order([cc]) == [mirror[h.id] for h in topological_order([c])]


class TestMemoryEstimates:
    def test_output_bytes_dense(self):
        from repro.hops import memory

        hop = _data(100, 100)
        assert memory.output_bytes(hop) == 100 * 100 * 8.0

    def test_output_bytes_sparse_smaller(self):
        from repro.hops import memory

        dense = _data(1000, 1000)
        sparse = _data(1000, 1000, sparsity=0.01, seed=1)
        assert memory.output_bytes(sparse) < memory.output_bytes(dense)

    def test_scalar_bytes(self):
        from repro.hops import memory

        assert memory.output_bytes(LiteralOp(1.0)) == 8.0

    def test_flops_matmult(self):
        from repro.config import CodegenConfig
        from repro.hops import memory

        out = AggBinaryOp(_data(10, 20), _data(20, 30, seed=1))
        assert memory.compute_flops(out, CodegenConfig()) == pytest.approx(
            2.0 * 10 * 20 * 30, rel=0.01
        )

    def test_flops_weighted_unary(self):
        from repro.config import CodegenConfig

        from repro.hops import memory

        config = CodegenConfig()
        cheap = memory.compute_flops(UnaryOp("abs", _data(10, 10)), config)
        pricey = memory.compute_flops(UnaryOp("exp", _data(10, 10)), config)
        assert pricey > cheap
