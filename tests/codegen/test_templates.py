"""Direct tests of the OFMC conditions per template (Table 1)."""

import numpy as np
import pytest

from repro.codegen import tpl_outer, tpl_row
from repro.codegen.template import CloseType, TemplateType, is_cellwise
from repro.codegen.tpl_cell import CellTemplate
from repro.codegen.tpl_magg import MultiAggTemplate, is_full_agg
from repro.codegen.tpl_outer import OuterTemplate, is_outer_product_like
from repro.codegen.tpl_row import RowTemplate, row_dim
from repro.config import CodegenConfig
from repro.hops.hop import (
    AggBinaryOp,
    AggUnaryOp,
    BinaryOp,
    DataOp,
    IndexingOp,
    LiteralOp,
    ReorgOp,
    UnaryOp,
)
from repro.hops.types import AggDir, AggOp
from repro.runtime.matrix import MatrixBlock


def _mat(rows, cols, sparsity=1.0, seed=0):
    return DataOp(MatrixBlock.rand(rows, cols, sparsity=sparsity, seed=seed), "M")


@pytest.fixture
def config():
    return CodegenConfig()


class TestCellTemplate:
    def test_opens_at_cellwise_ops(self, config):
        tpl = CellTemplate(config)
        x, y = _mat(10, 5), _mat(10, 5, seed=1)
        assert tpl.open(BinaryOp("*", x, y))
        assert tpl.open(UnaryOp("exp", x))
        assert not tpl.open(AggBinaryOp(_mat(10, 5), _mat(5, 3)))
        assert not tpl.open(ReorgOp(x))

    def test_does_not_open_at_scalar_ops(self, config):
        tpl = CellTemplate(config)
        assert not tpl.open(BinaryOp("+", LiteralOp(1.0), LiteralOp(2.0)))

    def test_fuses_aligned_consumers(self, config):
        tpl = CellTemplate(config)
        x, y = _mat(10, 5), _mat(10, 5, seed=1)
        mult = BinaryOp("*", x, y)
        assert tpl.fuse(BinaryOp("+", mult, y), mult)
        agg = AggUnaryOp(AggOp.SUM, AggDir.FULL, mult)
        assert tpl.fuse(agg, mult)

    def test_does_not_fuse_mean(self, config):
        tpl = CellTemplate(config)
        x = _mat(10, 5)
        mult = BinaryOp("*", x, x)
        agg = AggUnaryOp(AggOp.MEAN, AggDir.FULL, mult)
        assert not tpl.fuse(agg, mult)

    def test_any_aggregation_closes(self, config):
        tpl = CellTemplate(config)
        x = _mat(10, 5)
        for direction in (AggDir.FULL, AggDir.ROW, AggDir.COL):
            agg = AggUnaryOp(AggOp.SUM, direction, x)
            assert tpl.close(agg) is CloseType.CLOSED_VALID
        assert tpl.close(BinaryOp("*", x, x)) is CloseType.OPEN_VALID


class TestRowTemplate:
    def test_opens_at_matrix_vector(self, config):
        tpl = RowTemplate(config)
        mv = AggBinaryOp(_mat(20, 8), _mat(8, 1, seed=1))
        assert tpl.open(mv)

    def test_opens_at_transposed_matmult(self, config):
        tpl = RowTemplate(config)
        x = _mat(20, 8)
        w = _mat(20, 3, seed=1)
        assert tpl.open(AggBinaryOp(ReorgOp(x), w))

    def test_rejects_wide_second_factor(self, config, monkeypatch):
        monkeypatch.setattr(tpl_row, "_BLOCKSIZE", 4)
        tpl = RowTemplate(config)
        mm = AggBinaryOp(_mat(20, 8), _mat(8, 6, seed=1))
        assert not tpl.open(mm)

    def test_opens_at_row_aggregates_and_rix(self, config):
        tpl = RowTemplate(config)
        x = _mat(20, 8)
        assert tpl.open(AggUnaryOp(AggOp.SUM, AggDir.ROW, x))
        assert tpl.open(AggUnaryOp(AggOp.SUM, AggDir.COL, x))
        assert tpl.open(IndexingOp(x, 0, 20, 0, 4))
        # partial-row indexing does not open a row operator
        assert not tpl.open(IndexingOp(x, 2, 10, 0, 4))

    def test_vector_input_does_not_open(self, config):
        tpl = RowTemplate(config)
        v = _mat(20, 1)
        assert not tpl.open(AggUnaryOp(AggOp.SUM, AggDir.ROW, v))

    def test_mean_only_within_a_row(self, config):
        """Column and full partials of row blocks cannot combine a mean."""
        tpl = RowTemplate(config)
        x = _mat(20, 8)
        mv = AggBinaryOp(x, _mat(8, 1, seed=1))
        assert tpl.open(AggUnaryOp(AggOp.MEAN, AggDir.ROW, x))
        assert not tpl.open(AggUnaryOp(AggOp.MEAN, AggDir.COL, x))
        assert tpl.fuse(AggUnaryOp(AggOp.MEAN, AggDir.ROW, mv), mv)
        assert not tpl.fuse(AggUnaryOp(AggOp.MEAN, AggDir.FULL, mv), mv)
        assert not tpl.fuse(AggUnaryOp(AggOp.MEAN, AggDir.COL, mv), mv)
        assert tpl.fuse(AggUnaryOp(AggOp.SUM, AggDir.FULL, mv), mv)

    def test_close_semantics(self, config):
        tpl = RowTemplate(config)
        x = _mat(20, 8)
        col_agg = AggUnaryOp(AggOp.SUM, AggDir.COL, x)
        row_agg = AggUnaryOp(AggOp.SUM, AggDir.ROW, x)
        assert tpl.close(col_agg) is CloseType.CLOSED_VALID
        assert tpl.close(row_agg) is CloseType.OPEN_VALID
        tmm = AggBinaryOp(ReorgOp(x), _mat(20, 3, seed=2))
        assert tpl.close(tmm) is CloseType.CLOSED_VALID
        assert tpl.close(ReorgOp(x)) is CloseType.OPEN_INVALID

    def test_transpose_only_fuses_into_left_matmult(self, config):
        tpl = RowTemplate(config)
        x = _mat(20, 8)
        t_hop = ReorgOp(x)
        good = AggBinaryOp(t_hop, _mat(20, 3, seed=1))
        assert tpl.fuse(good, t_hop)
        bad = BinaryOp("*", t_hop, _mat(8, 20, seed=2))
        assert not tpl.fuse(bad, t_hop)

    def test_row_dim(self, config):
        x = _mat(20, 8)
        assert row_dim(AggBinaryOp(x, _mat(8, 1, seed=1))) == 20
        assert row_dim(AggBinaryOp(ReorgOp(x), _mat(20, 3, seed=2))) == 20
        assert row_dim(AggUnaryOp(AggOp.SUM, AggDir.ROW, x)) == 20


class TestMultiAggTemplate:
    def test_opens_only_at_full_aggregates(self, config):
        tpl = MultiAggTemplate(config)
        x = _mat(10, 5)
        assert tpl.open(AggUnaryOp(AggOp.SUM, AggDir.FULL, x))
        assert tpl.open(AggUnaryOp(AggOp.MAX, AggDir.FULL, x))
        assert not tpl.open(AggUnaryOp(AggOp.SUM, AggDir.ROW, x))
        assert not tpl.open(AggUnaryOp(AggOp.MEAN, AggDir.FULL, x))
        assert not tpl.open(BinaryOp("*", x, x))

    def test_never_fuses_upward(self, config):
        tpl = MultiAggTemplate(config)
        x = _mat(10, 5)
        agg = AggUnaryOp(AggOp.SUM, AggDir.FULL, x)
        assert not tpl.fuse(BinaryOp("+", agg, LiteralOp(1.0)), agg)

    def test_is_full_agg_helper(self):
        x = _mat(10, 5)
        assert is_full_agg(AggUnaryOp(AggOp.SUM_SQ, AggDir.FULL, x))
        assert not is_full_agg(AggUnaryOp(AggOp.SUM, AggDir.COL, x))


class TestOuterTemplate:
    def test_outer_product_like_detection(self):
        small_rank = AggBinaryOp(_mat(100, 4), ReorgOp(_mat(80, 4, seed=1)))
        assert is_outer_product_like(small_rank)
        mv = AggBinaryOp(_mat(100, 50), _mat(50, 1, seed=2))
        assert not is_outer_product_like(mv)
        narrow_out = AggBinaryOp(_mat(100, 50), _mat(50, 3, seed=3))
        assert not is_outer_product_like(narrow_out)

    def test_rank_bound(self, config, monkeypatch):
        monkeypatch.setattr(tpl_outer, "OUTER_MAX_RANK", 8)
        tpl = OuterTemplate(config)
        big_rank = AggBinaryOp(_mat(100, 16), ReorgOp(_mat(80, 16, seed=1)))
        assert not tpl.open(big_rank)

    def test_fuses_cell_chain_and_full_agg(self, config):
        tpl = OuterTemplate(config)
        mm = AggBinaryOp(_mat(100, 4), ReorgOp(_mat(80, 4, seed=1)))
        log = UnaryOp("log", mm)
        assert tpl.fuse(log, mm)
        mult = BinaryOp("*", _mat(100, 80, sparsity=0.05, seed=2), log)
        assert tpl.fuse(mult, log)
        agg = AggUnaryOp(AggOp.SUM, AggDir.FULL, mult)
        assert tpl.fuse(agg, mult)

    def test_fuses_right_matmult(self, config):
        tpl = OuterTemplate(config)
        mm = AggBinaryOp(_mat(100, 4), ReorgOp(_mat(80, 4, seed=1)))
        guard = BinaryOp("*", _mat(100, 80, sparsity=0.05, seed=2), mm)
        right = AggBinaryOp(guard, _mat(80, 4, seed=3))
        assert tpl.fuse(right, guard)

    def test_close_at_aggregation(self, config):
        tpl = OuterTemplate(config)
        x = _mat(100, 80)
        assert tpl.close(AggUnaryOp(AggOp.SUM, AggDir.FULL, x)) is CloseType.CLOSED_VALID
        assert (
            tpl.close(AggUnaryOp(AggOp.SUM, AggDir.ROW, x))
            is CloseType.CLOSED_INVALID
        )


class TestHelpers:
    def test_is_cellwise(self):
        x = _mat(5, 5)
        assert is_cellwise(BinaryOp("+", x, x))
        assert is_cellwise(UnaryOp("sigmoid", x))
        assert not is_cellwise(UnaryOp("cumsum", x))
        assert not is_cellwise(AggBinaryOp(x, _mat(5, 2)))
        assert not is_cellwise(BinaryOp("+", LiteralOp(1.0), LiteralOp(2.0)))
