"""Row template: fused row-wise operations over a main input's rows.

Binds to sparse/dense rows X_i with side inputs and scalars.  Variants
(Table 1): no agg, row agg, col agg, full agg, col agg transposed, and
the B1 variants for row-wise multiplies with narrow matrices.  The Row
template exploits temporal row locality (e.g. ``t(X) %*% (X %*% v)`` in
a single pass, Figure 1(b)).
"""

from __future__ import annotations

from repro.codegen.template import CloseType, Template, TemplateType, is_cellwise
from repro.hops.hop import AggBinaryOp, AggUnaryOp, Hop, IndexingOp, ReorgOp
from repro.hops.types import AggDir, AggOp

#: Block size of blocked (distributed) matrices, a SystemML system
#: property: the Row template requires ncol(X) <= blocksize for the
#: second factor of its matrix multiplies so distributed operations
#: see one column block.
_BLOCKSIZE = 1024


def _is_transpose(hop: Hop) -> bool:
    return isinstance(hop, ReorgOp) and hop.op == "t"


def _row_agg(hop: AggUnaryOp) -> bool:
    """Whether a Row operator computes the aggregation ``hop``: every
    one, but a mean only within a row.  Column and full partials of row
    blocks combine by ``+`` / ``min`` / ``max``, and a mean would need a
    count rescale."""
    return hop.agg_op is not AggOp.MEAN or hop.direction is AggDir.ROW


def row_dim(hop: Hop) -> int:
    """Number of rows iterated by a row operator rooted at ``hop``."""
    if isinstance(hop, AggBinaryOp):
        left = hop.inputs[0]
        if _is_transpose(left):
            return left.inputs[0].rows
        return left.rows
    if _is_transpose(hop):
        return hop.inputs[0].rows
    if isinstance(hop, (AggUnaryOp, IndexingOp)):
        return hop.inputs[0].rows
    return hop.rows


class RowTemplate(Template):
    """OFMC conditions of the Row template."""

    ttype = TemplateType.ROW

    def open(self, hop: Hop) -> bool:
        if isinstance(hop, AggBinaryOp):
            left, right = hop.inputs
            if _is_transpose(left):
                # t(X) %*% W: row-wise outer accumulation over X/W rows.
                base = left.inputs[0]
                return base.is_matrix and base.rows == right.rows and base.cols >= 2
            # X %*% v (matrix-vector) or X %*% V with a narrow V.
            if not left.is_matrix or left.cols < 2 or left.is_vector:
                return False
            return right.cols <= _BLOCKSIZE
        if isinstance(hop, AggUnaryOp):
            hop_in = hop.inputs[0]
            return (
                _row_agg(hop)
                and hop_in.is_matrix
                and hop_in.cols >= 2
                and hop.direction in (AggDir.ROW, AggDir.COL)
            )
        if _is_transpose(hop):
            # Entry point reading the transposed input's rows, only
            # useful under a t(X) %*% W consumer (e.g. Fig 5, group 10).
            hop_in = hop.inputs[0]
            return hop_in.is_matrix and hop_in.cols >= 2
        if isinstance(hop, IndexingOp):
            # Column indexing within row operators (P[, 1:k] in Fig 5).
            hop_in = hop.inputs[0]
            return (
                hop_in.is_matrix
                and hop.rl == 0
                and hop.ru == hop_in.rows
                and hop_in.cols >= 2
            )
        return False

    def fuse(self, hop: Hop, hop_in: Hop) -> bool:
        # A transpose intermediate may only be consumed by a matmult as
        # its left operand (t(Z) %*% Q accumulation).
        if _is_transpose(hop_in):
            return (
                isinstance(hop, AggBinaryOp)
                and hop.inputs[0] is hop_in
                and hop.inputs[1].rows == hop_in.inputs[0].rows
            )
        if is_cellwise(hop):
            return hop.rows == hop_in.rows
        if isinstance(hop, AggUnaryOp):
            return _row_agg(hop) and hop_in.is_matrix
        if isinstance(hop, AggBinaryOp):
            left, right = hop.inputs
            if left is hop_in:
                # intermediate %*% W with a narrow, materialized W.
                return right.cols <= _BLOCKSIZE
            if right is hop_in:
                # t(Z) %*% intermediate: Z rows must align.
                return _is_transpose(left) and left.inputs[0].rows == hop_in.rows
        if _is_transpose(hop):
            # Transposing a fused row intermediate: valid as a bridge to
            # a subsequent matmult (checked again at that matmult).
            return hop_in.is_matrix and hop_in.rows >= 2
        return False

    def merge(self, hop: Hop, hop_in: Hop) -> bool:
        if not hop_in.is_matrix:
            return False
        if _is_transpose(hop_in):
            return isinstance(hop, AggBinaryOp) and hop.inputs[0] is hop_in
        return hop_in.rows == row_dim(hop)

    def close(self, hop: Hop) -> CloseType:
        if isinstance(hop, AggUnaryOp) and hop.direction in (AggDir.COL, AggDir.FULL):
            # Only column-wise or full aggregations close a Row template.
            return CloseType.CLOSED_VALID
        if isinstance(hop, AggBinaryOp) and _is_transpose(hop.inputs[0]):
            # t(Z) %*% Q is a column aggregation over rows.
            return CloseType.CLOSED_VALID
        if _is_transpose(hop):
            # A bare transpose is not a complete row operator.
            return CloseType.OPEN_INVALID
        return CloseType.OPEN_VALID
