"""Outer template: sparsity-exploiting fused outer products.

Binds to non-zero cells X_ij of a sparse driver, rows U_i and V_j of the
low-rank factors, and dense side inputs (Table 1).  Variants: left mm,
right mm, no agg, full agg.  Exploiting the sparse driver changes the
asymptotic behaviour by avoiding the huge dense UV^T intermediate
(Figure 1(d); Expression (1) of ALS-CG).
"""

from __future__ import annotations

from repro.codegen.template import CloseType, Template, TemplateType, is_cellwise
from repro.hops.hop import AggBinaryOp, AggUnaryOp, BinaryOp, Hop, ReorgOp
from repro.hops.types import AggDir, AggOp


#: The Outer template's common dimension (rank) must be small: the
#: fused operator computes one U_i . V_j dot product per non-zero.
OUTER_MAX_RANK = 256


def _is_transpose(hop: Hop) -> bool:
    return isinstance(hop, ReorgOp) and hop.op == "t"


def is_outer_product_like(hop: Hop) -> bool:
    """(m x k) @ (k x n) with small k and large m, n."""
    if not isinstance(hop, AggBinaryOp):
        return False
    left, right = hop.inputs
    rank = left.cols
    return (
        1 <= rank <= OUTER_MAX_RANK
        and hop.rows > rank
        and hop.cols > rank
        and left.is_matrix
        and right.is_matrix
    )


class OuterTemplate(Template):
    """OFMC conditions of the Outer template."""

    ttype = TemplateType.OUTER

    def open(self, hop: Hop) -> bool:
        return is_outer_product_like(hop)

    def fuse(self, hop: Hop, hop_in: Hop) -> bool:
        if _is_transpose(hop_in):
            # t(O) %*% U (left mm): the transpose bridges to a matmult.
            return isinstance(hop, AggBinaryOp) and hop.inputs[0] is hop_in
        if is_cellwise(hop):
            # Cell operations preserving the outer dims (side inputs may
            # be scalars or m x n matrices such as the sparse driver X).
            return hop.dims == hop_in.dims
        if isinstance(hop, AggUnaryOp):
            # Full aggregation (e.g. the wsloss pattern).
            return hop.direction is AggDir.FULL and hop.agg_op in (AggOp.SUM, AggOp.SUM_SQ)
        if isinstance(hop, AggBinaryOp):
            left, right = hop.inputs
            if left is hop_in:
                # O %*% V (right mm): requires a narrow second factor.
                return right.cols <= OUTER_MAX_RANK
            if right is hop_in:
                # t(Z) %*% O (left mm through an explicit transpose).
                return _is_transpose(left) and left.inputs[0].cols <= OUTER_MAX_RANK
        if _is_transpose(hop):
            return True  # bridge; validated at the consuming matmult
        return False

    def merge(self, hop: Hop, hop_in: Hop) -> bool:
        # Absorb cell plans with matching (outer) dimensions, e.g. a
        # fused (X != 0) guard.
        return hop_in.is_matrix and hop_in.dims == hop.dims and is_cellwise(hop_in)

    def close(self, hop: Hop) -> CloseType:
        # The final aggregation or matrix multiply completes the fused
        # outer-product operator; validity (existence of a
        # sparsity-exploiting operator) is checked by the explorer.
        if isinstance(hop, AggUnaryOp):
            if hop.direction is AggDir.FULL:
                return CloseType.CLOSED_VALID
            return CloseType.CLOSED_INVALID
        if isinstance(hop, AggBinaryOp) and not self.open(hop):
            return CloseType.CLOSED_VALID
        # Still open: the bare outer product (or a cell chain over it)
        # may yet be consumed by an exploiting operation; a standalone
        # operator would also be valid (no-agg variant) once a
        # sparsity-exploiting multiply is covered.
        return CloseType.OPEN_VALID


def has_sparse_driver(covered: list[Hop], outer_dims: tuple[int, int]) -> bool:
    """True if the covered DAG contains a sparsity-exploiting multiply.

    The condition of the paper's close validation: an element-wise
    multiply at the outer dimensions (its non-UV operand acts as the
    sparse driver; a dense driver still yields a valid — if less
    beneficial — operator).
    """
    for hop in covered:
        if isinstance(hop, BinaryOp) and hop.op in ("*", "!="):
            if hop.dims == outer_dims:
                return True
    return False
