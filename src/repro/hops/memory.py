"""Memory estimates and FLOP counts per HOP.

Memory estimates drive execution-type selection (local vs distributed),
exactly as in SystemML's compiler (Section 2.1).  FLOP counts feed the
analytical cost model of Section 4.3.
"""

from __future__ import annotations

from repro.config import CodegenConfig
from repro.hops.hop import AggBinaryOp, DataOp, Hop
from repro.hops.types import OpKind
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.matrix import recommend_format


def output_bytes(hop: Hop) -> float:
    """Estimated in-memory size of the hop's output.

    The sparse (CSR) estimate charges 8B values plus 4B column indices
    per non-zero, and a ``rows + 1``-entry (4B) row-pointer array —
    column indices scale with nnz, indptr with rows.  A ``DataOp``
    bound to a compressed matrix reports the *actual* compressed
    footprint — that is what the serving admission controller holds
    resident, and the multiplier CLA buys in admitted concurrency.
    """
    if hop.is_scalar:
        return 8.0
    if isinstance(hop, DataOp) and isinstance(hop.data, CompressedMatrix):
        return hop.data.size_bytes
    if recommend_format(hop.rows, hop.cols, hop.nnz) == "sparse":
        return hop.nnz * 12.0 + (hop.rows + 1) * 4.0
    return hop.cells * 8.0


def operation_bytes(hop: Hop) -> float:
    """Memory footprint estimate: inputs + output resident at once."""
    total = output_bytes(hop)
    for hop_in in hop.inputs:
        total += output_bytes(hop_in)
    return total


def compute_flops(hop: Hop, config: CodegenConfig) -> float:
    """Estimated floating point operations to evaluate ``hop`` once.

    Sparse-input operations are scaled by the processed fraction; the
    per-op weights of expensive cell functions come from the config.
    """
    kind = hop.kind
    if kind in (OpKind.DATA, OpKind.LITERAL):
        return 0.0
    if kind is OpKind.AGG_BINARY:
        assert isinstance(hop, AggBinaryOp)
        left, right = hop.inputs
        density = min(left.sparsity, 1.0)
        return 2.0 * left.rows * left.cols * right.cols * max(density, 1e-12)
    if kind is OpKind.AGG_UNARY:
        hop_in = hop.inputs[0]
        return max(hop_in.cells * min(hop_in.sparsity, 1.0), 1.0)
    if kind in (OpKind.REORG, OpKind.INDEX, OpKind.NARY):
        return max(hop.cells, 1.0)
    # Cell-wise unary/binary/ternary.
    weight = 1.0
    op = getattr(hop, "op", None)
    if op is not None:
        weight = config.op_flop_weights.get(op, 1.0)
    cells = hop.cells if hop.is_matrix else 1
    return max(cells, 1.0) * weight
