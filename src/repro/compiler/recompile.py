"""Adaptive recompilation: re-optimize a program remainder at runtime.

SystemML's answer to size/sparsity estimate errors is *dynamic
recompilation* (Section 2.1): when the runtime observes metadata that
diverges from what the compiler assumed, the remaining plan is thrown
away and re-optimized with the observed values spliced in.  This module
implements that splice for lowered
:class:`~repro.compiler.program.Program` values:

* :meth:`Recompiler.recompile_remainder` takes a program paused at a
  segment boundary (``instr.meta_checks`` — see
  :func:`~repro.compiler.program.annotate_recompile_markers`) plus the
  executor's live symbol table, and rebuilds the not-yet-executed HOP
  sub-DAG (one :func:`~repro.hops.hop.topological_order` walk cut at
  materialized values) with every already-materialized value replaced
  by an *exact* leaf: a ``DataOp`` over the observed block
  (re-formatted per the shared
  :func:`~repro.runtime.matrix.recommend_format` policy) or a
  ``LiteralOp`` for scalars,
* generated fused operators are **de-fused** through
  ``SpoofOp.covered_roots`` back to the original HOPs, so the codegen
  pass re-runs plan exploration under the corrected estimates (and the
  shared plan cache keeps regenerated operators shared across
  recompiles),
* the cloned roots run back through the full compiler pipeline
  (rewrites → codegen → exec-type selection → lowering), yielding a
  fresh program whose root slots map onto the original program's
  remaining root slots.

The executor (:mod:`repro.runtime.executor`) owns the trigger policy:
it compares estimates against observed nnz at each segment boundary and
calls into this module when the divergence ratio crosses its
threshold.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CompileError
from repro.hops.hop import (
    AggBinaryOp,
    AggUnaryOp,
    BinaryOp,
    DataOp,
    Hop,
    IndexingOp,
    LiteralOp,
    NaryOp,
    ReorgOp,
    SpoofOp,
    SpoofOutOp,
    TernaryOp,
    UnaryOp,
    topological_order,
)
from repro.runtime.compressed import compress, estimate_distinct
from repro.runtime.matrix import MatrixBlock, recommend_format

_SCALAR_TYPES = (int, float, np.floating, np.integer)

#: Compressed (CLA) execution at recompile boundaries.  The distinct
#: values per column are estimated from a leading-row sample of this
#: many rows, and a block converts when its estimated compressed size
#: undercuts dense/CSR by at least the ratio.  Blocks below the cell
#: floor never compress: the conversion cost would dominate any
#: dictionary-direct win.
_COMPRESSION_MIN_RATIO = 2.0
_COMPRESSION_MIN_CELLS = 1 << 14
_COMPRESSION_SAMPLE_ROWS = 2048


def observed_block(value: MatrixBlock, stats=None):
    """An observed block in the format the shared policy recommends.

    Returns a fresh wrapper when a conversion is needed so the caller's
    block (possibly a user-provided program input) is never mutated.
    The compressed leg samples a distinct-value estimate so the shared
    policy can recommend ``'compressed'``; blocks below the cell floor
    skip the estimate entirely (conversion would cost more than it
    saves).
    """
    target = recommend_format(value.rows, value.cols, value.nnz)
    if target == "dense" and value.rows * value.cols >= _COMPRESSION_MIN_CELLS:
        # Only dense-recommended blocks pay the distinct-value sample:
        # CSR already exploits sparsity, so the scan would rarely flip
        # the recommendation there but would tax every recompile.
        distinct = estimate_distinct(value, _COMPRESSION_SAMPLE_ROWS)
        target = recommend_format(
            value.rows, value.cols, value.nnz, distinct=distinct,
            compress_ratio=_COMPRESSION_MIN_RATIO,
        )
    if target == "compressed":
        if stats is not None:
            stats.n_format_conversions += 1
            stats.n_compressions += 1
        return compress(value)
    if target == "sparse" and not value.is_sparse:
        if stats is not None:
            stats.n_format_conversions += 1
        return MatrixBlock(value.to_csr())
    if target == "dense" and value.is_sparse:
        if stats is not None:
            stats.n_format_conversions += 1
        return MatrixBlock(value.to_dense())
    return value


def clone_structural(hop: Hop, kids: list[Hop]) -> Hop:
    """One fresh hop of the same operator over cloned inputs.

    Constructors re-run ``refresh_sizes``, so nnz estimates re-derive
    from the exact observed leaves — this is where the corrected
    metadata propagates through the remaining plan.
    """
    if isinstance(hop, UnaryOp):
        return UnaryOp(hop.op, kids[0])
    if isinstance(hop, BinaryOp):
        return BinaryOp(hop.op, kids[0], kids[1])
    if isinstance(hop, TernaryOp):
        return TernaryOp(hop.op, kids[0], kids[1], kids[2])
    if isinstance(hop, AggUnaryOp):
        return AggUnaryOp(hop.agg_op, hop.direction, kids[0])
    if isinstance(hop, AggBinaryOp):
        return AggBinaryOp(kids[0], kids[1])
    if isinstance(hop, ReorgOp):
        return ReorgOp(kids[0], hop.op)
    if isinstance(hop, IndexingOp):
        return IndexingOp(kids[0], hop.rl, hop.ru, hop.cl, hop.cu)
    if isinstance(hop, NaryOp):
        return NaryOp(hop.op, kids)
    raise CompileError(f"cannot clone hop {hop.opcode()} for recompilation")


def _defuse(hop: Hop) -> Hop:
    """The original (pre-fusion) hop a generated operator stands for.

    A ``SpoofOutOp`` de-fuses to its aggregate's original root even
    when the producing operator already executed (its k x 1 output sits
    in the boundary): re-deriving the aggregate from deeper boundary
    values is wasteful but always type- and pipeline-safe, whereas a
    synthetic extractor over the materialized block would smuggle a
    ``SpoofOutOp`` into the rewrite/codegen passes, which only expect
    them post-splice.  Lowering keeps extractors unmarked, so this only
    happens when a divergence triggers *between* an operator and one of
    its extractors — a rare shape for demand-driven lowering.
    """
    if isinstance(hop, SpoofOutOp):
        spoof = hop.inputs[0]
        return spoof.covered_roots[hop.index]
    assert isinstance(hop, SpoofOp)
    return hop.covered_roots[0]


def clone_with_observations(roots: list[Hop], boundary: dict[int, int],
                            values: list, stats=None) -> list[Hop]:
    """Clone the sub-DAG under ``roots``, cutting at observed values.

    ``boundary`` maps hop id -> symbol-table slot for every hop whose
    runtime value is already materialized in ``values``; those hops
    become exact ``DataOp`` / ``LiteralOp`` leaves.  Fused operators
    between boundary cuts are de-fused so codegen can re-explore.  The
    original DAG is never mutated.
    """
    def children(hop: Hop):
        if hop.id in boundary:
            return ()
        if isinstance(hop, (SpoofOp, SpoofOutOp)):
            return (_defuse(hop),)
        return hop.inputs

    def leaf_for(hop: Hop) -> Hop:
        value = values[boundary[hop.id]]
        if isinstance(value, _SCALAR_TYPES):
            return LiteralOp(float(value))
        if isinstance(value, MatrixBlock):
            value = observed_block(value, stats)
        return DataOp(value, name=hop.name)

    memo: dict[int, Hop] = {}
    for hop in topological_order(roots, children):
        if hop.id in boundary:
            memo[hop.id] = leaf_for(hop)
        elif isinstance(hop, (SpoofOp, SpoofOutOp)):
            memo[hop.id] = memo[_defuse(hop).id]
        elif isinstance(hop, DataOp):
            memo[hop.id] = DataOp(hop.data, name=hop.name)
        elif isinstance(hop, LiteralOp):
            memo[hop.id] = LiteralOp(hop.value)
        else:
            memo[hop.id] = clone_structural(hop, [memo[i.id] for i in hop.inputs])
    return [memo[root.id] for root in roots]


class Recompiler:
    """Re-enters the compiler pipeline for a paused program remainder.

    One instance per engine, sharing the engine's
    :class:`~repro.compiler.pipeline.CompilationContext` — and through
    it the plan cache, so operators regenerated during recompilation
    stay shared with every other compilation the engine performed.
    """

    def __init__(self, context):
        self.context = context

    def recompile_remainder(self, program, start_index: int, values: list,
                            stats=None):
        """Recompile instructions ``start_index:`` with observed metadata.

        Returns ``(new_program, old_root_slots)``: the freshly compiled
        program for the remaining work, plus the original program's root
        slots its root values map onto (positionally aligned with
        ``new_program.root_slots``).
        """
        from repro.compiler.pipeline import compile_program

        remaining = program.instructions[start_index:]
        produced = {instr.output_slot for instr in remaining}
        boundary = {
            hop_id: slot for hop_id, slot in program.hop_slots.items()
            if slot not in produced and values[slot] is not None
        }
        producer_hop = {instr.output_slot: instr.hop for instr in remaining}
        positions = [
            pos for pos, slot in enumerate(program.root_slots)
            if slot in produced
        ]
        root_hops = [producer_hop[program.root_slots[pos]] for pos in positions]
        with self.context.tracer.span("recompile-clone", cat="recompile",
                                      boundary=len(boundary)):
            cloned = clone_with_observations(root_hops, boundary, values,
                                             stats)
        if self.context.config.verify_level == "full":
            # Verify the spliced sub-DAG before re-entering the
            # pipeline: a bad clone (broken de-fusion, stale boundary
            # value) is reported against the splice, not blamed on the
            # rewrite pass that trips over it later.
            from repro.analysis.verify import check_dag

            check_dag(cloned, self.context, stage="recompile-splice")
        new_program = compile_program(cloned, self.context)
        return new_program, [program.root_slots[pos] for pos in positions]
