"""Fused-operator execution: one split-and-combine path around the drivers.

:func:`execute_operator` is the runtime entry point of every generated
fused operator.  It normalizes the inputs (observed-sparsity format
switch, one counted decompression of every compressed input a
dictionary-direct plan does not read), decides whether the main input
splits into parts and each part into chunks, and hands each chunk to
the template's driver in :mod:`repro.runtime.npexec`, which runs the
generated code once over that block.

This module is the one place that cuts a fused operator's main input
into row ranges, resolves its side inputs per range and puts the
partials back together.  Intra-operator partitions, the drivers' chunks
(:func:`~repro.runtime.npexec.chunk_bounds`: one byte budget for the
temporaries of every driver, counted in non-zeros for CSR Cell and
Outer drivers and in rows for every other main) and the distributed
backend's partitions all go through the same three pieces:

* :func:`row_parts` — the row slicer: dense views, CSR views over the
  parent's arrays
  (:meth:`~repro.runtime.distributed.BlockedMatrix.partition` cuts
  through it too);
* :func:`spoof_plans` and :func:`partition_values` — the plan list
  (``main`` / ``slice`` / ``whole`` per input; the distributed executor
  adds ``zip`` for basic hops) and its per-range resolver, which slices
  row-aligned sides with :func:`row_parts`;
* :func:`combine_partials` — row-aligned outputs concatenate,
  aggregating outputs combine through :func:`reduce_spoof_partials`
  over the fixed-topology :func:`tree_reduce`, pairing partials with
  the one binary :func:`combine_pair`.

Chunks run serially on the thread that runs their part or partition;
an operator that fits one chunk goes to its driver unsliced.  A chunk
boundary depends on the part's shape and non-zeros alone, so the same
part chunks the same way in any thread or worker process, and an
aggregate over several chunks gets the same bits on every run.

Large operators execute *intra-operator parallel*: the main input
splits into a fixed number of parts (row ranges, or compressed
column-group views for dictionary-only plans) that run on the shared
worker pool (:mod:`repro.runtime.parallel`) with thread-local partial
results.  The partition count and the combine topology are fixed by
configuration and shape, so parallel results are deterministic
run-to-run, and a distributed run with the same partition count
computes the same bits.  A CP matrix multiply splits its left input
into row parts on the same pool (:func:`execute_matmult`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.codegen.cplan import Access, CPlan, OutType, compressed_cell_eligible
from repro.codegen.template import TemplateType
from repro.errors import RuntimeExecError
from repro.obs import trace as obs_trace
from repro.runtime import npexec
from repro.runtime import ops as rops
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.matrix import MatrixBlock, recommend_format
from repro.runtime.parallel import run_tasks
from repro.runtime.vector import BINARY

#: Output variants whose partition-wise results are row-aligned with the
#: main input — the distributed backend keeps them as a BlockedMatrix.
_ROW_PARTITIONED_OUT = frozenset({
    OutType.NO_AGG,
    OutType.ROW_AGG,
    OutType.OUTER_NO_AGG,
    OutType.OUTER_RIGHT,
})


def is_row_partitioned_output(out_type: OutType) -> bool:
    """True when partition-wise execution yields row-aligned blocks."""
    return out_type in _ROW_PARTITIONED_OUT


def partition_bounds(rows: int, n_partitions: int) -> list[tuple[int, int]]:
    """Contiguous row ranges splitting ``rows`` into ``n_partitions``.

    Shared by the local intra-op partitioner and the distributed
    backend's :class:`~repro.runtime.distributed.BlockedMatrix`, so both
    execution strategies partition (and therefore reassociate
    aggregations) identically for a given partition count.
    """
    if rows <= 0:
        return []
    n_partitions = max(1, min(n_partitions, rows))
    step = (rows + n_partitions - 1) // n_partitions
    return [(r0, min(rows, r0 + step)) for r0 in range(0, rows, step)]


# ----------------------------------------------------------------------
# Split: the row slicer, the plan list and the per-part resolver
# ----------------------------------------------------------------------
def row_parts(block: MatrixBlock, bounds) -> list[MatrixBlock]:
    """Rows ``[r0, r1)`` of ``block`` per bound.  The only row slicer of
    the runtime.

    Every part is a view: dense row slices, and CSR parts over the
    parent's ``data`` / ``indices`` with a rebased ``indptr``, which
    keep the parent's canonical flag so that no O(nnz) check runs per
    part.  Blocks are value-immutable, and a part must stay so: an
    in-place change of a part (``examine_representation``'s
    ``eliminate_zeros``) would change its parent.
    """
    if not block.is_sparse:
        data = block.to_dense()
        return [MatrixBlock(data[r0:r1]) for r0, r1 in bounds]
    csr = block.to_csr()
    parts = []
    for r0, r1 in bounds:
        s, e = csr.indptr[r0], csr.indptr[r1]
        # The arrays are set after construction: scipy's constructor
        # copies a view of less than half its base.
        part = sp.csr_matrix((r1 - r0, csr.shape[1]))
        part.indptr = csr.indptr[r0:r1 + 1] - s
        part.indices, part.data = csr.indices[s:e], csr.data[s:e]
        # A block's CSR is canonical (MatrixBlock sums duplicates), so
        # MatrixBlock(part) never canonicalizes the view in place.
        part.has_canonical_format = csr.has_canonical_format
        parts.append(MatrixBlock(part))
    return parts


def spoof_plans(cplan: CPlan, values: list, main_rows: int) -> list:
    """The plan list of a fused operator: ``("main", None)`` for the
    main input, ``("slice", block)`` for a side row-aligned with it, and
    ``("whole", value)`` for anything every part reads in full.

    Compressed blocks cannot be row-sliced, so a row-aligned compressed
    side decompresses here — otherwise every part would read rows
    ``[0, len)`` of the full side through part-local indices.  Other
    compressed sides stay compressed (the distributed executor charges
    their broadcast at the compressed size).
    """
    plans: list = []
    for idx, (spec, value) in enumerate(zip(cplan.inputs, values)):
        if idx == cplan.main_index:
            plans.append(("main", None))
            continue
        if spec.access is Access.SCALAR:
            plans.append(("whole", value))
            continue
        if isinstance(value, CompressedMatrix) and (
            value.rows == main_rows > 1
            or idx in (cplan.u_index, cplan.w_index)
        ):
            value = value.decompress()
        sliced = isinstance(value, MatrixBlock) and _row_aligned(
            cplan, idx, spec, value, main_rows
        )
        plans.append(("slice" if sliced else "whole", value))
    return plans


def _row_aligned(cplan: CPlan, idx: int, spec, value: MatrixBlock,
                 main_rows: int) -> bool:
    """Whether side input ``idx`` is read row by row with the main."""
    if cplan.ttype is TemplateType.OUTER:
        # U is row-aligned by construction; W is row-aligned only for
        # the left-multiply accumulation; V never is.
        if idx == cplan.u_index:
            return True
        if idx == cplan.w_index:
            return cplan.out_type is OutType.OUTER_LEFT
        return idx != cplan.v_index and value.rows == main_rows > 1
    return spec.access is Access.SIDE_ROW and value.rows == main_rows > 1


def partition_values(plans: list, main_parts: list, bounds: list):
    """Yield, per part, the value each plan entry resolves to: the
    part's block of the ``main`` or a co-partitioned ``zip`` input, its
    row range of a ``slice`` input (through :func:`row_parts`), a
    ``whole`` input as is."""
    sliced = {
        idx: row_parts(value, bounds)
        for idx, (mode, value) in enumerate(plans) if mode == "slice"
    }
    for p in range(len(bounds)):
        yield [
            main_parts[p] if mode == "main"
            else value.blocks[p] if mode == "zip"
            else sliced[idx][p] if mode == "slice"
            else value
            for idx, (mode, value) in enumerate(plans)
        ]


# ----------------------------------------------------------------------
# Combine: concatenation or the fixed-topology tree-reduce
# ----------------------------------------------------------------------
def tree_reduce(partials: list, combine) -> tuple[object, int]:
    """Pairwise tree-reduction with a *fixed* topology.

    Partial ``i`` always combines with partial ``i+1`` per level, so a
    given partition count yields bit-identical results run-to-run — the
    property the determinism tests pin down.  Returns ``(result,
    levels)``; the local intra-op combiner and the distributed executor
    (which additionally charges network traffic per level) both reduce
    through this one topology.
    """
    parts = list(partials)
    if not parts:
        raise RuntimeExecError("tree_reduce over zero partials")
    levels = 0
    while len(parts) > 1:
        merged = [
            combine(parts[i], parts[i + 1])
            for i in range(0, len(parts) - 1, 2)
        ]
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
        levels += 1
    return parts[0], levels


def combine_pair(a, b, agg: str):
    """Combine two aggregation partials under ``agg`` with the table's
    ``+`` (sum), ``min`` or ``max``: two floats into a float,
    MatrixBlocks into a MatrixBlock.  The one binary combine of
    fused-operator and basic-hop partials alike."""
    if agg not in ("sum", "min", "max"):
        raise RuntimeExecError(f"unknown aggregation '{agg}'")
    func = BINARY["+" if agg == "sum" else agg]
    if isinstance(a, MatrixBlock) or isinstance(b, MatrixBlock):
        return MatrixBlock(func(_dense(a), _dense(b)))
    return float(func(a, b))


def _dense(value):
    return value.to_dense() if isinstance(value, MatrixBlock) else value


def reduce_spoof_partials(cplan: CPlan, partials: list):
    """Combine per-part partials of an aggregating fused operator
    through :func:`tree_reduce`.  Returns the combined value plus the
    number of reduction levels."""
    out = cplan.out_type
    if out is OutType.MULTI_AGG:
        # k x 1 partials; each root row combines under its own agg op.
        def combine_multi(a, b):
            rows = zip(a.to_dense()[:, 0], b.to_dense()[:, 0])
            return MatrixBlock(np.array([
                [combine_pair(x, y, cplan.agg_op(k))]
                for k, (x, y) in enumerate(rows)
            ]))

        return tree_reduce(partials, combine_multi)
    if out in (OutType.FULL_AGG, OutType.OUTER_FULL_AGG):
        partials = [float(p) for p in partials]
    elif out not in (OutType.COL_AGG, OutType.COL_AGG_T, OutType.OUTER_LEFT):
        raise RuntimeExecError(f"non-aggregating out type {out}")
    agg = cplan.agg_op()
    return tree_reduce(partials, lambda a, b: combine_pair(a, b, agg))


def concat_rows(blocks: list) -> MatrixBlock:
    """Stack row blocks into one: dense when every block is dense,
    CSR otherwise."""
    if all(not b.is_sparse for b in blocks):
        return MatrixBlock(np.concatenate([b.to_dense() for b in blocks],
                                          axis=0))
    return MatrixBlock(sp.vstack([b.to_csr() for b in blocks], format="csr"))


def combine_partials(cplan: CPlan, partials: list) -> tuple[object, int]:
    """Put per-part results back together: row-aligned outputs
    concatenate (zero levels), aggregating outputs combine through
    :func:`reduce_spoof_partials`.  Returns ``(result, levels)``."""
    if is_row_partitioned_output(cplan.out_type):
        blocks = [
            p if isinstance(p, MatrixBlock) else MatrixBlock(p)
            for p in partials
        ]
        return concat_rows(blocks).examine_representation(), 0
    return reduce_spoof_partials(cplan, partials)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_operator(operator, inputs: list, config, stats=None,
                     parts: int = 1):
    """Execute a generated fused operator on runtime values.

    ``inputs`` parallels ``operator.cplan.inputs``: MatrixBlock /
    CompressedMatrix for matrix bindings, floats for scalars.

    With ``parts`` (``Instruction.parts``, decided at lowering) of two or
    more, the main input splits into that many parts, which run on the
    shared worker pool with thread-local partial results that
    :func:`combine_partials` puts back together.  Each part, or the
    whole operator, runs through :func:`_execute_chunks`.  The
    distributed backend's per-partition calls keep one part, so
    partitions never nest another fan-out.
    """
    cplan = operator.cplan
    if stats is not None:
        stats.record_spoof(cplan.ttype.value)
    inputs = _consult_observed_sparsity(cplan, inputs, config, stats)
    tracer = stats.tracer if stats is not None else obs_trace.NULL_TRACER
    if tracer.level >= obs_trace.INSTRUCTIONS:
        # Enrich the executor's enclosing instruction span (same
        # thread) with what the profiler attributes per operator.
        tracer.annotate(template=cplan.ttype.value,
                        fmt=_main_input_format(cplan, inputs))
    # Only a dictionary-compatible plan runs over a compressed main
    # (distinct values only); every other compressed input decompresses
    # once here, explicitly and counted, so the split path and the
    # drivers see dense and CSR blocks.
    inputs = list(inputs)
    for idx, (spec, value) in enumerate(zip(cplan.inputs, inputs)):
        if spec.access is Access.SCALAR or not isinstance(
                value, CompressedMatrix):
            continue
        if idx == cplan.main_index and compressed_cell_eligible(cplan):
            if stats is not None:
                stats.n_compressed_ops += 1
            continue
        if stats is not None:
            stats.n_decompressions += 1
        inputs[idx] = value.decompress()
    if stats is not None:
        stats.n_compiled_runs += 1
    with tracer.span(f"op:{cplan.ttype.value}", cat="operator",
                     level=obs_trace.FULL):
        part_inputs = _intra_op_parts(cplan, inputs, parts)
        if part_inputs is not None:
            return _execute_parts(operator, part_inputs, stats)
        return _execute_chunks(operator, inputs, stats)


def _main_input_format(cplan: CPlan, inputs: list) -> str:
    """Storage format of the operator's main input."""
    if not 0 <= cplan.main_index < len(inputs):
        return "scalar"
    main = inputs[cplan.main_index]
    if isinstance(main, CompressedMatrix):
        return "compressed"
    if isinstance(main, MatrixBlock):
        return "csr" if main.is_sparse else "dense"
    return "scalar"


def _consult_observed_sparsity(cplan: CPlan, inputs: list, config,
                               stats=None) -> list:
    """Observed-sparsity format consult for sparse-safe plans.

    A dense-stored main input whose *actual* density falls below the
    shared threshold switches to CSR before partitioning/execution, so
    sparse-safe skeletons (and the intra-op partitioner's CSR row-range
    slicing) run over non-zeros even when the compiler's estimate —
    or the producer's storage choice — said dense.  Gated by
    ``adaptive_recompile`` so estimate-frozen baselines stay frozen.
    """
    if not (config.adaptive_recompile and cplan.sparse_safe):
        return inputs
    if not 0 <= cplan.main_index < len(inputs):
        return inputs
    main = inputs[cplan.main_index]
    if not isinstance(main, MatrixBlock) or main.is_sparse:
        return inputs
    if recommend_format(main.rows, main.cols, main.nnz) != "sparse":
        return inputs
    if stats is not None:
        stats.n_format_conversions += 1
    inputs = list(inputs)
    inputs[cplan.main_index] = MatrixBlock(main.to_csr())
    return inputs


def _intra_op_parts(cplan: CPlan, inputs: list, n_parts: int):
    """Per-part input lists, or None when the operator runs as one part.

    ``n_parts`` was fixed at lowering from the main input's dims, never
    by the tokens the thread budget later grants, so a given program
    always produces the same parts and combine topology.  A main that
    is still compressed belongs to a dictionary-only plan
    (:func:`execute_operator` decompressed every other).
    """
    if n_parts < 2:
        return None
    main_index = cplan.main_index
    main = inputs[main_index]
    if isinstance(main, CompressedMatrix):
        # Dictionary-only plans read no side input: each part swaps in
        # a view over a share of the column groups.
        views = _column_group_views(main, n_parts)
        if views is None:
            return None
        return [[view if idx == main_index else value
                 for idx, value in enumerate(inputs)] for view in views]
    bounds = partition_bounds(main.rows, n_parts)
    plans = spoof_plans(cplan, inputs, main.rows)
    return list(partition_values(plans, row_parts(main, bounds), bounds))


def _column_group_views(main: CompressedMatrix, n_parts: int):
    """Split a compressed main input by column groups, or None when it
    has fewer than two.

    Valid only for :func:`~repro.codegen.cplan.compressed_cell_eligible`
    plans: each part sums its groups' dictionary contributions
    independently, and the per-group sums add up to the full result
    exactly as the serial group loop does.
    """
    groups = main.groups
    if len(groups) < 2:
        return None
    views = []
    for g0, g1 in partition_bounds(len(groups), min(n_parts, len(groups))):
        # Each view carries its column-share of the parent's
        # uncompressed bytes, so per-view compression ratios (and any
        # size-based accounting) stay proportional instead of every
        # view claiming the full matrix.
        share = sum(len(g.cols) for g in groups[g0:g1]) / max(main.cols, 1)
        views.append(CompressedMatrix(
            main.rows, main.cols, groups[g0:g1],
            main.uncompressed_bytes * share,
        ))
    return views


def _execute_parts(operator, part_inputs: list, stats):
    tasks = [
        (lambda values: lambda: _execute_chunks(operator, values, stats))(pv)
        for pv in part_inputs
    ]
    partials, workers = run_tasks(tasks)
    result, levels = combine_partials(operator.cplan, partials)
    _count_parts(stats, len(part_inputs), levels, workers)
    return result


def _count_parts(stats, n_parts: int, levels: int, workers: int) -> None:
    if stats is not None:
        stats.n_intra_op_parallel += 1
        stats.n_intra_op_partitions += n_parts
        stats.intra_op_combine_levels += levels
        stats.intra_op_max_threads = max(stats.intra_op_max_threads, workers)


def execute_matmult(a, b, stats=None, parts: int = 1) -> MatrixBlock:
    """A CP matrix multiply ``a %*% b`` (:func:`repro.runtime.ops.matmult`)
    over ``parts`` row parts of ``a`` (``Instruction.parts``, decided at
    lowering).

    The parts run on the shared worker pool like a fused operator's and
    their products concatenate.  An output row depends on its row of
    ``a`` alone, so the bits are those of the unsplit product.  A
    compressed operand runs as one part: its kernels count into
    ``stats``, which parts on several threads must not share.
    """
    if parts < 2 or isinstance(a, CompressedMatrix) or isinstance(
            b, CompressedMatrix):
        return rops.matmult(a, b, stats=stats)
    bounds = partition_bounds(a.rows, parts)
    tasks = [
        (lambda part: lambda: rops.matmult(part, b))(part)
        for part in row_parts(a, bounds)
    ]
    partials, workers = run_tasks(tasks)
    _count_parts(stats, len(bounds), 0, workers)
    return concat_rows(partials).examine_representation()


def _execute_chunks(operator, inputs: list, stats):
    """Run the driver once per chunk of
    :func:`~repro.runtime.npexec.chunk_bounds`, serially on the calling
    thread, and put the chunk results back together like parts; a
    single chunk goes to the driver as is."""
    bounds = npexec.chunk_bounds(operator, inputs)
    if len(bounds) < 2:
        return npexec.execute_kernel(operator, inputs, stats)
    cplan = operator.cplan
    main = inputs[cplan.main_index]
    plans = spoof_plans(cplan, inputs, main.rows)
    partials = [
        npexec.execute_kernel(operator, values, stats)
        for values in partition_values(plans, row_parts(main, bounds), bounds)
    ]
    return combine_partials(cplan, partials)[0]
