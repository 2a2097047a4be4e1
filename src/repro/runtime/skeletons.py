"""Fused-operator execution: partitioning and combining around the drivers.

:func:`execute_operator` is the runtime entry point of every generated
fused operator.  It normalizes the inputs (observed-sparsity format
switch, compressed side inputs), decides whether the main input splits
into partitions, and hands each partition to the template's driver in
:mod:`repro.runtime.npexec`, which owns the data access over dense,
CSR and compressed values and calls the generated code.

Large operators execute *intra-operator parallel*: the main input
splits into a fixed number of row partitions (dense slices, CSR row
ranges, compressed column-group views) that run on the shared worker
pool (:mod:`repro.runtime.parallel`) with thread-local partial
results.  Row-aligned outputs concatenate; aggregating outputs combine
through :func:`reduce_spoof_partials` over the fixed-topology
:func:`tree_reduce` — the same combine path the simulated distributed
backend charges network traffic for — so parallel results are
deterministic run-to-run.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.cplan import Access, CPlan, OutType, compressed_cell_eligible
from repro.codegen.template import TemplateType
from repro.errors import RuntimeExecError
from repro.obs import trace as obs_trace
from repro.runtime import npexec
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.matrix import MatrixBlock, recommend_format
from repro.runtime.parallel import run_tasks

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


def tree_reduce(partials: list, combine) -> tuple[object, int]:
    """Pairwise tree-reduction with a *fixed* topology.

    Partial ``i`` always combines with partial ``i+1`` per level, so a
    given partition count yields bit-identical results run-to-run — the
    property the determinism tests pin down.  Returns ``(result,
    levels)``; both the local intra-op combiner and the simulated
    distributed backend (which additionally charges network traffic per
    level) reduce through this one topology.
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


def reduce_spoof_partials(cplan: CPlan, partials: list, tree_reduce):
    """Combine per-partition partials of an aggregating fused operator.

    ``tree_reduce(parts, combine) -> (result, levels)`` is supplied by
    the caller: the local intra-op path passes :func:`tree_reduce`
    directly, the distributed backend wraps it to charge the combine
    topology's network traffic.  Returns the combined value plus the
    number of reduction levels.
    """
    out = cplan.out_type
    if out in (OutType.FULL_AGG, OutType.OUTER_FULL_AGG):
        agg = cplan.agg_ops[0] if cplan.agg_ops else "sum"
        return tree_reduce(
            [float(p) for p in partials],
            lambda a, b: float(_combine(np.float64(a), b, agg)),
        )
    if out in (OutType.COL_AGG, OutType.COL_AGG_T, OutType.OUTER_LEFT):
        agg = cplan.agg_ops[0] if cplan.agg_ops else "sum"

        def combine_blocks(a, b):
            return MatrixBlock(_combine(a.to_dense(), b.to_dense(), agg))

        return tree_reduce(partials, combine_blocks)
    if out is OutType.MULTI_AGG:
        # k x 1 partials; each root row combines under its own agg op.
        def combine_multi(a, b):
            a_arr, b_arr = a.to_dense(), b.to_dense()
            merged = np.empty_like(a_arr)
            for k in range(a_arr.shape[0]):
                agg = cplan.agg_ops[k] if k < len(cplan.agg_ops) else "sum"
                merged[k] = _combine(a_arr[k], b_arr[k], agg)
            return MatrixBlock(merged)

        return tree_reduce(partials, combine_multi)
    raise RuntimeExecError(f"non-aggregating out type {out}")


def execute_operator(operator, inputs: list, config, stats=None,
                     allow_parallel: bool = True):
    """Execute a generated fused operator on runtime values.

    ``inputs`` parallels ``operator.cplan.inputs``: MatrixBlock /
    CompressedMatrix for matrix bindings, floats for scalars.

    When the main input is large enough and ``intra_op_threads`` allows,
    it is split into row partitions (dense slices, CSR row ranges,
    compressed column-group views) executed on the shared worker pool
    with thread-local partial results, which combine through the fixed
    :func:`tree_reduce` topology.  ``allow_parallel=False`` keeps one
    partition — the distributed backend sets it for its per-partition
    calls so partitions never nest another fan-out.
    """
    cplan = operator.cplan
    if stats is not None:
        stats.record_spoof(cplan.ttype.value)
    inputs = _consult_observed_sparsity(cplan, inputs, config, stats)
    if stats is not None and isinstance(
        inputs[cplan.main_index] if 0 <= cplan.main_index < len(inputs) else None,
        CompressedMatrix,
    ):
        # Dictionary-compatible plans run over distinct values only;
        # everything else decompresses inside the driver.
        if compressed_cell_eligible(cplan):
            stats.n_compressed_ops += 1
        else:
            stats.n_decompressions += 1
    # Side inputs are consumed through dense/CSR tile access in every
    # driver (only the main input has a dictionary-direct path), so
    # compressed sides decompress once here, explicitly and counted.
    for idx, (spec, value) in enumerate(zip(cplan.inputs, inputs)):
        if idx == cplan.main_index or spec.access is Access.SCALAR:
            continue
        if isinstance(value, CompressedMatrix):
            if stats is not None:
                stats.n_decompressions += 1
            inputs = list(inputs)
            inputs[idx] = value.decompress()
    if stats is not None:
        stats.n_compiled_runs += 1
    tracer = stats.tracer if stats is not None else obs_trace.NULL_TRACER
    if tracer.level >= obs_trace.INSTRUCTIONS:
        # Enrich the executor's enclosing instruction span (same
        # thread) with what the profiler attributes per operator.
        tracer.annotate(template=cplan.ttype.value,
                        fmt=_main_input_format(cplan, inputs))
    with tracer.span(f"op:{cplan.ttype.value}", cat="operator",
                     level=obs_trace.FULL):
        if allow_parallel and config.effective_intra_op_threads() > 1:
            plan = _plan_intra_op(cplan, inputs, config)
            if plan is not None:
                return _execute_intra_op(operator, plan, stats)
        return npexec.execute_kernel(operator, inputs, stats)


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


# ----------------------------------------------------------------------
# Intra-operator parallel execution
# ----------------------------------------------------------------------
def _plan_intra_op(cplan: CPlan, inputs: list, config):
    """Per-partition input lists, or None when serial execution wins.

    The partition count is ``config.effective_intra_op_threads()`` —
    fixed by configuration, never by the tokens the thread budget later
    grants — so a given (config, input shape) pair always produces the
    same partitioning and combine topology.
    """
    n_parts = config.effective_intra_op_threads()
    main_index = cplan.main_index
    if main_index < 0 or main_index >= len(inputs):
        return None
    main = inputs[main_index]
    if isinstance(main, CompressedMatrix):
        if main.rows * main.cols < config.intra_op_min_cells:
            return None
        if compressed_cell_eligible(cplan):
            return _plan_group_partitions(main, inputs, main_index, n_parts)
        if main.rows < 2 * n_parts:
            return None  # gate on metadata before materializing anything
        # Dictionary-only execution does not apply: decompress once here
        # (instead of once per partition) and row-partition the result.
        inputs = list(inputs)
        inputs[main_index] = main.decompress()
        main = inputs[main_index]
    if not isinstance(main, MatrixBlock):
        return None
    rows, cols = main.shape
    if rows * cols < config.intra_op_min_cells or rows < 2 * n_parts:
        return None
    bounds = partition_bounds(rows, n_parts)
    if len(bounds) < 2:
        return None
    inputs = decompress_side_inputs(cplan, inputs, rows)
    if main.is_sparse:
        csr = main.to_csr()
        main_parts = [MatrixBlock(csr[r0:r1]) for r0, r1 in bounds]
    else:
        arr = main.to_dense()
        main_parts = [MatrixBlock(arr[r0:r1]) for r0, r1 in bounds]
    sliceable = sliceable_spoof_inputs(cplan, inputs, rows)
    part_inputs = []
    for p, (r0, r1) in enumerate(bounds):
        values = []
        for idx, value in enumerate(inputs):
            if idx == main_index:
                values.append(main_parts[p])
            elif idx in sliceable:
                values.append(_row_slice(value, r0, r1))
            else:
                values.append(value)
        part_inputs.append(values)
    return part_inputs


def _plan_group_partitions(main: CompressedMatrix, inputs: list,
                           main_index: int, n_parts: int):
    """Split a compressed main input by column groups.

    Valid only for :func:`~repro.codegen.cplan.compressed_cell_eligible`
    plans (sum-aggregated sparse-safe cell plans without side inputs):
    each partition sums its groups' dictionary contributions
    independently, and the per-group sums add up to the full result
    exactly as the serial group loop does.
    """
    groups = main.groups
    if len(groups) < 2:
        return None
    n_parts = min(n_parts, len(groups))
    bounds = partition_bounds(len(groups), n_parts)
    part_inputs = []
    for g0, g1 in bounds:
        # Each view carries its column-share of the parent's
        # uncompressed bytes, so per-view compression ratios (and any
        # size-based accounting) stay proportional instead of every
        # view claiming the full matrix.
        share = sum(len(g.cols) for g in groups[g0:g1]) / max(main.cols, 1)
        view = CompressedMatrix(
            main.rows, main.cols, groups[g0:g1],
            main.uncompressed_bytes * share,
        )
        values = list(inputs)
        values[main_index] = view
        part_inputs.append(values)
    return part_inputs


def _row_slice(block: MatrixBlock, r0: int, r1: int) -> MatrixBlock:
    if block.is_sparse:
        return MatrixBlock(block.to_csr()[r0:r1])
    return MatrixBlock(block.to_dense()[r0:r1])


def _execute_intra_op(operator, part_inputs: list, stats):
    cplan = operator.cplan
    tasks = [
        (lambda values: lambda: npexec.execute_kernel(
            operator, values, stats))(pv)
        for pv in part_inputs
    ]
    partials, workers = run_tasks(tasks)
    if is_row_partitioned_output(cplan.out_type):
        result = _concat_row_partials(partials)
        levels = 0
    else:
        result, levels = reduce_spoof_partials(cplan, partials, tree_reduce)
    if stats is not None:
        stats.n_intra_op_parallel += 1
        stats.n_intra_op_partitions += len(part_inputs)
        stats.intra_op_combine_levels += levels
        stats.intra_op_max_threads = max(stats.intra_op_max_threads, workers)
    return result


def _concat_row_partials(partials: list) -> MatrixBlock:
    """Stack row-aligned partition outputs back into one block."""
    import scipy.sparse as sp

    blocks = [
        p if isinstance(p, MatrixBlock) else MatrixBlock(p) for p in partials
    ]
    if all(not b.is_sparse for b in blocks):
        stacked = np.concatenate([b.to_dense() for b in blocks], axis=0)
        return MatrixBlock(stacked).examine_representation()
    stacked = sp.vstack([b.to_csr() for b in blocks], format="csr")
    return MatrixBlock(stacked).examine_representation()


def decompress_side_inputs(cplan: CPlan, values: list, main_rows: int,
                           row_aligned_only: bool = False) -> list:
    """Decompress compressed side inputs ahead of partitioning.

    Compressed blocks cannot be row-sliced, so a *row-aligned*
    compressed side MUST decompress before partition-wise execution —
    otherwise :func:`sliceable_spoof_inputs` skips it and every
    partition reads rows ``[0, len)`` of the full side through
    partition-local indices.  The local partitioner decompresses every
    compressed side once up front (``row_aligned_only=False``); the
    distributed path keeps non-aligned sides compressed
    (``row_aligned_only=True``) since it charges broadcast traffic for
    the compressed representation.
    """
    normalized = list(values)
    for idx, (spec, value) in enumerate(zip(cplan.inputs, normalized)):
        if idx == cplan.main_index or spec.access is Access.SCALAR:
            continue
        if not isinstance(value, CompressedMatrix):
            continue
        row_aligned = (
            value.rows == main_rows > 1
            or idx in (cplan.u_index, cplan.w_index)
        )
        if row_aligned or not row_aligned_only:
            normalized[idx] = value.decompress()
    return normalized


def sliceable_spoof_inputs(cplan: CPlan, values: list,
                           main_rows: int) -> set[int]:
    """Indices of side inputs that are row-aligned with the main input
    and therefore sliced to each partition's row range.  Shared by the
    local intra-op partitioner and the distributed backend."""
    sliceable: set[int] = set()
    for idx, (spec, value) in enumerate(zip(cplan.inputs, values)):
        if idx == cplan.main_index or spec.access is Access.SCALAR:
            continue
        if not isinstance(value, MatrixBlock):
            continue
        if cplan.ttype is TemplateType.OUTER:
            # U is row-aligned by construction; W is row-aligned only
            # for the left-multiply accumulation; V never is.
            if idx == cplan.u_index:
                sliceable.add(idx)
            elif idx == cplan.w_index:
                if cplan.out_type is OutType.OUTER_LEFT:
                    sliceable.add(idx)
            elif idx != cplan.v_index and value.rows == main_rows > 1:
                sliceable.add(idx)
        elif (spec.access is Access.SIDE_ROW
              and value.rows == main_rows > 1):
            sliceable.add(idx)
    return sliceable


def _combine(acc, value, agg: str):
    if agg == "sum":
        return acc + value
    if agg == "min":
        return np.minimum(acc, value)
    if agg == "max":
        return np.maximum(acc, value)
    raise RuntimeExecError(f"unknown aggregation '{agg}'")
