"""Drivers of generated fused operators (runtime integration, Figure 4).

Each operator carries one generated function, ``genbody``, which
returns its root values
(:func:`repro.codegen.plan_cache.build_operator`).  One hand-written
driver per template owns everything around it — the data access over
dense, CSR and compressed inputs and the output epilogue:

* **Cell/MAgg** — a dense main runs ``genbody`` once on the whole
  array and reduces with ``np.sum``/``min``/``max`` over the output's
  axis (or broadcasts ``NO_AGG``); a sum root that is a product of
  same-shape inputs contracts in one ``np.einsum`` instead, and the body
  runs only if some root still needs it.  A CSR main of a sparse-safe
  plan runs ``genbody`` over batched non-zero gathers and assembles
  outputs with ``bincount``/CSR rebuilds, any other CSR main is
  densified; a compressed main of a dictionary-compatible plan runs
  ``genbody`` over each column's distinct values and dots each root
  with the counts, any other is decompressed.
* **Row** — ``genbody`` runs once on the whole row block: dense as is,
  CSR as is when the body is CSR-main-safe (the main feeds matrix
  multiplies only), otherwise densified in row chunks that are cut by
  :func:`~repro.runtime.skeletons.row_parts` and put back together by
  :func:`~repro.runtime.skeletons.combine_partials`, the same slicer and
  combiner as intra-operator and distributed partitions; compressed
  mains decompress.
  A row-aligned CSR side the body only left-multiplies stays CSR too.
  The result is shaped to the output type.
* **Outer** — ``genbody`` runs once per batch of cells: CSR drivers
  batch row ranges by non-zero count and fold the U/V/W products into
  chunk-CSR matmuls, dense drivers batch row blocks; compressed
  drivers decompress.

Batches and chunks are bounded by ``_CHUNK_CELLS``.  A generated
function that raises is a compiler bug: nothing here catches it.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.cplan import (
    Access,
    CPlan,
    OutType,
    compressed_cell_eligible,
)
from repro.codegen.template import TemplateType
from repro.errors import RuntimeExecError
from repro.runtime import skeletons
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.matrix import MatrixBlock
from repro.runtime.sideinput import SideInput

_CELL_TEMPLATES = (TemplateType.CELL, TemplateType.MAGG)

_REDUCERS = {"sum": np.sum, "min": np.min, "max": np.max}

#: Cell budget of one batch: non-zeros per Cell batch, (non-zeros x
#: rank) gather cells per Outer batch, densified cells per Row chunk —
#: it bounds the temporaries a driver materializes at a time.
_CHUNK_CELLS = 1 << 22


def execute_kernel(operator, inputs: list, stats=None):
    """Run a generated operator's driver on one partition's inputs."""
    ttype = operator.cplan.ttype
    if ttype in _CELL_TEMPLATES:
        return _execute_cell(operator, inputs)
    if ttype is TemplateType.ROW:
        return _execute_row(operator, inputs, stats)
    if ttype is TemplateType.OUTER:
        return _execute_outer(operator, inputs)
    raise RuntimeExecError(f"no driver for template {ttype}")


def _split_inputs(cplan: CPlan, inputs: list):
    main = None
    sides: list = []
    scalars: list[float] = []
    for idx, (spec, value) in enumerate(zip(cplan.inputs, inputs)):
        if idx == cplan.main_index:
            main = value
        elif spec.access is Access.SCALAR:
            scalars.append(_as_float(value))
        else:
            sides.append((spec, value))
    if main is None:
        raise RuntimeExecError(
            f"{cplan.ttype.value} operator without main input"
        )
    return main, sides, scalars


def _as_float(value) -> float:
    if isinstance(value, MatrixBlock):
        return value.as_scalar()
    return float(value)


def _csr_row_chunks(indptr, rows: int, budget_nnz: int):
    """Row ranges whose non-zero counts fit the cell budget.

    A single row larger than the budget forms its own chunk, so the
    generator always advances.
    """
    r0 = 0
    while r0 < rows:
        target = indptr[r0] + budget_nnz
        r1 = int(np.searchsorted(indptr, target, side="left"))
        r1 = min(rows, max(r1, r0 + 1))
        yield r0, r1, int(indptr[r0]), int(indptr[r1])
        r0 = r1


# ----------------------------------------------------------------------
# Cell / MultiAgg driver
# ----------------------------------------------------------------------
def _execute_cell(operator, inputs):
    cplan = operator.cplan
    main, sides, scalars = _split_inputs(cplan, inputs)
    if isinstance(main, CompressedMatrix):
        if compressed_cell_eligible(cplan):
            return _cell_compressed(operator, main, scalars)
        # No dictionary-direct form: run on the dense values.
        main = main.decompress()
    if main.is_sparse and cplan.sparse_safe:
        return _cell_sparse(operator, main, sides, scalars)
    return _cell_dense(operator, main, sides, scalars)


def _root_values(cplan, value) -> tuple:
    """``genbody``'s result as one value per root."""
    return value if len(cplan.roots) > 1 else (value,)


def _cell_compressed(operator, main: CompressedMatrix, scalars):
    """Dictionary-direct execution (Figure 9).

    Runs ``genbody`` over each column member's distinct values and dots
    each root with their counts; per-column contributions sum into the
    per-root accumulators.
    """
    cplan = operator.cplan
    accs = np.zeros(max(1, len(cplan.roots)))
    for values, counts in main.iter_distinct():
        roots = _root_values(cplan, operator.genbody(values, [], scalars))
        for k, value in enumerate(roots):
            accs[k] += float(np.dot(np.broadcast_to(value, values.shape),
                                    counts))
    if cplan.out_type is OutType.FULL_AGG:
        return float(accs[0])
    return MatrixBlock(accs.reshape(-1, 1))


def _cell_dense(operator, main: MatrixBlock, sides, scalars):
    cplan = operator.cplan
    a = main.to_dense()
    b = [SideInput(v).row_tile(0, a.shape[0]) for (_, v) in sides]
    out = cplan.out_type
    if out is OutType.FULL_AGG:
        return _cell_aggregates(operator, a, b, scalars)[0]
    if out is OutType.MULTI_AGG:
        parts = _cell_aggregates(operator, a, b, scalars)
        return MatrixBlock(np.array([[p] for p in parts]))
    value = operator.genbody(a, b, scalars)
    if out is OutType.NO_AGG:
        raw = np.broadcast_to(value, (a.shape[0], np.shape(value)[-1]))
        return MatrixBlock(np.ascontiguousarray(raw)).examine_representation()
    reduce = _REDUCERS.get(cplan.agg_op(), np.sum)
    if out is OutType.ROW_AGG:
        return MatrixBlock(reduce(np.broadcast_to(value, a.shape), axis=1,
                                  keepdims=True))
    if out is OutType.COL_AGG:
        return MatrixBlock(reduce(np.broadcast_to(value, a.shape),
                                  axis=0).reshape(1, -1))
    raise RuntimeExecError(f"bad cell out type {out}")


def _cell_aggregates(operator, a, b: list, scalars) -> list[float]:
    """Each root's full aggregate over a dense block.

    Roots with einsum operands contract in one pass over the inputs;
    the others reduce their body value, so ``genbody`` runs at most
    once, and only when some root needs it.
    """
    cplan = operator.cplan
    args = (a, *b)
    values = None
    parts = []
    for k, operands in enumerate(operator.einsum):
        if operands is not None:
            subscripts = ",".join(["ij"] * len(operands)) + "->"
            parts.append(float(np.einsum(subscripts,
                                         *(args[i] for i in operands))))
            continue
        if values is None:
            values = _root_values(cplan, operator.genbody(a, b, scalars))
        reduce = _REDUCERS.get(cplan.agg_op(k), np.sum)
        parts.append(float(reduce(values[k])))
    return parts


def _cell_sparse(operator, main: MatrixBlock, sides, scalars):
    """Sparse-safe cell execution over batched non-zero gathers.

    The body evaluates once per chunk over the flat non-zero values;
    outputs assemble through ``bincount`` / CSR rebuilds.
    """
    import scipy.sparse as sp

    cplan = operator.cplan
    csr = main.to_csr()
    rows, cols = csr.shape
    side_inputs = [SideInput(v) for (_, v) in sides]
    budget = max(1024, _CHUNK_CELLS)

    out = cplan.out_type
    accs = [None] * max(1, len(cplan.roots))
    out_data = np.empty(csr.nnz) if out is OutType.NO_AGG else None
    row_out = np.zeros((rows, 1)) if out is OutType.ROW_AGG else None
    col_acc = np.zeros(cols) if out is OutType.COL_AGG else None

    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for r0, r1, lo, hi in _csr_row_chunks(indptr, rows, budget):
        if hi == lo:
            continue
        values = data[lo:hi]
        col_idx = indices[lo:hi]
        row_idx = np.repeat(np.arange(r0, r1), np.diff(indptr[r0:r1 + 1]))
        side_vals = [s.gather(row_idx, col_idx) for s in side_inputs]
        value = operator.genbody(values, side_vals, scalars)
        if out is OutType.NO_AGG:
            out_data[lo:hi] = value
        elif out is OutType.ROW_AGG:
            row_out[r0:r1, 0] += np.bincount(
                row_idx - r0,
                weights=np.broadcast_to(value, values.shape),
                minlength=r1 - r0,
            )
        elif out is OutType.COL_AGG:
            col_acc += np.bincount(
                col_idx,
                weights=np.broadcast_to(value, values.shape),
                minlength=cols,
            )
        elif out is OutType.FULL_AGG:
            accs[0] = accs[0] if accs[0] is not None else 0.0
            accs[0] += float(np.sum(value))
        else:  # MULTI_AGG
            for k, part in enumerate(value):
                accs[k] = (accs[k] or 0.0) + float(np.sum(part))

    if out is OutType.NO_AGG:
        result = sp.csr_matrix(
            (out_data, indices.copy(), indptr.copy()), shape=csr.shape
        )
        return MatrixBlock(result).examine_representation()
    if out is OutType.ROW_AGG:
        return MatrixBlock(row_out)
    if out is OutType.COL_AGG:
        return MatrixBlock(col_acc.reshape(1, -1))
    if out is OutType.FULL_AGG:
        return float(accs[0] or 0.0)
    return MatrixBlock(np.array([[float(a or 0.0)] for a in accs]))


# ----------------------------------------------------------------------
# Row driver
# ----------------------------------------------------------------------
def _execute_row(operator, inputs, stats=None):
    cplan = operator.cplan
    main, sides, scalars = _split_inputs(cplan, inputs)
    if isinstance(main, CompressedMatrix):
        main = main.decompress()
    handles = [(spec, SideInput(value)) for spec, value in sides]

    def run(a, r0: int, r1: int):
        side_tiles = [
            handle.dense() if spec.access is Access.SIDE_FULL
            else handle.row_tile(r0, r1,
                                 keep_csr=slot in operator.csr_sides)
            for slot, (spec, handle) in enumerate(handles)
        ]
        return _row_result(cplan, a, operator.genbody(a, side_tiles, scalars))

    rows, cols = main.shape
    if not main.is_sparse:
        return run(main.to_dense(), 0, rows)
    if operator.csr_main_safe:
        # The main feeds matrix multiplies only: no densifying.
        return run(main.to_csr(), 0, rows)
    # The body reads cells of the main: densify row chunks within the
    # cell budget; they split and combine like intra-op partitions.
    if stats is not None:
        with stats.lock:
            stats.n_format_conversions += 1
    step = max(1, _CHUNK_CELLS // max(1, cols))
    bounds = [(r0, min(rows, r0 + step)) for r0 in range(0, rows, step)]
    partials = [
        run(part.to_dense(), r0, r1)
        for part, (r0, r1) in zip(skeletons.row_parts(main, bounds), bounds)
    ]
    return skeletons.combine_partials(cplan, partials)[0]


def _row_result(cplan, a, value):
    """Shape the body's value over the row block ``a`` into the output."""
    out = cplan.out_type
    if out in (OutType.NO_AGG, OutType.ROW_AGG):
        width = 1 if out is OutType.ROW_AGG else np.shape(value)[-1]
        raw = np.ascontiguousarray(np.broadcast_to(value, (a.shape[0], width)))
        return MatrixBlock(raw).examine_representation()
    if out is OutType.FULL_AGG:
        return float(value)
    if out in (OutType.COL_AGG, OutType.COL_AGG_T):
        raw = np.asarray(value)
        if raw.ndim == 1:
            raw = raw.reshape(1, -1)
        return MatrixBlock(raw).examine_representation()
    raise RuntimeExecError(f"bad row out type {out}")


# ----------------------------------------------------------------------
# Outer driver
# ----------------------------------------------------------------------
def _execute_outer(operator, inputs):
    """Outer-template execution over batched row ranges.

    Each batch evaluates ``uv`` for all its non-zeros in one einsum,
    runs the body once, and folds the W-side accumulation into a block
    matmul (chunk-CSR ``S @ W`` / ``S.T @ W`` for sparse drivers).
    """
    import scipy.sparse as sp

    cplan = operator.cplan
    driver = inputs[cplan.main_index]
    if isinstance(driver, CompressedMatrix):
        driver = driver.decompress()
    u_arr = _dense_of(inputs[cplan.u_index])
    v_arr = _dense_of(inputs[cplan.v_index])
    if cplan.v_transposed:
        v_arr = np.ascontiguousarray(v_arr.T)
    w_arr = _dense_of(inputs[cplan.w_index]) if cplan.w_index >= 0 else None

    side_handles = []
    scalars: list[float] = []
    for idx, (spec, value) in enumerate(zip(cplan.inputs, inputs)):
        if idx in (cplan.main_index, cplan.u_index, cplan.v_index,
                   cplan.w_index):
            continue
        if spec.access is Access.SCALAR:
            scalars.append(_as_float(value))
        else:
            side_handles.append(SideInput(
                value if not isinstance(value, CompressedMatrix)
                else value.decompress()
            ))

    rows, cols = driver.shape
    rank = max(1, u_arr.shape[1])
    budget = max(1024, _CHUNK_CELLS // rank)
    out_type = cplan.out_type
    genbody = operator.genbody

    if out_type is OutType.OUTER_FULL_AGG:
        acc = 0.0
    elif out_type is OutType.OUTER_RIGHT:
        acc = np.zeros((rows, w_arr.shape[1]))
    elif out_type is OutType.OUTER_LEFT:
        acc = np.zeros((cols, w_arr.shape[1]))
    else:  # OUTER_NO_AGG
        acc = None

    if driver.is_sparse:
        csr = driver.to_csr()
        indptr, indices, data = csr.indptr, csr.indices, csr.data
        out_data = (
            np.empty(csr.nnz) if out_type is OutType.OUTER_NO_AGG else None
        )
        for r0, r1, lo, hi in _csr_row_chunks(indptr, rows, budget):
            if hi == lo:
                continue
            col_idx = indices[lo:hi]
            row_idx = np.repeat(
                np.arange(r0, r1), np.diff(indptr[r0:r1 + 1])
            )
            xv = data[lo:hi]
            uv = np.einsum("ij,ij->i", u_arr[row_idx], v_arr[col_idx])
            side_vals = [s.gather(row_idx, col_idx) for s in side_handles]
            w_vals = np.broadcast_to(genbody(xv, uv, side_vals, scalars),
                                     xv.shape)
            if out_type is OutType.OUTER_FULL_AGG:
                acc += float(np.sum(w_vals))
            elif out_type is OutType.OUTER_RIGHT:
                chunk = sp.csr_matrix(
                    (np.ascontiguousarray(w_vals), col_idx,
                     indptr[r0:r1 + 1] - lo),
                    shape=(r1 - r0, cols),
                )
                acc[r0:r1] = chunk @ w_arr
            elif out_type is OutType.OUTER_LEFT:
                chunk = sp.csr_matrix(
                    (np.ascontiguousarray(w_vals), col_idx,
                     indptr[r0:r1 + 1] - lo),
                    shape=(r1 - r0, cols),
                )
                acc += chunk.T @ w_arr[r0:r1]
            else:
                out_data[lo:hi] = w_vals
        if out_type is OutType.OUTER_NO_AGG:
            result = sp.csr_matrix(
                (out_data, indices.copy(), indptr.copy()), shape=(rows, cols)
            )
            return MatrixBlock(result).examine_representation()
    else:
        arr = driver.to_dense()
        v_t = v_arr.T
        bs = max(16, budget // max(1, cols))
        out_dense = (
            np.empty((rows, cols)) if out_type is OutType.OUTER_NO_AGG
            else None
        )
        for r0 in range(0, rows, bs):
            r1 = min(rows, r0 + bs)
            xv = arr[r0:r1]
            uv = u_arr[r0:r1] @ v_t
            side_vals = [s.row_tile(r0, r1) for s in side_handles]
            w_vals = np.broadcast_to(genbody(xv, uv, side_vals, scalars),
                                     xv.shape)
            if out_type is OutType.OUTER_FULL_AGG:
                acc += float(np.sum(w_vals))
            elif out_type is OutType.OUTER_RIGHT:
                acc[r0:r1] = w_vals @ w_arr
            elif out_type is OutType.OUTER_LEFT:
                acc += w_vals.T @ w_arr[r0:r1]
            else:
                out_dense[r0:r1] = w_vals
        if out_type is OutType.OUTER_NO_AGG:
            return MatrixBlock(out_dense).examine_representation()

    if out_type is OutType.OUTER_FULL_AGG:
        return float(acc)
    return MatrixBlock(acc).examine_representation()


def _dense_of(value) -> np.ndarray:
    if isinstance(value, CompressedMatrix):
        return value.decompress().to_dense()
    return value.to_dense()
