"""Drivers of generated fused operators (runtime integration, Figure 4).

Each operator carries one generated function, ``genbody``, which
returns its root values
(:func:`repro.codegen.plan_cache.build_operator`).  One hand-written
driver per template runs it over one block and owns everything around
it — the data access over dense, CSR and compressed inputs and the
output epilogue:

* **Cell/MAgg** — a dense main runs ``genbody`` once on the whole
  array and reduces with the root's ``vector.AGG`` entry (``sum`` /
  ``min`` / ``max``) over the output's axis (or broadcasts
  ``NO_AGG``); a sum root that is a product of
  same-shape inputs contracts in one ``np.einsum`` instead, and the body
  runs only if some root still needs it.  A CSR main of a sparse-safe
  plan runs ``genbody`` once over its non-zero values and assembles
  outputs with ``bincount`` or a CSR rebuild; any other CSR main is
  densified.  A compressed main of a dictionary-compatible plan runs
  ``genbody`` over each column's distinct values and dots each root
  with the counts.
* **Row** — ``genbody`` runs once on the row block: dense as is, CSR
  as is when the body is CSR-main-safe (the main feeds matrix
  multiplies only), densified otherwise.  A row-aligned CSR side the
  body only left-multiplies stays CSR too.  The result is shaped to the
  output type.
* **Outer** — ``uv`` for every cell the driver holds (its non-zeros,
  or the whole dense block), then ``genbody`` once.  The values, held
  as a CSR over the driver's pattern or as a dense array, are the
  output, their sum, or one matmul with W (the left one through
  ``vector.vect_tmatmult``, the generated bodies' transposed product).

No driver loops over chunks or offsets into a side input.  Every
driver runs its block in one pass, so the block bounds its temporaries:
:func:`chunk_bounds` names the row ranges that keep them within one
byte budget, ``_CHUNK_BYTES`` — dense and CSR mains of every template
alike, from the operator's count of body arrays
(:func:`repro.codegen.npgen.body_temporaries`) and the block's widths.
:mod:`repro.runtime.skeletons` cuts the inputs into those chunks and
combines the chunk results, the same way it does for intra-operator and
distributed partitions.  Inputs arrive decompressed, except the main
of a dictionary-compatible plan.  A generated function that raises is a
compiler bug: nothing here catches it.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.cplan import Access, CPlan, OutType
from repro.codegen.template import TemplateType
from repro.errors import RuntimeExecError
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.matrix import MatrixBlock
from repro.runtime.sideinput import SideInput
from repro.runtime.vector import AGG, vect_tmatmult

_CELL_TEMPLATES = (TemplateType.CELL, TemplateType.MAGG)

#: Byte budget of one chunk's live temporaries, the one chunk constant:
#: :func:`chunk_bounds` sizes every driver's chunks so that the arrays
#: the body and its driver hold at once fit in it.  Picked from a 1-8 MB
#: sweep on a 2-CPU x86 VM: past about 2 MB a chunk's temporaries outgrow
#: what the allocator keeps mapped between calls, and every call
#: page-faults them in afresh.
_CHUNK_BYTES = 1 << 21


def chunk_bounds(operator, inputs: list) -> list[tuple[int, int]]:
    """The row ranges the driver runs one block each over.

    A chunk holds ``operator.temporaries`` body arrays, each as wide as
    the widest one can be, plus what the driver gathers or densifies;
    each chunk keeps that within ``_CHUNK_BYTES`` of float64 cells, at
    one row at least:

    * a CSR main the driver runs over its non-zeros (sparse-safe Cell
      and MAgg, Outer) — per non-zero, the body arrays, the repeated row
      index, one gathered value per side and, for Outer, the two
      gathered factor rows of ``rank`` cells each.  A chunk ends at the
      first row boundary a budget past its start (:func:`_nnz_bounds`);
    * any other main — per row, the body arrays times the main's
      columns (Cell, MAgg, Outer) or, for Row, times the widest input
      the body does more with than multiply: the main's columns unless
      it is CSR-main-safe, each side's columns unless it is one of
      ``operator.csr_sides``, and at least 1.  A CSR main the driver
      densifies adds its dense copy.

    A compressed main is one range.
    """
    cplan = operator.cplan
    main = inputs[cplan.main_index]
    rows, cols = main.shape
    if isinstance(main, CompressedMatrix):
        return [(0, rows)]
    cells = _CHUNK_BYTES // 8  # float64
    not_sides = (cplan.main_index, cplan.u_index, cplan.v_index,
                 cplan.w_index)
    side_cols = [
        value.cols
        for idx, (spec, value) in enumerate(zip(cplan.inputs, inputs))
        if spec.access is not Access.SCALAR and idx not in not_sides
    ]
    ttype = cplan.ttype
    if main.is_sparse and (ttype is TemplateType.OUTER or (
            ttype in _CELL_TEMPLATES and cplan.sparse_safe)):
        per_nnz = operator.temporaries + 1 + len(side_cols)
        if ttype is TemplateType.OUTER:
            per_nnz += 2 * inputs[cplan.u_index].cols
        return _nnz_bounds(main.to_csr().indptr, max(1, cells // per_nnz))
    width = cols
    if ttype is TemplateType.ROW:
        # An input the body only multiplies is never as wide as a
        # temporary: the product takes the other factor's width.
        width = max([1 if operator.csr_main_safe else cols] + [
            w for slot, w in enumerate(side_cols)
            if slot not in operator.csr_sides
        ])
    per_row = operator.temporaries * width
    if main.is_sparse and not (ttype is TemplateType.ROW
                               and operator.csr_main_safe):
        per_row += cols
    return _step_bounds(rows, max(1, cells // max(1, per_row)))


def _nnz_bounds(indptr, budget: int) -> list[tuple[int, int]]:
    """Row ranges that each end at the first row boundary ``budget``
    non-zeros past their start (or at the last row), one row at least."""
    rows = len(indptr) - 1
    bounds = []
    start = 0
    while start < rows:
        end = int(np.searchsorted(indptr, indptr[start] + budget, side="left"))
        end = min(rows, max(end, start + 1))
        bounds.append((start, end))
        start = end
    return bounds


def _step_bounds(rows: int, step: int) -> list[tuple[int, int]]:
    return [(start, min(rows, start + step))
            for start in range(0, rows, step)]


def execute_kernel(operator, inputs: list, stats=None):
    """Run a generated operator's driver on one block's inputs."""
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


# ----------------------------------------------------------------------
# Cell / MultiAgg driver
# ----------------------------------------------------------------------
def _execute_cell(operator, inputs):
    cplan = operator.cplan
    main, sides, scalars = _split_inputs(cplan, inputs)
    if isinstance(main, CompressedMatrix):
        return _cell_compressed(operator, main, scalars)
    if main.is_sparse and cplan.sparse_safe:
        return _cell_sparse(operator, main.to_csr(), sides, scalars)
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
    b = [SideInput(v).tile() for (_, v) in sides]
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
    reduce = AGG[cplan.agg_op()]
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
        reduce = AGG[cplan.agg_op(k)]
        parts.append(float(reduce(values[k])))
    return parts


def _cell_sparse(operator, csr, sides, scalars):
    """Sparse-safe cell execution over the block's non-zeros.

    The body evaluates once over the flat non-zero values with gathered
    side values, unless there are none; outputs assemble through
    ``bincount`` or a CSR rebuild.
    """
    import scipy.sparse as sp

    cplan = operator.cplan
    rows, cols = csr.shape
    row_idx = np.repeat(np.arange(rows), np.diff(csr.indptr))
    if csr.nnz:
        side_vals = [SideInput(v).gather(row_idx, csr.indices)
                     for (_, v) in sides]
        roots = _root_values(cplan, operator.genbody(csr.data, side_vals,
                                                     scalars))
    else:
        roots = (csr.data,) * max(1, len(cplan.roots))
    values = np.broadcast_to(roots[0], csr.data.shape)
    out = cplan.out_type
    if out is OutType.NO_AGG:
        result = sp.csr_matrix(
            (np.array(values, dtype=np.float64), csr.indices.copy(),
             csr.indptr.copy()), shape=csr.shape,
        )
        return MatrixBlock(result).examine_representation()
    if out is OutType.ROW_AGG:
        return MatrixBlock(np.bincount(row_idx, weights=values,
                                       minlength=rows).reshape(-1, 1))
    if out is OutType.COL_AGG:
        return MatrixBlock(np.bincount(csr.indices, weights=values,
                                       minlength=cols).reshape(1, -1))
    sums = [float(np.sum(value)) for value in roots]
    if out is OutType.FULL_AGG:
        return sums[0]
    return MatrixBlock(np.array(sums).reshape(-1, 1))


# ----------------------------------------------------------------------
# Row driver
# ----------------------------------------------------------------------
def _execute_row(operator, inputs, stats=None):
    cplan = operator.cplan
    main, sides, scalars = _split_inputs(cplan, inputs)
    if not main.is_sparse:
        a = main.to_dense()
    elif operator.csr_main_safe:
        # The main feeds matrix multiplies only: no densifying.
        a = main.to_csr()
    else:
        # The body reads cells of the main; chunk_bounds keeps the dense
        # copy within the cell budget.
        if stats is not None:
            with stats.lock:
                stats.n_format_conversions += 1
        a = main.to_dense()
    side_tiles = [
        SideInput(value).dense() if spec.access is Access.SIDE_FULL
        else SideInput(value).tile(keep_csr=slot in operator.csr_sides)
        for slot, (spec, value) in enumerate(sides)
    ]
    return _row_result(cplan, a, operator.genbody(a, side_tiles, scalars))


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
    """Outer-template execution over the driver's cells.

    ``uv`` evaluates for all the driver's non-zeros in one einsum (or
    all its cells in one matmul), the body runs once, and the W-side
    accumulation is one matmul with the values.
    """
    import scipy.sparse as sp

    cplan = operator.cplan
    driver = inputs[cplan.main_index]
    u_arr = inputs[cplan.u_index].to_dense()
    v_arr = inputs[cplan.v_index].to_dense()
    if cplan.v_transposed:
        v_arr = np.ascontiguousarray(v_arr.T)
    sides = []
    scalars: list[float] = []
    for idx, (spec, value) in enumerate(zip(cplan.inputs, inputs)):
        if idx in (cplan.main_index, cplan.u_index, cplan.v_index,
                   cplan.w_index):
            continue
        if spec.access is Access.SCALAR:
            scalars.append(_as_float(value))
        else:
            sides.append(SideInput(value))

    if driver.is_sparse:
        csr = driver.to_csr()
        flat = csr.data
        if csr.nnz:
            row_idx = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
            uv = np.einsum("ij,ij->i", np.take(u_arr, row_idx, axis=0),
                           np.take(v_arr, csr.indices, axis=0))
            side_vals = [s.gather(row_idx, csr.indices) for s in sides]
            flat = np.broadcast_to(
                operator.genbody(csr.data, uv, side_vals, scalars),
                csr.data.shape,
            )
    else:
        arr = driver.to_dense()
        side_vals = [s.tile() for s in sides]
        flat = np.broadcast_to(
            operator.genbody(arr, u_arr @ v_arr.T, side_vals, scalars),
            arr.shape,
        )
    out_type = cplan.out_type
    if out_type is OutType.OUTER_FULL_AGG:
        return float(np.sum(flat))
    values = flat
    if driver.is_sparse:
        values = sp.csr_matrix(
            (np.array(flat, dtype=np.float64), csr.indices.copy(),
             csr.indptr.copy()), shape=csr.shape,
        )
    if out_type is OutType.OUTER_RIGHT:
        values = values @ inputs[cplan.w_index].to_dense()
    elif out_type is OutType.OUTER_LEFT:
        values = vect_tmatmult(values, inputs[cplan.w_index].to_dense())
    return MatrixBlock(values).examine_representation()
