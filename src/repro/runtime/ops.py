"""Basic operator kernels: the interpreter's runtime library.

These kernels implement single high-level operators over
:class:`~repro.runtime.matrix.MatrixBlock` values, fully materializing
their outputs.  The "Base" engine of the experiments executes every HOP
with exactly one kernel call, which is what operator fusion eliminates.

Every cell function and dense reduction is an entry of the one
cell-function table, :data:`~repro.runtime.vector.UNARY` /
:data:`~repro.runtime.vector.BINARY` / :data:`~repro.runtime.vector.AGG`
— the same objects generated operators call, so the base engine and
the fused operators compute each cell op with one function; the
kernels here own only the format dispatch around it.

All kernels accept scalars (Python floats) where SystemML would accept
scalar operands.  Kernels dispatch per operator and input format —
sparse-sparse and sparse-dense element-wise, aggregation, reorg, and
indexing paths keep CSR inputs CSR whenever the output stays sparse —
and every matrix result leaves through :func:`_output`, which applies
the shared :func:`~repro.runtime.matrix.recommend_format` policy.

COMPRESSED is the third input format: cell-wise ops and scalar ops
transform the per-group dictionaries only, aggregations combine
dictionary values with counts, and matrix-vector multiplies
pre-aggregate per group.  Compressed results leave through
:func:`_output_compressed` (the stay-compressed policy point); ops
without a dictionary-direct form decompress explicitly through
:func:`_decompress`, which counts ``n_decompressions``.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.errors import RuntimeExecError, ShapeError
from repro.hops.types import SPARSE_SAFE_BINARY, SPARSE_SAFE_UNARY, OpKind
from repro.runtime.compressed import CompressedMatrix, transform_dictionaries
from repro.runtime.matrix import MatrixBlock
from repro.runtime.vector import AGG, BINARY, UNARY

Value = Union[MatrixBlock, CompressedMatrix, float]

# Same-shape sparse-sparse kernels: ops with f(0, 0) == 0, so the output
# pattern is contained in the union of the operands' patterns and scipy
# computes over stored entries only (no densification of either side).
_SPARSE_SPARSE_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a.multiply(b),
    "min": lambda a, b: a.minimum(b),
    "max": lambda a, b: a.maximum(b),
}


def _output(result) -> MatrixBlock:
    """Single exit point for matrix results: wrap and store in the
    representation the shared format policy recommends."""
    return MatrixBlock(result).examine_representation()


def _output_compressed(comp: CompressedMatrix, stats=None):
    """Single exit point for compressed results: the stay-compressed
    policy.

    A dictionary-direct result stays compressed while it is still
    smaller than its dense form (dictionary transforms preserve the
    layout byte-for-byte, so chained cell pipelines never decompress);
    a result that no longer pays for its encoding leaves as a regular
    block under the shared format policy, counted as a decompression.
    """
    if comp.size_bytes <= comp.rows * comp.cols * 8.0:
        return comp
    if stats is not None:
        stats.n_decompressions += 1
    return comp.decompress().examine_representation()


def _decompress(value: Value, stats=None) -> Value:
    """Explicit decompression point for ops without a compressed form."""
    if isinstance(value, CompressedMatrix):
        if stats is not None:
            stats.n_decompressions += 1
        return value.decompress()
    return value


def _count_compressed_op(stats) -> None:
    if stats is not None:
        stats.n_compressed_ops += 1


def _is_scalar(value: Value) -> bool:
    return not isinstance(value, (MatrixBlock, CompressedMatrix))


def _broadcast_dense(arr: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Broadcast a vector operand against a matrix shape (R semantics)."""
    rows, cols = shape
    if arr.shape == shape:
        return arr
    if arr.shape == (rows, 1) or arr.shape == (1, cols) or arr.shape == (1, 1):
        return np.broadcast_to(arr, shape)
    raise ShapeError(f"cannot broadcast {arr.shape} to {shape}")


def unary(op: str, x: Value, stats=None) -> Value:
    """Apply a cell-wise unary function."""
    func = UNARY.get(op)
    if func is None:
        raise RuntimeExecError(f"unknown unary op '{op}'")
    if _is_scalar(x):
        return float(func(np.float64(x)))
    if isinstance(x, CompressedMatrix):
        # Dictionary-only transform: exact for every cell function
        # because even OLE's implicit tuple has a dictionary entry.
        _count_compressed_op(stats)
        transform = lambda d: np.asarray(func(d), dtype=np.float64)
        return _output_compressed(transform_dictionaries(x, transform), stats)
    if x.is_sparse and op in SPARSE_SAFE_UNARY:
        csr = x.to_csr().copy()
        csr.data = func(csr.data)
        return _output(csr)
    out = func(x.to_dense())
    return _output(out)


def cumsum(x: Value, axis: int = 0, stats=None) -> Value:
    """Column-wise cumulative sum (SystemML ``cumsum``)."""
    if _is_scalar(x):
        return float(x)
    x = _decompress(x, stats)  # positional, no dictionary-direct form
    out = np.cumsum(x.to_dense(), axis=axis)
    return MatrixBlock(out)


def binary(op: str, a: Value, b: Value, stats=None) -> Value:
    """Apply a cell-wise binary function with R-style broadcasting."""
    func = BINARY.get(op)
    if func is None:
        raise RuntimeExecError(f"unknown binary op '{op}'")
    if isinstance(a, CompressedMatrix) or isinstance(b, CompressedMatrix):
        return _binary_compressed(op, func, a, b, stats)
    if _is_scalar(a) and _is_scalar(b):
        return float(func(np.float64(a), np.float64(b)))
    if _is_scalar(a) or _is_scalar(b):
        return _binary_matrix_scalar(op, func, a, b)
    return _binary_matrix_matrix(op, func, a, b)


def _binary_compressed(op, func, a: Value, b: Value, stats=None) -> Value:
    """Compressed element-wise dispatch.

    Matrix (+) scalar transforms the dictionaries only — the exact CLA
    fast path, valid for every binary function because the implicit OLE
    tuple is represented in the dictionary.  Matrix (+) matrix has no
    dictionary form (row alignment breaks the distinct-value grouping),
    so compressed operands decompress explicitly.
    """
    comp, other = (a, b) if isinstance(a, CompressedMatrix) else (b, a)
    if _is_scalar(other):
        scalar = np.float64(other)
        swapped = comp is b
        apply_ = (lambda d: func(scalar, d)) if swapped else (lambda d: func(d, scalar))
        _count_compressed_op(stats)
        transform = lambda d: np.asarray(apply_(d), dtype=np.float64)
        return _output_compressed(transform_dictionaries(comp, transform), stats)
    return binary(op, _decompress(a, stats), _decompress(b, stats), stats)


def _binary_matrix_scalar(op, func, a: Value, b: Value) -> MatrixBlock:
    mat, scalar, swapped = (a, b, False) if isinstance(a, MatrixBlock) else (b, a, True)
    scalar = np.float64(scalar)
    apply_ = (lambda x: func(scalar, x)) if swapped else (lambda x: func(x, scalar))
    # Sparse-safe iff f(0, s) == 0 (or f(s, 0) == 0 when swapped).
    if mat.is_sparse and float(apply_(np.float64(0.0))) == 0.0:
        csr = mat.to_csr().copy()
        csr.data = apply_(csr.data)
        return _output(csr)
    out = apply_(mat.to_dense())
    return _output(np.asarray(out, dtype=np.float64))


def _binary_matrix_matrix(op, func, a: MatrixBlock, b: MatrixBlock) -> MatrixBlock:
    """Format dispatch for matrix (+) matrix element-wise kernels.

    Priority order: same-shape sparse-sparse kernels (both operands stay
    CSR), sparse-dense multiply over the sparse pattern, sparse-vector
    broadcast scaling, then the dense fallback.
    """
    out_shape = _binary_out_shape(a.shape, b.shape)
    same_shape = a.shape == b.shape
    if same_shape and a.is_sparse and b.is_sparse and op in _SPARSE_SPARSE_BINARY:
        result = _SPARSE_SPARSE_BINARY[op](a.to_csr(), b.to_csr())
        return _output(sp.csr_matrix(result))
    if op in SPARSE_SAFE_BINARY and same_shape and (a.is_sparse or b.is_sparse):
        # One sparse operand: multiply over its stored pattern without
        # converting the dense operand to CSR.
        mat, other = (a, b) if a.is_sparse else (b, a)
        result = mat.to_csr().multiply(other.to_dense())
        return _output(sp.csr_matrix(result))
    if op == "*" and (a.is_sparse or b.is_sparse) and not same_shape:
        # Sparse matrix times broadcast vector stays sparse.
        mat, vec = (a, b) if not a.is_vector() or a.shape == out_shape else (b, a)
        if mat.shape == out_shape and mat.is_sparse:
            dense_vec = vec.to_dense()
            if dense_vec.shape == (out_shape[0], 1):
                scaled = sp.diags(dense_vec.ravel()) @ mat.to_csr()
                return _output(sp.csr_matrix(scaled))
            if dense_vec.shape == (1, out_shape[1]):
                scaled = mat.to_csr() @ sp.diags(dense_vec.ravel())
                return _output(sp.csr_matrix(scaled))
    lhs = _broadcast_dense(a.to_dense(), out_shape)
    rhs = _broadcast_dense(b.to_dense(), out_shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = func(lhs, rhs)
    return _output(np.asarray(out, dtype=np.float64))


def _binary_out_shape(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    if a == b:
        return a
    rows = max(a[0], b[0])
    cols = max(a[1], b[1])
    for shape in (a, b):
        if shape not in ((rows, cols), (rows, 1), (1, cols), (1, 1)):
            raise ShapeError(f"incompatible shapes {a} and {b}")
    return (rows, cols)


def ternary(op: str, a: Value, b: Value, c: Value, stats=None) -> Value:
    """Ternary cell ops: '+*' (a + b*c), '-*' (a - b*c), 'ifelse'."""
    if op == "+*":
        return binary("+", a, binary("*", b, c, stats), stats)
    if op == "-*":
        return binary("-", a, binary("*", b, c, stats), stats)
    if op == "ifelse":
        if _is_scalar(a) and _is_scalar(b) and _is_scalar(c):
            return float(b) if a != 0 else float(c)
        a, b, c = (_decompress(v, stats) for v in (a, b, c))
        shapes = [v.shape for v in (a, b, c) if isinstance(v, MatrixBlock)]
        out_shape = shapes[0]
        for shape in shapes[1:]:
            out_shape = _binary_out_shape(out_shape, shape)

        def dense_of(v):
            if _is_scalar(v):
                return np.full(out_shape, float(v))
            return _broadcast_dense(v.to_dense(), out_shape)

        out = np.where(dense_of(a) != 0, dense_of(b), dense_of(c))
        return _output(out)
    raise RuntimeExecError(f"unknown ternary op '{op}'")


def agg_unary(op: str, x: Value, direction: str = "full", stats=None) -> Value:
    """Aggregations: sum/sumsq/min/max/mean over full/row/col direction.

    Row direction aggregates within each row (output n x 1), col within
    each column (output 1 x m), matching SystemML's rowSums/colSums.
    """
    if _is_scalar(x):
        value = float(x)
        return value * value if op == "sumsq" else value
    if isinstance(x, CompressedMatrix):
        result = _agg_compressed(op, x, direction)
        if result is not None:
            _count_compressed_op(stats)
            return result
        x = _decompress(x, stats)
    axis = {"full": None, "row": 1, "col": 0}[direction]
    if x.is_sparse and op in {"min", "max"}:
        # scipy accounts for implicit zeros, so CSR inputs reduce
        # without densification.
        csr = x.to_csr()
        result = csr.min(axis=axis) if op == "min" else csr.max(axis=axis)
        if axis is None:
            return float(result)
        out = np.asarray(result.todense(), dtype=np.float64)
        return MatrixBlock(out.reshape(-1, 1) if axis == 1 else out.reshape(1, -1))
    if x.is_sparse and op in {"sum", "sumsq", "mean"}:
        csr = x.to_csr()
        target = csr.multiply(csr) if op == "sumsq" else csr
        result = target.sum(axis=axis)
        if op == "mean":
            denom = x.rows * x.cols if axis is None else (x.cols if axis == 1 else x.rows)
            result = result / denom
        if axis is None:
            return float(result)
        out = np.asarray(result, dtype=np.float64)
        return MatrixBlock(out.reshape(-1, 1) if axis == 1 else out.reshape(1, -1))
    if op == "sumsq":
        result = AGG["sum"](UNARY["pow2"](x.to_dense()), axis=axis)
    elif op in AGG:
        result = AGG[op](x.to_dense(), axis=axis)
    else:
        raise RuntimeExecError(f"unknown aggregation '{op}'")
    if axis is None:
        return float(result)
    out = np.asarray(result, dtype=np.float64)
    return MatrixBlock(out.reshape(-1, 1) if axis == 1 else out.reshape(1, -1))


def _agg_compressed(op: str, x: CompressedMatrix, direction: str):
    """Dictionary-direct aggregations, or None for the decompress path.

    Sum-like aggregates are count-weighted dictionary reductions;
    full/col min and max read dictionaries alone (every tuple occurs at
    least once by construction).  Row-wise min/max would need row
    alignment across groups, so they fall back.
    """
    cells = x.rows * x.cols
    if direction == "full":
        if op == "sum":
            return x.sum()
        if op == "sumsq":
            return x.sum_sq()
        if op == "mean":
            return x.sum() / max(cells, 1)
        if op in ("min", "max"):
            reducer = AGG[op]
            return float(reducer([reducer(g.dictionary) for g in x.groups]))
    elif direction == "col":
        if op == "sum":
            return x.col_sums()
        if op == "sumsq":
            return x.col_sums_sq()
        if op == "mean":
            return MatrixBlock(x.col_sums().to_dense() / max(x.rows, 1))
        if op in ("min", "max"):
            return x.col_reduce(AGG[op])
    elif direction == "row":
        if op == "sum":
            return x.row_sums()
        if op == "mean":
            return MatrixBlock(x.row_sums().to_dense() / max(x.cols, 1))
    return None


def matmult(a: "MatrixBlock | CompressedMatrix",
            b: "MatrixBlock | CompressedMatrix", stats=None) -> MatrixBlock:
    """Matrix multiplication with sparse dispatch."""
    if a.cols != b.rows:
        raise ShapeError(f"matmult shapes {a.shape} x {b.shape}")
    if isinstance(a, CompressedMatrix) and isinstance(b, MatrixBlock) and b.cols == 1:
        # X @ v pre-aggregates each group dictionary against v's slice
        # and scatters by codes/offsets (the CLA cache-conscious path).
        _count_compressed_op(stats)
        return a.matvec(b.to_dense())
    a = _decompress(a, stats)
    b = _decompress(b, stats)
    if a.is_sparse and b.is_sparse:
        out = a.to_csr() @ b.to_csr()
        return _output(sp.csr_matrix(out))
    if a.is_sparse:
        out = a.to_csr() @ b.to_dense()
        return _output(np.asarray(out))
    if b.is_sparse:
        out = (b.to_csr().T @ a.to_dense().T).T
        return _output(np.ascontiguousarray(out))
    return _output(a.to_dense() @ b.to_dense())


def transpose(x: Value, stats=None) -> Value:
    """Matrix transpose."""
    if _is_scalar(x):
        return float(x)
    x = _decompress(x, stats)  # reorg breaks column-group layout
    if x.is_sparse:
        return MatrixBlock(x.to_csr().T.tocsr())
    return MatrixBlock(np.ascontiguousarray(x.to_dense().T))


def rix(x: MatrixBlock, rl: int, ru: int, cl: int, cu: int,
        stats=None) -> MatrixBlock:
    """Right indexing X[rl:ru, cl:cu] (0-based, exclusive upper)."""
    x = _decompress(x, stats)
    if not (0 <= rl <= ru <= x.rows and 0 <= cl <= cu <= x.cols):
        raise ShapeError(
            f"index [{rl}:{ru}, {cl}:{cu}] out of bounds for {x.shape}"
        )
    if x.is_sparse:
        return _output(x.to_csr()[rl:ru, cl:cu])
    return MatrixBlock(np.ascontiguousarray(x.to_dense()[rl:ru, cl:cu]))


def cbind(a: MatrixBlock, b: MatrixBlock, stats=None) -> MatrixBlock:
    """Column concatenation."""
    if a.rows != b.rows:
        raise ShapeError(f"cbind rows {a.rows} != {b.rows}")
    a, b = _decompress(a, stats), _decompress(b, stats)
    if a.is_sparse and b.is_sparse:
        return MatrixBlock(sp.hstack([a.to_csr(), b.to_csr()]).tocsr())
    return MatrixBlock(np.hstack([a.to_dense(), b.to_dense()]))


def rbind(a: MatrixBlock, b: MatrixBlock, stats=None) -> MatrixBlock:
    """Row concatenation."""
    if a.cols != b.cols:
        raise ShapeError(f"rbind cols {a.cols} != {b.cols}")
    a, b = _decompress(a, stats), _decompress(b, stats)
    if a.is_sparse and b.is_sparse:
        return MatrixBlock(sp.vstack([a.to_csr(), b.to_csr()]).tocsr())
    return MatrixBlock(np.vstack([a.to_dense(), b.to_dense()]))


# ----------------------------------------------------------------------
# Basic-HOP dispatch
# ----------------------------------------------------------------------
def hop_spec(hop) -> tuple:
    """Picklable ``(kernel, *params)`` spec of the call that executes a
    basic HOP.  The local executor applies it at once; the multiprocess
    backend ships it to its workers, which hold no HOPs."""
    kind = hop.kind
    if kind is OpKind.UNARY:
        return ("cumsum",) if hop.op == "cumsum" else ("unary", hop.op)
    if kind is OpKind.BINARY:
        return ("binary", hop.op)
    if kind is OpKind.TERNARY:
        return ("ternary", hop.op)
    if kind is OpKind.AGG_UNARY:
        return ("agg_unary", hop.agg_op.value, hop.direction.value)
    if kind is OpKind.AGG_BINARY:
        return ("matmult",)
    if kind is OpKind.REORG:
        return ("transpose",)
    if kind is OpKind.INDEX:
        return ("rix", hop.rl, hop.ru, hop.cl, hop.cu)
    if kind is OpKind.NARY:
        return (hop.op,)  # "cbind" | "rbind"
    raise RuntimeExecError(f"no kernel for {hop.opcode()}")


def apply_spec(spec: tuple, values: list, stats=None) -> Value:
    """Run the kernel a :func:`hop_spec` names on runtime values.

    ``stats`` threads the compressed-format counters
    (``n_compressed_ops`` / ``n_decompressions``) through.
    """
    name = spec[0]
    if name == "unary":
        return unary(spec[1], values[0], stats=stats)
    if name == "cumsum":
        return cumsum(values[0], stats=stats)
    if name == "binary":
        return binary(spec[1], values[0], values[1], stats=stats)
    if name == "ternary":
        return ternary(spec[1], values[0], values[1], values[2], stats=stats)
    if name == "agg_unary":
        return agg_unary(spec[1], values[0], spec[2], stats=stats)
    if name == "matmult":
        return matmult(values[0], values[1], stats=stats)
    if name == "transpose":
        return transpose(values[0], stats=stats)
    if name == "rix":
        return rix(values[0], *spec[1:], stats=stats)
    if name in ("cbind", "rbind"):
        bind = cbind if name == "cbind" else rbind
        result = values[0]
        for nxt in values[1:]:
            result = bind(result, nxt, stats=stats)
        return result
    raise RuntimeExecError(f"unknown kernel spec {spec!r}")
