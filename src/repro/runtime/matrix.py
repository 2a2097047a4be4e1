"""MatrixBlock: the in-memory matrix representation of the runtime.

A ``MatrixBlock`` holds either a dense ``numpy.ndarray`` (row-major,
float64) or a ``scipy.sparse.csr_matrix``.  The representation is chosen
by sparsity, mirroring SystemML's dense/sparse hybrid blocks: blocks
whose density falls below :data:`SPARSE_THRESHOLD` are stored in CSR.  Compressed blocks live in :mod:`repro.runtime.compressed` and
are deliberately a separate type, as in the paper.

:func:`recommend_format` is the single storage-format policy shared by
the compiler's size estimates (:mod:`repro.hops.memory`), the runtime
kernels (:mod:`repro.runtime.ops`), the fused skeletons, and the
adaptive recompiler — all format decisions flow through the same
sparsity threshold.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError

#: SystemML's sparse-format rule, a system property rather than a tuning
#: knob: a block is stored sparse when nnz / cells falls below it.  The
#: compiler's size estimates, the kernels' output storage and the
#: adaptive layer's format switches all read this one value.
SPARSE_THRESHOLD = 0.4

ArrayLike = Union[np.ndarray, sp.spmatrix, "MatrixBlock", list]


def estimate_compressed_bytes(rows: int, cols: int, nnz: int,
                              distinct: float) -> float:
    """Estimated CLA size from shape, nnz, and distinct values per column.

    Mirrors :meth:`ColumnGroup.size_bytes`: every column stores a
    dictionary of ``distinct`` 8B values plus either DDC codes (1/2/4B
    per row by cardinality) or OLE offset lists (4B per non-zero cell);
    the estimate takes the cheaper encoding, like the compressor does.
    """
    distinct = max(1.0, float(distinct))
    code_bytes = 1.0 if distinct <= 256 else 2.0 if distinct <= 65536 else 4.0
    dict_bytes = cols * distinct * 8.0
    ddc = dict_bytes + rows * cols * code_bytes
    ole = dict_bytes + max(nnz, 0) * 4.0
    return min(ddc, ole)


def recommend_format(rows: int, cols: int, nnz: int,
                     distinct: float = -1.0,
                     compress_ratio: float = 2.0) -> str:
    """The storage format policy: ``'sparse'`` (CSR), ``'dense'``, or
    ``'compressed'`` (CLA column groups).

    A matrix is stored sparse when its density ``nnz / cells`` falls
    below :data:`SPARSE_THRESHOLD`.  Unknown nnz (``< 0``)
    recommends dense — the conservative default the compiler assumes
    until runtime observation corrects it.  Empty shapes are dense.

    ``distinct`` is the estimated number of distinct values per column;
    when known (``>= 0``) and the estimated CLA size undercuts the
    dense/CSR size by at least ``compress_ratio``, the policy recommends
    ``'compressed'`` instead.  Unknown distinct counts (the default)
    never recommend compression, so callers without a distinct-value
    observation keep the two-format behavior.
    """
    cells = rows * cols
    if cells == 0 or nnz < 0:
        return "dense"
    base = "sparse" if nnz / cells < SPARSE_THRESHOLD else "dense"
    if distinct < 0:
        return base
    base_bytes = (
        nnz * 12.0 + (rows + 1) * 4.0 if base == "sparse" else cells * 8.0
    )
    compressed = estimate_compressed_bytes(rows, cols, nnz, distinct)
    if compressed * max(compress_ratio, 1.0) <= base_bytes:
        return "compressed"
    return base


class MatrixBlock:
    """A two-dimensional float64 matrix in dense or CSR representation."""

    # __weakref__ lets the distributed RDD-cache model guard identity-
    # keyed entries against freed-and-reallocated blocks.
    __slots__ = ("_dense", "_sparse", "_nnz", "__weakref__")

    def __init__(self, data: ArrayLike):
        self._nnz = None  # lazily computed and cached (values never mutate)
        if isinstance(data, MatrixBlock):
            self._dense = data._dense
            self._sparse = data._sparse
            self._nnz = data._nnz
            return
        if sp.issparse(data):
            self._dense = None
            self._sparse = data.tocsr().astype(np.float64, copy=False)
            self._sparse.sum_duplicates()
            return
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim != 2:
            raise ShapeError(f"expected 2-D data, got ndim={arr.ndim}")
        self._dense = np.ascontiguousarray(arr)
        self._sparse = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, rows: int, cols: int, sparse: bool = False) -> "MatrixBlock":
        """An all-zero matrix, sparse or dense on request."""
        if sparse:
            return cls(sp.csr_matrix((rows, cols), dtype=np.float64))
        return cls(np.zeros((rows, cols)))

    @classmethod
    def rand(
        cls,
        rows: int,
        cols: int,
        sparsity: float = 1.0,
        low: float = 0.0,
        high: float = 1.0,
        seed: int | None = None,
    ) -> "MatrixBlock":
        """Random matrix in ``[low, high)`` with the requested sparsity.

        Mirrors SystemML's ``rand`` built-in used by the paper's data
        generation scripts.
        """
        rng = np.random.default_rng(seed)
        if sparsity >= 1.0:
            return cls(rng.uniform(low, high, size=(rows, cols)))
        nnz = int(round(sparsity * rows * cols))
        mat = sp.random(
            rows,
            cols,
            density=min(1.0, max(nnz / max(1, rows * cols), 0.0)),
            format="csr",
            dtype=np.float64,
            random_state=np.random.RandomState(seed),
        )
        if mat.nnz:
            mat.data[:] = rng.uniform(low, high, size=mat.nnz)
            # Avoid accidental explicit zeros (low could be negative)
            # with an in-range replacement: the midpoint, or — when the
            # midpoint itself is 0.0 (symmetric ranges like [-a, a)) —
            # the three-quarter point, which is non-zero whenever the
            # range is non-degenerate.
            replacement = (low + high) / 2.0
            if replacement == 0.0:
                replacement = low + 0.75 * (high - low)
            if replacement != 0.0:
                mat.data[mat.data == 0.0] = replacement
        block = cls(mat)
        return block.examine_representation()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def is_sparse(self) -> bool:
        """True if stored in CSR representation."""
        return self._sparse is not None

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols)."""
        store = self._sparse if self._sparse is not None else self._dense
        return store.shape

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of non-zero values (exact, cached).

        Blocks are value-immutable by convention (kernels always build
        fresh blocks), so the count is computed once; representation
        switches preserve it.
        """
        if self._nnz is None:
            if self._sparse is not None:
                # Explicit zeros may appear after arithmetic; count true nnz.
                self._nnz = int(np.count_nonzero(self._sparse.data))
            else:
                self._nnz = int(np.count_nonzero(self._dense))
        return self._nnz

    @property
    def sparsity(self) -> float:
        """Density nnz / cells in [0, 1]."""
        cells = self.rows * self.cols
        if cells == 0:
            return 0.0
        return self.nnz / cells

    @property
    def size_bytes(self) -> float:
        """In-memory size estimate in bytes.

        CSR stores 8B values and 4B column indices per stored entry,
        plus a ``rows + 1``-entry (4B) indptr array.
        """
        if self._sparse is not None:
            return self._sparse.nnz * 12.0 + (self.rows + 1) * 4.0
        return self.rows * self.cols * 8.0

    # ------------------------------------------------------------------
    # Representation management
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """The contents as a dense 2-D numpy array (may copy)."""
        if self._sparse is not None:
            return np.asarray(self._sparse.todense())
        return self._dense

    def to_csr(self) -> sp.csr_matrix:
        """The contents as a CSR matrix (may copy)."""
        if self._sparse is not None:
            return self._sparse
        return sp.csr_matrix(self._dense)

    def examine_representation(self) -> "MatrixBlock":
        """Switch to the representation :func:`recommend_format` suggests.

        Returns ``self`` (mutated) for chaining, like SystemML's
        ``examSparsity``.  Values are unchanged, so the cached nnz
        survives the representation switch.
        """
        target = recommend_format(self.rows, self.cols, self.nnz)
        if self.is_sparse and target == "dense":
            self._dense = np.asarray(self._sparse.todense())
            self._sparse = None
        elif not self.is_sparse and target == "sparse":
            self._sparse = sp.csr_matrix(self._dense)
            self._dense = None
        elif self.is_sparse:
            self._sparse.eliminate_zeros()
        return self

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    def get(self, i: int, j: int) -> float:
        """Single-cell read (slow path; used by tests and side inputs)."""
        if self._sparse is not None:
            return float(self._sparse[i, j])
        return float(self._dense[i, j])

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` as a dense 1-D array."""
        if self._sparse is not None:
            return np.asarray(self._sparse.getrow(i).todense()).ravel()
        return self._dense[i]

    def is_vector(self) -> bool:
        """True for n x 1 or 1 x n shapes."""
        return self.rows == 1 or self.cols == 1

    def as_scalar(self) -> float:
        """The single value of a 1 x 1 block."""
        if self.shape != (1, 1):
            raise ShapeError(f"not a 1x1 matrix: {self.shape}")
        return self.get(0, 0)

    # ------------------------------------------------------------------
    # Comparison helpers (tests)
    # ------------------------------------------------------------------
    def allclose(self, other: ArrayLike, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        """Numeric comparison against another matrix-like object."""
        other_arr = MatrixBlock(other).to_dense() if not isinstance(other, MatrixBlock) else other.to_dense()
        return bool(
            self.shape == other_arr.shape
            and np.allclose(self.to_dense(), other_arr, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:
        fmt = "sparse" if self.is_sparse else "dense"
        return f"MatrixBlock({self.rows}x{self.cols}, {fmt}, nnz={self.nnz})"
