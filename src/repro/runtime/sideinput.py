"""Side-input access for fused-operator skeletons.

The paper's skeletons expose side inputs through a stateless
``getValue`` abstraction backed by stateful iterators for sparse data.
Here a :class:`SideInput` prepares row-aligned tile views and per-cell
gathers for dense, sparse, and vector-shaped sides.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.matrix import MatrixBlock


class SideInput:
    """Wraps one side input of a fused operator."""

    def __init__(self, block: MatrixBlock):
        self.block = block
        self.rows, self.cols = block.shape
        self._dense_cache: np.ndarray | None = None

    def dense(self) -> np.ndarray:
        """Full dense view (cached; used for SIDE_FULL access)."""
        if self._dense_cache is None:
            self._dense_cache = self.block.to_dense()
        return self._dense_cache

    def row_tile(self, r0: int, r1: int, keep_csr: bool = False):
        """Rows [r0, r1) as a dense tile (SIDE_ROW access).

        Row and column vectors return broadcast-compatible views: a
        (1, m) row vector is shared across all tiles, a column vector
        yields a (bs, 1) slice.  With ``keep_csr`` a CSR side stays CSR
        (for bodies that only multiply it).
        """
        if self.rows == 1:
            return self.dense()
        if self.block.is_sparse:
            csr = self.block.to_csr()
            if (r0, r1) != (0, self.rows):
                csr = csr[r0:r1]
            return csr if keep_csr else np.asarray(csr.todense())
        return self.block.to_dense()[r0:r1]

    def gather(self, row_idx: np.ndarray, col_idx: np.ndarray) -> np.ndarray:
        """Per-cell values at (row_idx, col_idx) as a flat array.

        Vector-shaped sides broadcast along the missing dimension —
        this is the sparse-side analogue of the paper's
        ``getValue(b, rix, cix)``.
        """
        if self.rows == 1 and self.cols == 1:
            value = self.block.get(0, 0)
            return np.full(len(row_idx), value)
        if self.cols == 1:
            return self.dense()[row_idx, 0]
        if self.rows == 1:
            return self.dense()[0, col_idx]
        if self.block.is_sparse:
            csr = self.block.to_csr()
            return np.asarray(csr[row_idx, col_idx]).ravel()
        return self.dense()[row_idx, col_idx]
