"""Side-input access for fused-operator drivers.

The paper's skeletons expose side inputs through a stateless
``getValue`` abstraction backed by stateful iterators for sparse data.
Here a :class:`SideInput` wraps one side input of the block a driver
runs on: the whole side as a tile (dense, or CSR for bodies that only
multiply it) and per-cell gathers for dense, sparse, and vector-shaped
sides.  Row-aligned sides arrive already sliced to the driver's block
(:func:`repro.runtime.skeletons.partition_values`), so nothing here
takes a row range.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.matrix import MatrixBlock


class SideInput:
    """Wraps one side input of a fused operator."""

    def __init__(self, block: MatrixBlock):
        self.block = block
        self.rows, self.cols = block.shape

    def dense(self) -> np.ndarray:
        """The whole side as a dense array (SIDE_FULL access)."""
        return self.block.to_dense()

    def tile(self, keep_csr: bool = False):
        """The whole side as a dense tile (SIDE_ROW access).

        A (1, m) row vector is shared as is and broadcasts against the
        block.  With ``keep_csr`` a CSR side of more than one row stays
        CSR (for bodies that only multiply it).
        """
        if keep_csr and self.block.is_sparse and self.rows > 1:
            return self.block.to_csr()
        return self.dense()

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
