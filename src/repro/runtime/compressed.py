"""Compressed linear algebra (CLA) matrices.

A lightweight reproduction of SystemML's compressed matrix blocks
(Elgohary et al., PVLDB 2016), which the paper's templates support:
column-wise compression with per-group dictionaries of distinct values,
optional column co-coding, and two encoding formats:

* DDC — dense dictionary codes: one code per row,
* OLE — offset lists per distinct value (for few distinct values).

Fused operators run over compressed inputs by executing their
``genbody`` only for the *distinct values* of each group and combining
with value counts — valid for single-input sparse-safe cell operations
with sum aggregation, exactly the conditions of the paper's Figure 9
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RuntimeExecError
from repro.runtime.matrix import MatrixBlock


@dataclass
class ColumnGroup:
    """One compressed column group."""

    cols: tuple[int, ...]  # column indices covered by this group
    encoding: str  # 'ddc' or 'ole'
    dictionary: np.ndarray  # (n_distinct, len(cols)) distinct value tuples
    codes: np.ndarray | None = None  # ddc: (rows,) dictionary indices
    offsets: list[np.ndarray] | None = None  # ole: row offsets per value
    _counts: np.ndarray | None = None  # cached value counts (metadata)

    @property
    def n_distinct(self) -> int:
        return self.dictionary.shape[0]

    n_rows: int = 0  # total rows (needed for implicit-zero counts)

    def counts(self) -> np.ndarray:
        """Occurrences of each distinct value tuple (cached metadata —
        value-count aggregates are O(n_distinct), the CLA fast path)."""
        if self._counts is None:
            if self.encoding == "ddc":
                counts = np.bincount(self.codes, minlength=self.n_distinct)
                self._counts = counts.astype(np.float64)
            else:
                counts = np.array(
                    [0 if off is None else len(off) for off in self.offsets],
                    dtype=np.float64,
                )
                # OLE stores no offsets for the implicit zero tuple; its
                # count is the remainder.
                for value_idx, off in enumerate(self.offsets):
                    if off is None:
                        counts[value_idx] = self.n_rows - counts.sum()
                        break
                self._counts = counts
        return self._counts

    @property
    def implicit_index(self) -> int:
        """Index of the offset-less (implicit) tuple, or -1."""
        if self.encoding == "ole" and self.offsets is not None:
            for value_idx, off in enumerate(self.offsets):
                if off is None:
                    return value_idx
        return -1

    def decompress_into(self, out: np.ndarray) -> None:
        if self.encoding == "ddc":
            out[:, list(self.cols)] = self.dictionary[self.codes]
            return
        implicit = self.implicit_index
        if implicit >= 0:
            # The implicit tuple fills the whole column first (it is
            # the zero tuple unless a dictionary transform changed it).
            out[:, list(self.cols)] = self.dictionary[implicit]
        # Outer row-by-column indexing: rows[:, None] pairs every offset
        # row with every group column, so a co-coded (multi-column) OLE
        # group scatters its whole value tuple instead of corrupting
        # through element-wise fancy-index pairing.
        cols = list(self.cols)
        for value_idx, rows in enumerate(self.offsets):
            if rows is None:
                continue
            out[np.asarray(rows)[:, None], cols] = self.dictionary[value_idx]

    def size_bytes(self) -> float:
        dict_bytes = self.dictionary.size * 8.0
        if self.encoding == "ddc":
            code_bytes = len(self.codes) * (1.0 if self.n_distinct <= 256 else 2.0 if self.n_distinct <= 65536 else 4.0)
            return dict_bytes + code_bytes
        return dict_bytes + sum(
            0.0 if off is None else len(off) * 4.0 for off in self.offsets
        )


class CompressedMatrix:
    """A column-compressed matrix (read-only)."""

    def __init__(self, rows: int, cols: int, groups: list[ColumnGroup],
                 uncompressed_bytes: float):
        self.rows = rows
        self.cols = cols
        self.groups = groups
        self.uncompressed_bytes = uncompressed_bytes
        self._nnz: int | None = None  # cached (values never mutate)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def size_bytes(self) -> float:
        return sum(g.size_bytes() for g in self.groups)

    @property
    def compression_ratio(self) -> float:
        return self.uncompressed_bytes / max(self.size_bytes, 1.0)

    @property
    def nnz(self) -> int:
        if self._nnz is None:
            total = 0
            for group in self.groups:
                nz_per_value = np.count_nonzero(group.dictionary, axis=1)
                total += int(np.dot(nz_per_value, group.counts()))
            self._nnz = total
        return self._nnz

    @property
    def n_distinct(self) -> float:
        """Mean distinct-value count per column (format-policy input)."""
        if not self.groups:
            return 0.0
        total = sum(g.n_distinct * len(g.cols) for g in self.groups)
        return total / max(self.cols, 1)

    @property
    def sparsity(self) -> float:
        cells = self.rows * self.cols
        return self.nnz / cells if cells else 0.0

    def decompress(self) -> MatrixBlock:
        out = np.zeros((self.rows, self.cols))
        for group in self.groups:
            group.decompress_into(out)
        return MatrixBlock(out)

    # ------------------------------------------------------------------
    # Direct compressed operations (the hand-coded CLA baseline)
    # ------------------------------------------------------------------
    def sum(self) -> float:
        total = 0.0
        for group in self.groups:
            total += float(np.dot(group.dictionary.sum(axis=1), group.counts()))
        return total

    def sum_sq(self) -> float:
        total = 0.0
        for group in self.groups:
            sq = (group.dictionary ** 2).sum(axis=1)
            total += float(np.dot(sq, group.counts()))
        return total

    def col_sums(self) -> MatrixBlock:
        out = np.zeros((1, self.cols))
        for group in self.groups:
            weighted = group.dictionary * group.counts()[:, None]
            out[0, list(group.cols)] += weighted.sum(axis=0)
        return MatrixBlock(out)

    def col_sums_sq(self) -> MatrixBlock:
        out = np.zeros((1, self.cols))
        for group in self.groups:
            weighted = (group.dictionary ** 2) * group.counts()[:, None]
            out[0, list(group.cols)] += weighted.sum(axis=0)
        return MatrixBlock(out)

    def col_reduce(self, reducer) -> MatrixBlock:
        """Per-column min/max over dictionaries (every tuple occurs)."""
        out = np.zeros((1, self.cols))
        for group in self.groups:
            out[0, list(group.cols)] = reducer(group.dictionary, axis=0)
        return MatrixBlock(out)

    def row_sums(self) -> MatrixBlock:
        """Per-row sums via per-group dictionary pre-aggregation.

        OLE groups scatter only their explicit offset lists; the
        implicit (offset-less) tuple contributes its value to *every*
        row as a base term — non-zero whenever a dictionary transform
        (e.g. ``X + 1``) moved the implicit zero — and explicit tuples
        add their delta against that base, exactly like :meth:`matvec`.
        """
        out = np.zeros(self.rows)
        for group in self.groups:
            row_contrib = group.dictionary.sum(axis=1)
            if group.encoding == "ddc":
                out += row_contrib[group.codes]
            else:
                implicit = group.implicit_index
                base = row_contrib[implicit] if implicit >= 0 else 0.0
                if base != 0.0:
                    out += base
                for value_idx, rows in enumerate(group.offsets):
                    if rows is None:
                        continue
                    out[np.asarray(rows)] += row_contrib[value_idx] - base
        return MatrixBlock(out.reshape(-1, 1))

    def matvec(self, v: np.ndarray) -> MatrixBlock:
        """X @ v via per-group pre-aggregation over the dictionary."""
        v = np.asarray(v).ravel()
        out = np.zeros(self.rows)
        for group in self.groups:
            # Pre-aggregate each distinct tuple against v's slice, then
            # scatter by codes -- the CLA cache-conscious trick.
            contrib = group.dictionary @ v[list(group.cols)]
            if group.encoding == "ddc":
                out += contrib[group.codes]
            else:
                implicit = group.implicit_index
                base = contrib[implicit] if implicit >= 0 else 0.0
                if base != 0.0:
                    out += base
                for value_idx, rows in enumerate(group.offsets):
                    if rows is None:
                        continue
                    out[np.asarray(rows)] += contrib[value_idx] - base
        return MatrixBlock(out.reshape(-1, 1))

    # ------------------------------------------------------------------
    # Fused-operator support: iterate distinct values with counts
    # ------------------------------------------------------------------
    def iter_distinct(self):
        """Yield (values, counts) per single-column group member.

        Valid for executing sparse-safe single-input cell operators
        over distinct values only (paper, Section 5.2 "CLA").
        """
        for group in self.groups:
            counts = group.counts()
            for local_col in range(len(group.cols)):
                yield group.dictionary[:, local_col], counts

    def __repr__(self) -> str:
        return (
            f"CompressedMatrix({self.rows}x{self.cols}, "
            f"{len(self.groups)} groups, ratio={self.compression_ratio:.2f}x)"
        )


def transform_dictionaries(comp: CompressedMatrix, func) -> CompressedMatrix:
    """A shallow value-wise transform: dictionaries only.

    Codes/offsets and cached counts are shared with the source (the
    Figure 9 fast path) — only the per-group dictionaries run through
    ``func``, so a cell-wise op over a compressed matrix costs
    O(distinct values), not O(cells).
    """
    groups = [
        ColumnGroup(g.cols, g.encoding, func(g.dictionary), g.codes,
                    g.offsets, g.counts(), g.n_rows)
        for g in comp.groups
    ]
    return CompressedMatrix(comp.rows, comp.cols, groups,
                            comp.uncompressed_bytes)


def estimate_distinct(block: MatrixBlock, sample_rows: int = 2048) -> float:
    """Estimated distinct values per column from a leading-row sample.

    Deterministic (no RNG): the first ``sample_rows`` rows bound the
    O(rows log rows) per-column ``unique`` cost that a full scan would
    pay.  The estimate feeds the shared format policy's compressed leg;
    underestimating on a sample only makes compression look better than
    it is, which the compressor's real ratio then corrects.
    """
    rows = min(block.rows, max(int(sample_rows), 1))
    if rows == 0 or block.cols == 0:
        return 0.0
    if block.is_sparse:
        sample = np.asarray(block.to_csr()[:rows].todense())
    else:
        sample = block.to_dense()[:rows]
    if sample.shape[0] <= 1:
        return 1.0
    ordered = np.sort(sample, axis=0)
    counts = (np.diff(ordered, axis=0) != 0.0).sum(axis=0) + 1
    return float(np.mean(counts))


def compress(block: MatrixBlock, co_code: bool = True,
             max_distinct_frac: float = 0.2) -> CompressedMatrix:
    """Compress a matrix column-wise.

    Columns whose number of distinct values is small are encoded as DDC
    (or OLE when very few); pairs of low-cardinality columns are
    co-coded greedily.  Columns that do not compress keep a trivial
    DDC group (matching CLA's uncompressed-column fallback closely
    enough for our experiments).
    """
    dense = block.to_dense()
    rows, cols = dense.shape
    uncompressed = block.size_bytes

    col_info = []
    for j in range(cols):
        values, codes = np.unique(dense[:, j], return_inverse=True)
        col_info.append((j, values, codes))

    groups: list[ColumnGroup] = []
    used: set[int] = set()

    if co_code:
        # Greedy co-coding of adjacent low-cardinality columns whose
        # combined cardinality stays small.
        j = 0
        while j + 1 < cols:
            j1, vals1, _ = col_info[j]
            j2, vals2, _ = col_info[j + 1]
            if len(vals1) * len(vals2) <= max(16, int(rows * 0.01)):
                pair = dense[:, [j1, j2]]
                tuples, codes = np.unique(pair, axis=0, return_inverse=True)
                groups.append(
                    ColumnGroup((j1, j2), "ddc", tuples,
                                codes.astype(np.int64), n_rows=rows)
                )
                used.update((j1, j2))
                j += 2
            else:
                j += 1

    for j, values, codes in col_info:
        if j in used:
            continue
        n_distinct = len(values)
        dictionary = values.reshape(-1, 1)
        zero_pos = int(np.searchsorted(values, 0.0))
        has_zero = zero_pos < n_distinct and values[zero_pos] == 0.0
        zero_frac = np.mean(codes == zero_pos) if has_zero else 0.0
        if has_zero and zero_frac > 0.5:
            # Zero-dominated column: OLE with implicit zeros stores
            # offsets for non-zero values only (4B per non-zero cell).
            offsets = [
                None if v == zero_pos else np.flatnonzero(codes == v)
                for v in range(n_distinct)
            ]
            groups.append(
                ColumnGroup((j,), "ole", dictionary, offsets=offsets, n_rows=rows)
            )
        elif n_distinct <= 8 and rows > 64:
            offsets = [np.flatnonzero(codes == v) for v in range(n_distinct)]
            groups.append(
                ColumnGroup((j,), "ole", dictionary, offsets=offsets, n_rows=rows)
            )
        else:
            groups.append(
                ColumnGroup((j,), "ddc", dictionary,
                            codes.astype(np.int64), n_rows=rows)
            )

    if not groups:
        raise RuntimeExecError("cannot compress an empty matrix")
    return CompressedMatrix(rows, cols, groups, uncompressed)
