"""Synthetic datasets and real-dataset stand-ins (Section 5.1).

The paper evaluates on synthetic matrices from ``rand`` plus four real
datasets.  Real data is not redistributable here, so each dataset has a
*stand-in generator* matching its shape class, sparsity, and value skew
(scaled down by an explicit factor).  All evaluated effects depend on
those structural properties, not on semantic content:

* **Airline78** (14,462,943 x 29, dense, mixed low-cardinality columns)
  → :func:`airline_like`,
* **Mnist1m/8m/80m** (n x 784, sparsity 0.25, skewed pixel values)
  → :func:`mnist_like`,
* **Netflix** (480,189 x 17,770, sparsity 0.012, ratings 1-5)
  → :func:`netflix_like`,
* **Amazon books** (8,026,324 x 2,330,066, sparsity 1.2e-6)
  → :func:`amazon_like`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.runtime.matrix import MatrixBlock


def rand_dense(rows: int, cols: int, seed: int = 0,
               low: float = 0.0, high: float = 1.0) -> MatrixBlock:
    """Uniform dense matrix (the paper's synthetic `rand` data)."""
    return MatrixBlock.rand(rows, cols, seed=seed, low=low, high=high)


# ----------------------------------------------------------------------
# Supervised-learning data
# ----------------------------------------------------------------------
def classification_data(rows: int, cols: int, n_classes: int = 2,
                        seed: int = 0, sparsity: float = 1.0):
    """Features plus labels with class-dependent means.

    Binary problems return labels in {-1, +1} (L2SVM convention);
    multi-class problems return labels in {1, .., k}.
    """
    rng = np.random.default_rng(seed)
    true_w = rng.normal(size=(cols, max(1, n_classes - 1)))
    if sparsity >= 1.0:
        x_arr = rng.normal(size=(rows, cols))
        x = MatrixBlock(x_arr)
    else:
        x = MatrixBlock.rand(rows, cols, sparsity=sparsity, seed=seed,
                             low=0.1, high=1.0)
        x_arr = x.to_dense()
    scores = x_arr @ true_w
    if n_classes == 2:
        labels = np.where(scores[:, 0] + 0.1 * rng.normal(size=rows) > 0, 1.0, -1.0)
        return x, MatrixBlock(labels.reshape(-1, 1))
    full_scores = np.hstack([scores, np.zeros((rows, 1))])
    full_scores += 0.1 * rng.normal(size=full_scores.shape)
    labels = np.argmax(full_scores, axis=1) + 1.0
    return x, MatrixBlock(labels.reshape(-1, 1))


def clustering_data(rows: int, cols: int, n_centers: int = 5,
                    seed: int = 0, spread: float = 0.3) -> MatrixBlock:
    """Gaussian blobs around random centers (KMeans workloads)."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-3.0, 3.0, size=(n_centers, cols))
    assignment = rng.integers(0, n_centers, size=rows)
    data = centers[assignment] + spread * rng.normal(size=(rows, cols))
    return MatrixBlock(data)


def factorization_data(rows: int, cols: int, rank: int = 10,
                       sparsity: float = 0.01, seed: int = 0) -> MatrixBlock:
    """A sparse matrix sampled from a noisy low-rank model (ALS)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.1, 1.0, size=(rows, rank))
    v = rng.uniform(0.1, 1.0, size=(cols, rank))
    nnz = int(round(sparsity * rows * cols))
    row_idx = rng.integers(0, rows, size=nnz)
    col_idx = rng.integers(0, cols, size=nnz)
    values = np.einsum("ij,ij->i", u[row_idx], v[col_idx])
    values += 0.05 * rng.normal(size=nnz)
    values[values <= 0] = 0.01
    mat = sp.csr_matrix((values, (row_idx, col_idx)), shape=(rows, cols))
    mat.sum_duplicates()
    return MatrixBlock(mat)


# ----------------------------------------------------------------------
# Real-dataset stand-ins
# ----------------------------------------------------------------------
def airline_like(rows: int = 144_629, seed: int = 0) -> MatrixBlock:
    """Airline78 stand-in: 29 dense columns, mostly low-cardinality.

    The original (years 2007/08 of the ASA airline dataset) mixes
    categorical codes (carriers, airports, days) with a few numeric
    columns — exactly the structure CLA compresses by ~7x (Figure 9).
    Default scale: 1/100 of the original rows.
    """
    rng = np.random.default_rng(seed)
    cols = []
    cardinalities = [12, 31, 7, 24, 20, 50, 100, 300, 300, 12, 7, 24,
                     20, 8, 4, 2, 2, 16, 12, 31, 7, 24, 7, 4, 2]
    for card in cardinalities:
        cols.append(rng.integers(0, card, size=rows).astype(np.float64))
    # A few skewed continuous columns (delays, distances).
    for scale in (15.0, 30.0, 700.0, 45.0):
        cols.append(np.round(rng.exponential(scale, size=rows)))
    return MatrixBlock(np.column_stack(cols))


def mnist_like(rows: int = 81_000, seed: int = 0) -> MatrixBlock:
    """Mnist stand-in: n x 784, sparsity 0.25, skewed stroke values.

    InfiMNIST-scaled data (Mnist1m/8m/80m in the paper) is ~25% dense
    with pixel intensities concentrated in a blob per row.  Default
    scale: 1/100 of Mnist8m.
    """
    rng = np.random.default_rng(seed)
    cols = 784
    nnz_per_row = int(cols * 0.25)
    row_idx = np.repeat(np.arange(rows), nnz_per_row)
    # Stroke-like locality: non-zeros cluster around a per-row center.
    centers = rng.integers(100, cols - 100, size=rows)
    offsets = rng.normal(0, 60, size=rows * nnz_per_row).astype(int)
    col_idx = np.clip(np.repeat(centers, nnz_per_row) + offsets, 0, cols - 1)
    values = np.round(rng.uniform(1, 255, size=rows * nnz_per_row))
    mat = sp.csr_matrix((values, (row_idx, col_idx)), shape=(rows, cols))
    mat.sum_duplicates()
    return MatrixBlock(mat)


def netflix_like(rows: int = 48_019, cols: int = 1_777, seed: int = 0) -> MatrixBlock:
    """Netflix stand-in: ratings 1-5, sparsity ~0.012, skewed items.

    Item popularity follows a Zipf-like law, so some columns are much
    denser than others (relevant for sparsity-exploiting operators).
    Default scale: 1/10 of the original in each dimension.
    """
    rng = np.random.default_rng(seed)
    nnz = int(0.012 * rows * cols)
    item_pop = rng.zipf(1.3, size=nnz * 2) % cols
    col_idx = item_pop[:nnz]
    row_idx = rng.integers(0, rows, size=nnz)
    values = rng.integers(1, 6, size=nnz).astype(np.float64)
    mat = sp.csr_matrix((values, (row_idx, col_idx)), shape=(rows, cols))
    mat.sum_duplicates()
    return MatrixBlock(mat)


def amazon_like(rows: int = 80_263, cols: int = 23_300, seed: int = 0) -> MatrixBlock:
    """Amazon-books stand-in: ultra-sparse (~1.2e-6 at original scale).

    At reproduction scale the density is kept low enough that rows and
    columns are mostly empty — the regime where only sparsity-exploiting
    plans are feasible (Table 5).  Default scale: 1/100 per dimension.
    """
    rng = np.random.default_rng(seed)
    nnz = int(6e-4 * rows * cols)
    col_idx = rng.zipf(1.2, size=nnz) % cols
    row_idx = rng.zipf(1.4, size=nnz) % rows
    values = rng.integers(1, 6, size=nnz).astype(np.float64)
    mat = sp.csr_matrix((values, (row_idx, col_idx)), shape=(rows, cols))
    mat.sum_duplicates()
    return MatrixBlock(mat)
