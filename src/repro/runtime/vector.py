"""The cell-function table: the one definition of every cell and
aggregation op.

The paper's generated operators are thin bodies over a shared library
of primitives, and its basic and fused operators compute the same cell
functions.  Here that library is three dicts keyed by the HOP op name,
and every layer reads them: the basic kernels
(:mod:`repro.runtime.ops`), the generated ``genbody`` functions
(:mod:`repro.codegen.pygen` emits ``vp.UNARY['exp'](t1)``), the
template drivers and the partial combiner
(:mod:`repro.runtime.npexec`, :mod:`repro.runtime.skeletons`), and the
HOP IR, whose fusable cell ops are the keys
(:mod:`repro.hops.types`).

* :data:`UNARY` / :data:`BINARY` — the NumPy ufunc where one exists,
  else a small function below; comparisons and logic ops return 0/1
  floats.
* :data:`AGG` — the NumPy reductions, called with ``axis`` /
  ``keepdims``; ``sumsq`` is ``pow2`` then ``sum``.

``vect_ifelse``, ``vect_matmult`` and ``vect_tmatmult`` complete what
generated code calls.  Operands are whatever a driver passes: a dense
block, a flat vector of non-zero values, a ``(rows, 1)`` per-row
scalar, a ``(1, cols)`` row vector, or a Python or NumPy scalar; the
functions rely on NumPy broadcasting between them.  This module imports only
NumPy and SciPy, so the HOP IR can import it without a cycle.

Three op-name maps stay outside the table on purpose: the public
functions of :mod:`repro.api` and the name map of
:mod:`repro.lang.interp` are user-facing, and
``config.op_flop_weights`` is cost-model calibration; the
sparse-safety proof's scalar semantics are in
:func:`repro.codegen.construct._scalar_unary`.
"""

from __future__ import annotations

import numpy as np
import scipy.special


def _not(a):
    return (a == 0) * 1.0


def _sprop(a):
    return a * (1.0 - a)


def _pow2(a):
    return a * a


def _normpdf(a):
    return np.exp(-0.5 * a * a) / np.sqrt(2.0 * np.pi)


def _div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(a, b)


UNARY = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
    "round": np.round,
    "floor": np.floor,
    "ceil": np.ceil,
    "neg": np.negative,
    "not": _not,
    # expit saturates to exact 0.0 / 1.0 without overflowing exp(-a).
    "sigmoid": scipy.special.expit,
    "sprop": _sprop,  # sample proportion x * (1 - x)
    "pow2": _pow2,
    "erf": scipy.special.erf,
    "normpdf": _normpdf,
}

BINARY = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": _div,
    "^": np.power,
    "min": np.minimum,
    "max": np.maximum,
    "==": lambda a, b: (a == b) * 1.0,
    "!=": lambda a, b: (a != b) * 1.0,
    "<": lambda a, b: (a < b) * 1.0,
    ">": lambda a, b: (a > b) * 1.0,
    "<=": lambda a, b: (a <= b) * 1.0,
    ">=": lambda a, b: (a >= b) * 1.0,
    "&": lambda a, b: ((a != 0) & (b != 0)) * 1.0,
    "|": lambda a, b: ((a != 0) | (b != 0)) * 1.0,
}

AGG = {"sum": np.sum, "min": np.min, "max": np.max, "mean": np.mean}


def vect_matmult(a, block):
    """A row block times a matrix: (rows, n) @ (n, k) -> (rows, k)."""
    return a @ block


def vect_tmatmult(a, b):
    """The transposed product ``t(a) %*% b``: (rows, n) and (rows, k)
    -> (n, k).

    Dense operands go through ``np.dot``, which hands the transposed
    view to BLAS and releases the GIL; ``a.T @ b`` on a dense ``a``
    keeps the GIL for a mat-vec, so two row parts would run one after
    the other.  The bits are the same.  A CSR operand stays with scipy,
    which releases the GIL too.
    """
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.dot(a.T, b)
    return a.T @ b


def vect_ifelse(cond, a, b):
    return np.where(cond != 0, a, b)
