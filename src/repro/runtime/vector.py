"""Vector-primitive library used by generated fused operators.

The paper's generated Java operators call a shared library of vector
primitives (``dotProduct``, ``vectMultAdd``, ``vectMatMult``, ...) so
that generated methods stay small and primitives stay hot.  Generated
Python operators in this reproduction call the functions below.

All primitives are *tile-polymorphic*: they accept a single row (shape
``(n,)``) or a row-block tile (shape ``(bs, n)``) and operate row-wise.
Per-row scalars are represented as shape-``(bs,)`` arrays (or Python
floats for a single row); the :func:`rs` helper reshapes them for
broadcasting against row vectors.
"""

from __future__ import annotations

import numpy as np
import scipy.special


def rs(x):
    """Reshape a per-row scalar for broadcasting against row vectors."""
    if isinstance(x, np.ndarray) and x.ndim == 1:
        return x[:, None]
    return x


# ----------------------------------------------------------------------
# Reductions (row-wise)
# ----------------------------------------------------------------------
def vect_sum(a):
    """Row-wise sum -> per-row scalar."""
    return np.sum(a, axis=-1)


def vect_min(a):
    return np.min(a, axis=-1)


def vect_max(a):
    return np.max(a, axis=-1)


def vect_mean(a):
    return np.mean(a, axis=-1)


def dot_product(a, b):
    """Row-wise inner product -> per-row scalar."""
    return np.sum(a * b, axis=-1)


# keepdims variants: per-row scalars as (bs, 1) columns, the convention
# of generated Row operators.
def vect_sum_kd(a):
    return np.sum(a, axis=-1, keepdims=True)


def vect_min_kd(a):
    return np.min(a, axis=-1, keepdims=True)


def vect_max_kd(a):
    return np.max(a, axis=-1, keepdims=True)


def vect_mean_kd(a):
    return np.mean(a, axis=-1, keepdims=True)


def dot_product_kd(a, b):
    return np.sum(a * b, axis=-1, keepdims=True)


# ----------------------------------------------------------------------
# Matrix-shaped primitives
# ----------------------------------------------------------------------
def vect_matmult(a, block):
    """Row(s) times a matrix: (bs, n) @ (n, k) -> (bs, k)."""
    return a @ block


def vect_tmatmult(a, block):
    """Row(s) times a transposed matrix: (bs, n) @ (k, n)^T -> (bs, k)."""
    return a @ block.T


def vect_outer_mult_add(a, b, c):
    """Accumulate per-row outer products: c += sum_i outer(a_i, b_i).

    For tiles this is exactly ``c += a^T @ b`` which realizes column
    aggregation of ``t(X) %*% F(X)`` patterns in a single pass.
    """
    if a.ndim == 1:
        c += np.outer(a, b)
    else:
        c += a.T @ b
    return c


def vect_cumsum(a):
    """Row-wise cumulative sum."""
    return np.cumsum(a, axis=-1)


# ----------------------------------------------------------------------
# Element-wise binary primitives (operands are shape-aligned tiles,
# (bs, 1) per-row scalars, (1, m) row vectors, or Python scalars; numpy
# broadcasting applies directly)
# ----------------------------------------------------------------------
def vect_mult(a, b):
    return a * b


def vect_div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return a / b


def vect_add(a, b):
    return a + b


def vect_minus(a, b):
    return a - b


def vect_pow(a, b):
    return np.power(a, b)


def vect_min2(a, b):
    return np.minimum(a, b)


def vect_max2(a, b):
    return np.maximum(a, b)


def vect_mult_add(a, s, c):
    """c += s * a with per-row scalar s (the paper's vectMultAdd)."""
    c += a * s
    return c


# Comparison primitives return 0/1 float tiles.
def vect_eq(a, b):
    return (a == b) * 1.0


def vect_neq(a, b):
    return (a != b) * 1.0


def vect_lt(a, b):
    return (a < b) * 1.0


def vect_gt(a, b):
    return (a > b) * 1.0


def vect_le(a, b):
    return (a <= b) * 1.0


def vect_ge(a, b):
    return (a >= b) * 1.0


def vect_and(a, b):
    return ((a != 0) & (b != 0)) * 1.0


def vect_or(a, b):
    return ((a != 0) | (b != 0)) * 1.0


# ----------------------------------------------------------------------
# Element-wise unary primitives
# ----------------------------------------------------------------------
def vect_exp(a):
    return np.exp(a)


def vect_log(a):
    return np.log(a)


def vect_sqrt(a):
    return np.sqrt(a)


def vect_abs(a):
    return np.abs(a)


def vect_sign(a):
    return np.sign(a)


def vect_round(a):
    return np.round(a)


def vect_floor(a):
    return np.floor(a)


def vect_ceil(a):
    return np.ceil(a)


def vect_neg(a):
    return -a


def vect_not(a):
    return (a == 0).astype(np.float64)


def vect_sigmoid(a):
    # expit saturates to exact 0.0 / 1.0 without overflowing exp(-a).
    return scipy.special.expit(a)


def vect_sprop(a):
    return a * (1.0 - a)


def vect_pow2(a):
    return a * a


def vect_erf(a):
    return scipy.special.erf(a)


def vect_normpdf(a):
    return np.exp(-0.5 * a * a) / np.sqrt(2.0 * np.pi)


def vect_ifelse(cond, a, b):
    return np.where(cond != 0, a, b)


# Mapping from IR op names to primitive function names used by codegen.
UNARY_PRIMITIVES = {
    "exp": "vect_exp",
    "log": "vect_log",
    "sqrt": "vect_sqrt",
    "abs": "vect_abs",
    "sign": "vect_sign",
    "round": "vect_round",
    "floor": "vect_floor",
    "ceil": "vect_ceil",
    "neg": "vect_neg",
    "not": "vect_not",
    "sigmoid": "vect_sigmoid",
    "sprop": "vect_sprop",
    "pow2": "vect_pow2",
    "erf": "vect_erf",
    "normpdf": "vect_normpdf",
}

BINARY_PRIMITIVES = {
    "+": "vect_add",
    "-": "vect_minus",
    "*": "vect_mult",
    "/": "vect_div",
    "^": "vect_pow",
    "min": "vect_min2",
    "max": "vect_max2",
    "==": "vect_eq",
    "!=": "vect_neq",
    "<": "vect_lt",
    ">": "vect_gt",
    "<=": "vect_le",
    ">=": "vect_ge",
    "&": "vect_and",
    "|": "vect_or",
}
