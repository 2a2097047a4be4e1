"""Vector-primitive library used by generated fused operators.

The paper's generated Java operators call a shared library of vector
primitives (``dotProduct``, ``vectMultAdd``, ``vectMatMult``, ...) so
that generated methods stay small and primitives stay hot.  The one
generated function of each operator (``genbody``,
:mod:`repro.codegen.pygen`) calls the functions below through the
:data:`UNARY_PRIMITIVES` / :data:`BINARY_PRIMITIVES` tables, plus
``vect_ifelse``, ``vect_matmult`` and the row reductions.

``genbody`` runs once over a whole block, so every operand is a whole
array: a flat vector of non-zero values (sparse Cell and Outer
drivers), a dense or CSR row block, a ``(rows, 1)`` per-row scalar, a
``(1, cols)`` row vector, or a Python scalar.  The primitives rely on
NumPy broadcasting between them; row reductions keep their axis
(``*_kd``) so per-row scalars stay columns.
"""

from __future__ import annotations

import numpy as np
import scipy.special


# Row reductions: per-row scalars as (rows, 1) columns, the convention
# of generated Row operators.
def vect_sum_kd(a):
    return np.sum(a, axis=-1, keepdims=True)


def vect_min_kd(a):
    return np.min(a, axis=-1, keepdims=True)


def vect_max_kd(a):
    return np.max(a, axis=-1, keepdims=True)


def vect_mean_kd(a):
    return np.mean(a, axis=-1, keepdims=True)


def vect_matmult(a, block):
    """A row block times a matrix: (rows, n) @ (n, k) -> (rows, k)."""
    return a @ block


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
