"""Enumerations shared across the HOP IR and the codegen optimizer.

The fusable cell ops are the keys of the cell-function table in
:mod:`repro.runtime.vector`, which defines what each op computes; that
module imports only NumPy and SciPy, so importing it here adds no
cycle.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.runtime.vector import BINARY, UNARY


class OpKind(Enum):
    """Classes of high-level operators."""

    DATA = "data"  # matrix input bound to a MatrixBlock
    LITERAL = "lit"  # scalar literal
    UNARY = "u"  # cell-wise unary (plus cumsum-style column ops)
    BINARY = "b"  # cell-wise binary with broadcasting
    TERNARY = "t"  # cell-wise ternary (+*, -*, ifelse)
    AGG_UNARY = "ua"  # aggregation (sum/min/max/... x full/row/col)
    AGG_BINARY = "ba"  # matrix multiplication ba(+*)
    REORG = "r"  # transpose
    INDEX = "rix"  # right indexing
    NARY = "nary"  # cbind / rbind
    SPOOF = "spoof"  # generated fused operator


class AggOp(Enum):
    """Aggregation functions."""

    SUM = "sum"
    SUM_SQ = "sumsq"
    MIN = "min"
    MAX = "max"
    MEAN = "mean"


class AggDir(Enum):
    """Aggregation directions (SystemML: full / row- / col-wise)."""

    FULL = "full"
    ROW = "row"
    COL = "col"


class ExecType(Enum):
    """Execution type of an operator in the runtime plan."""

    CP = "cp"  # single-node (control program)
    SPARK = "spark"  # simulated distributed


# Cell-wise ops eligible for fusion templates.  'cumsum' is a column
# operation and has no table entry, so it is excluded.
CELLWISE_UNARY = frozenset(UNARY)
CELLWISE_BINARY = frozenset(BINARY)
CELLWISE_TERNARY = {"+*", "-*", "ifelse"}


def _maps_zero_to_zero(fn) -> bool:
    with np.errstate(all="ignore"):  # log(0) warns
        return bool(fn(np.zeros(1))[0] == 0)


# Unary ops with f(0) == 0 (sparse-safe), read off the cell-function
# table so a new zero-preserving op is sparse-safe without an edit here.
SPARSE_SAFE_UNARY = frozenset(
    op for op, fn in UNARY.items() if _maps_zero_to_zero(fn)
)

# Binary ops with f(0, y) == f(x, 0) == 0 for finite operands: a cell
# plan over a sparse main stays sparse through them, and the basic
# kernel multiplies over the sparse operand's pattern.
SPARSE_SAFE_BINARY = {"*"}
