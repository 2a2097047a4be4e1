"""Lazy linear-algebra expression API.

This is the primary public interface: expressions over :class:`Mat`
handles build HOP DAGs, and :func:`eval` / :func:`eval_all` hand the
DAG(s) to an execution engine (Base / Fused / Gen / heuristics).
Evaluating several expressions together compiles them into one DAG with
multiple roots, which is what exposes multi-aggregate fusion.

Evaluation flows through the staged pipeline: the engine's compiler
front half (rewrites → codegen → exec-type selection) optimizes the
DAG, lowering turns it into a runtime ``Program`` of instructions, and
the executor runs them in order (fused operators split large inputs
over threads).

Example::

    import numpy as np
    from repro import api
    from repro.compiler import Engine

    X = api.matrix(np.random.rand(1000, 100), name="X")
    v = api.matrix(np.random.rand(100, 1), name="v")
    expr = X.T @ (X @ v)

    engine = Engine(mode="gen")
    result = api.eval(expr, engine=engine)

    # The staged pipeline is inspectable: compile without executing.
    program = engine.compile([expr.hop])
    print(program.instructions)
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from repro.errors import CompileError
from repro.hops.hop import (
    AggBinaryOp,
    AggUnaryOp,
    BinaryOp,
    DataOp,
    Hop,
    IndexingOp,
    LiteralOp,
    NaryOp,
    ReorgOp,
    TernaryOp,
    UnaryOp,
)
from repro.hops.types import AggDir, AggOp
from repro.runtime.matrix import MatrixBlock

Operand = Union["Mat", float, int]


def _hop_of(value: Operand) -> Hop:
    if isinstance(value, Mat):
        return value.hop
    if isinstance(value, (int, float, np.floating, np.integer)):
        return LiteralOp(float(value))
    raise CompileError(f"cannot use {type(value).__name__} as an operand")


class Mat:
    """A lazy matrix (or scalar) expression wrapping a HOP."""

    __slots__ = ("hop",)

    def __init__(self, hop: Hop):
        self.hop = hop

    # -- shape ---------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.hop.dims

    @property
    def is_scalar(self) -> bool:
        return self.hop.is_scalar

    # -- arithmetic ----------------------------------------------------
    def _binary(self, op: str, other: Operand, swapped: bool = False) -> "Mat":
        left, right = _hop_of(other if swapped else self), _hop_of(self if swapped else other)
        return Mat(BinaryOp(op, left, right))

    def __add__(self, other: Operand) -> "Mat":
        return self._binary("+", other)

    def __radd__(self, other: Operand) -> "Mat":
        return self._binary("+", other, swapped=True)

    def __sub__(self, other: Operand) -> "Mat":
        return self._binary("-", other)

    def __rsub__(self, other: Operand) -> "Mat":
        return self._binary("-", other, swapped=True)

    def __mul__(self, other: Operand) -> "Mat":
        return self._binary("*", other)

    def __rmul__(self, other: Operand) -> "Mat":
        return self._binary("*", other, swapped=True)

    def __truediv__(self, other: Operand) -> "Mat":
        return self._binary("/", other)

    def __rtruediv__(self, other: Operand) -> "Mat":
        return self._binary("/", other, swapped=True)

    def __pow__(self, other: Operand) -> "Mat":
        return self._binary("^", other)

    def __neg__(self) -> "Mat":
        return Mat(UnaryOp("neg", self.hop))

    def __matmul__(self, other: "Mat") -> "Mat":
        return Mat(AggBinaryOp(self.hop, _hop_of(other)))

    # -- comparisons (return 0/1 matrices, R-style) ---------------------
    def __eq__(self, other: Operand) -> "Mat":  # type: ignore[override]
        return self._binary("==", other)

    def __ne__(self, other: Operand) -> "Mat":  # type: ignore[override]
        return self._binary("!=", other)

    def __lt__(self, other: Operand) -> "Mat":
        return self._binary("<", other)

    def __gt__(self, other: Operand) -> "Mat":
        return self._binary(">", other)

    def __le__(self, other: Operand) -> "Mat":
        return self._binary("<=", other)

    def __ge__(self, other: Operand) -> "Mat":
        return self._binary(">=", other)

    def __hash__(self):
        return id(self)

    # -- reorg / indexing ------------------------------------------------
    @property
    def T(self) -> "Mat":
        return Mat(ReorgOp(self.hop))

    def __getitem__(self, key) -> "Mat":
        if not (isinstance(key, tuple) and len(key) == 2):
            raise CompileError("indexing requires X[rows, cols] slices")
        rows, cols = key
        rl, ru = _slice_bounds(rows, self.hop.rows)
        cl, cu = _slice_bounds(cols, self.hop.cols)
        return Mat(IndexingOp(self.hop, rl, ru, cl, cu))

    # -- aggregations ----------------------------------------------------
    def sum(self) -> "Mat":
        return Mat(AggUnaryOp(AggOp.SUM, AggDir.FULL, self.hop))

    def row_sums(self) -> "Mat":
        return Mat(AggUnaryOp(AggOp.SUM, AggDir.ROW, self.hop))

    def col_sums(self) -> "Mat":
        return Mat(AggUnaryOp(AggOp.SUM, AggDir.COL, self.hop))

    def min(self) -> "Mat":
        return Mat(AggUnaryOp(AggOp.MIN, AggDir.FULL, self.hop))

    def max(self) -> "Mat":
        return Mat(AggUnaryOp(AggOp.MAX, AggDir.FULL, self.hop))

    def mean(self) -> "Mat":
        return Mat(AggUnaryOp(AggOp.MEAN, AggDir.FULL, self.hop))

    def row_mins(self) -> "Mat":
        return Mat(AggUnaryOp(AggOp.MIN, AggDir.ROW, self.hop))

    def row_maxs(self) -> "Mat":
        return Mat(AggUnaryOp(AggOp.MAX, AggDir.ROW, self.hop))

    def col_mins(self) -> "Mat":
        return Mat(AggUnaryOp(AggOp.MIN, AggDir.COL, self.hop))

    def col_maxs(self) -> "Mat":
        return Mat(AggUnaryOp(AggOp.MAX, AggDir.COL, self.hop))

    def col_sums_sq(self) -> "Mat":
        return Mat(AggUnaryOp(AggOp.SUM_SQ, AggDir.COL, self.hop))

    def sum_sq(self) -> "Mat":
        return Mat(AggUnaryOp(AggOp.SUM_SQ, AggDir.FULL, self.hop))

    def __repr__(self) -> str:
        return f"Mat({self.hop!r})"


def _slice_bounds(part, extent: int) -> tuple[int, int]:
    if isinstance(part, slice):
        if part.step not in (None, 1):
            raise CompileError("strided indexing is not supported")
        lo = 0 if part.start is None else int(part.start)
        hi = extent if part.stop is None else int(part.stop)
        return lo, hi
    idx = int(part)
    return idx, idx + 1


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def matrix(data, name: str = "", nnz_unknown: bool = False) -> Mat:
    """Bind a numpy array / scipy matrix / MatrixBlock / CompressedMatrix
    as an input.

    ``nnz_unknown=True`` hides the input's sparsity from the compiler
    (dimensions stay known): the plan is built assuming dense, and the
    adaptive recompiler corrects exec-type, fusion, and format choices
    at runtime once the actual non-zero count is observed — the
    situation of reads without metadata in SystemML (Section 2.1).
    """
    from repro.runtime.compressed import CompressedMatrix

    if isinstance(data, (MatrixBlock, CompressedMatrix)):
        block = data
    else:
        block = MatrixBlock(data)
    return Mat(DataOp(block, name=name, nnz_unknown=nnz_unknown))


def scalar(value: float) -> Mat:
    """A scalar literal expression."""
    return Mat(LiteralOp(value))


def rand(rows: int, cols: int, sparsity: float = 1.0, seed: int | None = None,
         low: float = 0.0, high: float = 1.0, name: str = "") -> Mat:
    """A random input matrix (generated eagerly, consumed lazily)."""
    return matrix(
        MatrixBlock.rand(rows, cols, sparsity=sparsity, low=low, high=high, seed=seed),
        name=name or "rand",
    )


# ----------------------------------------------------------------------
# Cell functions
# ----------------------------------------------------------------------
def _unary(op: str, x: Operand) -> Mat:
    return Mat(UnaryOp(op, _hop_of(x)))


def exp(x: Operand) -> Mat:
    return _unary("exp", x)


def log(x: Operand) -> Mat:
    return _unary("log", x)


def sqrt(x: Operand) -> Mat:
    return _unary("sqrt", x)


def abs_(x: Operand) -> Mat:
    return _unary("abs", x)


def sign(x: Operand) -> Mat:
    return _unary("sign", x)


def round_(x: Operand) -> Mat:
    return _unary("round", x)


def floor(x: Operand) -> Mat:
    return _unary("floor", x)


def ceil(x: Operand) -> Mat:
    return _unary("ceil", x)


def sigmoid(x: Operand) -> Mat:
    return _unary("sigmoid", x)


def sprop(x: Operand) -> Mat:
    return _unary("sprop", x)


def logical_not(x: Operand) -> Mat:
    return _unary("not", x)


def erf(x: Operand) -> Mat:
    return _unary("erf", x)


def normpdf(x: Operand) -> Mat:
    return _unary("normpdf", x)


def cumsum(x: Operand) -> Mat:
    return _unary("cumsum", x)


def minimum(a: Operand, b: Operand) -> Mat:
    return Mat(BinaryOp("min", _hop_of(a), _hop_of(b)))


def maximum(a: Operand, b: Operand) -> Mat:
    return Mat(BinaryOp("max", _hop_of(a), _hop_of(b)))


def ifelse(cond: Operand, a: Operand, b: Operand) -> Mat:
    return Mat(TernaryOp("ifelse", _hop_of(cond), _hop_of(a), _hop_of(b)))


def cbind(*parts: Mat) -> Mat:
    return Mat(NaryOp("cbind", [p.hop for p in parts]))


def rbind(*parts: Mat) -> Mat:
    return Mat(NaryOp("rbind", [p.hop for p in parts]))


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def eval(expr: Mat, engine=None):
    """Evaluate one expression; returns a MatrixBlock or float."""
    return eval_all([expr], engine=engine)[0]


def eval_all(exprs: Iterable[Mat], engine=None) -> list:
    """Evaluate several expressions as one multi-root DAG.

    Grouped evaluation mirrors a SystemML statement block: common
    subexpressions are shared and multi-aggregate fusion can apply.
    Without an explicit ``engine`` the process-wide shared ``base``
    engine is used, so repeated calls keep their caches warm.
    """
    expr_list = list(exprs)
    if engine is None:
        from repro.compiler.execution import shared_engine

        engine = shared_engine("base")
    return engine.execute([e.hop for e in expr_list])


def prepare(builder, engine=None, name: str = "prepared",
            batch_inputs: tuple = ()):
    """Prepare an expression builder for repeated (served) evaluation.

    ``builder`` receives a dict of named input placeholders and returns
    the output expression(s); see :mod:`repro.serve`.
    """
    if engine is None:
        from repro.compiler.execution import shared_engine

        engine = shared_engine("gen")
    return engine.prepare(builder, name=name, batch_inputs=batch_inputs)
