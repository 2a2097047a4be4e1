"""HOP DAG node classes with size and sparsity propagation.

Each statement-block expression compiles into a DAG of high-level
operators (HOPs).  Leaves are :class:`DataOp` (bound to a
:class:`~repro.runtime.matrix.MatrixBlock`) or :class:`LiteralOp`
scalars, so matrix dimensions and non-zero estimates propagate through
the entire DAG at construction time — the situation the paper's
optimizer relies on after dynamic recompilation (Section 2.1).

Scalars are represented with ``rows == cols == 0``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from repro.errors import CompileError, ShapeError
from repro.hops.types import (
    AggDir,
    AggOp,
    CELLWISE_UNARY,
    ExecType,
    OpKind,
    SPARSE_SAFE_UNARY,
)
from repro.runtime.matrix import SPARSE_THRESHOLD, MatrixBlock

_ID_COUNTER = itertools.count(1)


def _estimate_mm_nnz(rows, k, cols, nnz_a, nnz_b) -> int:
    """Estimated nnz of an (rows x k) @ (k x cols) product.

    Uses the standard independence assumption: the probability of an
    output cell being non-zero is 1 - (1 - dA*dB)^k.
    """
    cells_a = max(rows * k, 1)
    cells_b = max(k * cols, 1)
    d_a = min(1.0, nnz_a / cells_a)
    d_b = min(1.0, nnz_b / cells_b)
    p_zero_term = 1.0 - d_a * d_b
    if p_zero_term <= 0.0:
        density = 1.0
    else:
        density = 1.0 - p_zero_term ** k
    return int(round(min(1.0, max(density, 0.0)) * rows * cols))


class Hop:
    """Base class for all high-level operators."""

    kind: OpKind = OpKind.DATA

    def __init__(self, inputs: Sequence["Hop"] = (), name: str = ""):
        self.id: int = next(_ID_COUNTER)
        self.name = name
        self.inputs: list[Hop] = []
        self.parents: list[Hop] = []
        self.rows: int = 0
        self.cols: int = 0
        self.nnz: int = -1
        self.exec_type: ExecType = ExecType.CP
        for hop_in in inputs:
            self.add_input(hop_in)
        self.refresh_sizes()

    # ------------------------------------------------------------------
    # DAG wiring
    # ------------------------------------------------------------------
    def add_input(self, hop_in: "Hop") -> None:
        self.inputs.append(hop_in)
        hop_in.parents.append(self)

    def replace_input(self, old: "Hop", new: "Hop") -> None:
        """Replace every occurrence of ``old`` among this hop's inputs.

        Parent links are edge-consistent: a hop consumed through two
        input slots of the same consumer appears twice in ``parents``.
        """
        count = 0
        for idx, hop_in in enumerate(self.inputs):
            if hop_in is old:
                self.inputs[idx] = new
                count += 1
        if count == 0:
            raise CompileError(f"{old} is not an input of {self}")
        kept: list[Hop] = []
        removed = 0
        for parent in old.parents:
            if parent is self and removed < count:
                removed += 1
                continue
            kept.append(parent)
        old.parents = kept
        new.parents.extend([self] * count)

    def rewire_to(self, new: "Hop") -> None:
        """Replace this hop by ``new`` in all consumers."""
        seen: set[int] = set()
        for parent in list(self.parents):
            if id(parent) in seen:
                continue
            seen.add(id(parent))
            parent.replace_input(self, new)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def is_scalar(self) -> bool:
        return self.rows == 0 and self.cols == 0

    @property
    def is_matrix(self) -> bool:
        return not self.is_scalar

    @property
    def is_vector(self) -> bool:
        return self.is_matrix and (self.rows == 1 or self.cols == 1)

    @property
    def is_col_vector(self) -> bool:
        return self.is_matrix and self.cols == 1

    @property
    def is_row_vector(self) -> bool:
        return self.is_matrix and self.rows == 1

    @property
    def dims(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def cells(self) -> int:
        return self.rows * self.cols

    @property
    def sparsity(self) -> float:
        """Estimated density (1.0 when unknown or scalar)."""
        if self.is_scalar or self.cells == 0:
            return 1.0
        if self.nnz < 0:
            return 1.0
        return min(1.0, self.nnz / self.cells)

    def refresh_sizes(self) -> None:
        """Recompute output dims and nnz estimate from the inputs."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def opcode(self) -> str:
        """A compact operator label, e.g. ``b(*)`` or ``ua(R+)``."""
        return self.kind.value

    def is_sparse_est(self) -> bool:
        """Would this output be stored sparse under the estimate?"""
        return (self.is_matrix and self.nnz >= 0
                and self.sparsity < SPARSE_THRESHOLD)

    def __repr__(self) -> str:
        shape = "scalar" if self.is_scalar else f"{self.rows}x{self.cols}"
        return f"{self.id} {self.opcode()} [{shape}]"


class DataOp(Hop):
    """A matrix input bound to concrete data (a transient read).

    ``nnz_unknown=True`` models inputs whose sparsity metadata is not
    available at compile time (e.g. a read whose statistics were never
    collected): dimensions stay known but ``nnz`` compiles as ``-1``, so
    the optimizer assumes dense and the adaptive recompiler corrects the
    plan once the runtime observes the actual non-zero count.
    """

    kind = OpKind.DATA

    def __init__(self, data: MatrixBlock, name: str = "",
                 nnz_unknown: bool = False):
        self.data = data
        self.nnz_unknown = nnz_unknown
        super().__init__((), name=name or f"in{id(data) & 0xFFFF}")

    def refresh_sizes(self) -> None:
        self.rows, self.cols = self.data.shape
        self.nnz = -1 if self.nnz_unknown else self.data.nnz

    def opcode(self) -> str:
        return f"data({self.name})"


class LiteralOp(Hop):
    """A scalar literal.

    ``bound >= 0`` marks a *run-time-bound* scalar (number ``bound`` of
    its DAG): the compiler treats it as a scalar input whose value it
    does not know — rewrites never fold it, fused operators read it as
    ``s[k]``, lowering gives it a constant slot the caller rebinds per
    run — so one compiled program serves every value.  ``value`` is
    then only the value the program was first compiled with.
    """

    kind = OpKind.LITERAL

    def __init__(self, value: float, bound: int = -1):
        self.value = float(value)
        self.bound = bound
        super().__init__(())

    def refresh_sizes(self) -> None:
        self.rows = self.cols = 0
        self.nnz = -1

    def opcode(self) -> str:
        if self.bound >= 0:
            return f"lit(s{self.bound})"
        return f"lit({self.value:g})"


class UnaryOp(Hop):
    """Cell-wise unary function; also hosts cumsum (column op)."""

    kind = OpKind.UNARY

    def __init__(self, op: str, hop_in: Hop):
        self.op = op
        super().__init__((hop_in,))

    def refresh_sizes(self) -> None:
        hop_in = self.inputs[0]
        self.rows, self.cols = hop_in.dims
        if self.is_scalar:
            self.nnz = -1
        elif self.op in SPARSE_SAFE_UNARY:
            self.nnz = hop_in.nnz
        else:
            self.nnz = self.cells

    @property
    def is_cellwise(self) -> bool:
        return self.op in CELLWISE_UNARY

    def opcode(self) -> str:
        return f"u({self.op})"


class BinaryOp(Hop):
    """Cell-wise binary function with matrix/vector/scalar broadcasting."""

    kind = OpKind.BINARY

    def __init__(self, op: str, left: Hop, right: Hop):
        self.op = op
        super().__init__((left, right))

    def refresh_sizes(self) -> None:
        left, right = self.inputs
        if left.is_scalar and right.is_scalar:
            self.rows = self.cols = 0
            self.nnz = -1
            return
        if left.is_scalar or right.is_scalar:
            mat = right if left.is_scalar else left
            self.rows, self.cols = mat.dims
        else:
            self.rows = max(left.rows, right.rows)
            self.cols = max(left.cols, right.cols)
            for side in (left, right):
                valid = side.dims in (
                    (self.rows, self.cols),
                    (self.rows, 1),
                    (1, self.cols),
                    (1, 1),
                )
                if not valid:
                    raise ShapeError(
                        f"binary '{self.op}': {left.dims} vs {right.dims}"
                    )
        self.nnz = self._estimate_nnz()

    def _estimate_nnz(self) -> int:
        left, right = self.inputs
        cells = self.cells
        if self.op == "*":
            if left.is_scalar or right.is_scalar:
                mat = right if left.is_scalar else left
                return mat.nnz if mat.nnz >= 0 else cells
            estimates = []
            for side in (left, right):
                if side.nnz >= 0 and side.dims == self.dims:
                    estimates.append(side.nnz)
            return min(estimates) if estimates else cells
        if self.op in {"+", "-"} and left.is_matrix and right.is_matrix:
            if left.nnz >= 0 and right.nnz >= 0 and left.dims == right.dims == self.dims:
                return min(cells, left.nnz + right.nnz)
        if self.op == "!=":
            # X != 0 keeps the sparsity of X when comparing with 0.
            lit = right if isinstance(right, LiteralOp) else (
                left if isinstance(left, LiteralOp) else None
            )
            mat = left if lit is right else right
            if lit is not None and lit.value == 0.0 and mat.nnz >= 0:
                return mat.nnz
        return cells

    def opcode(self) -> str:
        return f"b({self.op})"


class TernaryOp(Hop):
    """Cell-wise ternary function (+*, -*, ifelse)."""

    kind = OpKind.TERNARY

    def __init__(self, op: str, a: Hop, b: Hop, c: Hop):
        self.op = op
        super().__init__((a, b, c))

    def refresh_sizes(self) -> None:
        mats = [h for h in self.inputs if h.is_matrix]
        if not mats:
            self.rows = self.cols = 0
            self.nnz = -1
            return
        self.rows = max(h.rows for h in mats)
        self.cols = max(h.cols for h in mats)
        self.nnz = self.cells

    def opcode(self) -> str:
        return f"t({self.op})"


class AggUnaryOp(Hop):
    """Aggregation: sum/sumsq/min/max/mean in full/row/col direction."""

    kind = OpKind.AGG_UNARY

    def __init__(self, agg_op: AggOp, direction: AggDir, hop_in: Hop):
        self.agg_op = agg_op
        self.direction = direction
        super().__init__((hop_in,))

    def refresh_sizes(self) -> None:
        hop_in = self.inputs[0]
        if self.direction is AggDir.FULL:
            self.rows = self.cols = 0
            self.nnz = -1
        elif self.direction is AggDir.ROW:
            self.rows, self.cols = hop_in.rows, 1
            self.nnz = self.cells
        else:
            self.rows, self.cols = 1, hop_in.cols
            self.nnz = self.cells

    def opcode(self) -> str:
        prefix = {AggDir.FULL: "", AggDir.ROW: "R", AggDir.COL: "C"}[self.direction]
        symbol = {
            AggOp.SUM: "+",
            AggOp.SUM_SQ: "sq+",
            AggOp.MIN: "min",
            AggOp.MAX: "max",
            AggOp.MEAN: "mean",
        }[self.agg_op]
        return f"ua({prefix}{symbol})"


class AggBinaryOp(Hop):
    """Matrix multiplication ``ba(+*)``."""

    kind = OpKind.AGG_BINARY

    def __init__(self, left: Hop, right: Hop):
        super().__init__((left, right))

    def refresh_sizes(self) -> None:
        left, right = self.inputs
        if left.cols != right.rows:
            raise ShapeError(f"matmult {left.dims} x {right.dims}")
        self.rows, self.cols = left.rows, right.cols
        nnz_a = left.nnz if left.nnz >= 0 else left.cells
        nnz_b = right.nnz if right.nnz >= 0 else right.cells
        self.nnz = _estimate_mm_nnz(self.rows, left.cols, self.cols, nnz_a, nnz_b)

    def opcode(self) -> str:
        return "ba(+*)"


class ReorgOp(Hop):
    """Transpose (the only reorg operation we need)."""

    kind = OpKind.REORG

    def __init__(self, hop_in: Hop, op: str = "t"):
        self.op = op
        super().__init__((hop_in,))

    def refresh_sizes(self) -> None:
        hop_in = self.inputs[0]
        self.rows, self.cols = hop_in.cols, hop_in.rows
        self.nnz = hop_in.nnz

    def opcode(self) -> str:
        return f"r({self.op})"


class IndexingOp(Hop):
    """Right indexing X[rl:ru, cl:cu] with static bounds (0-based)."""

    kind = OpKind.INDEX

    def __init__(self, hop_in: Hop, rl: int, ru: int, cl: int, cu: int):
        self.rl, self.ru, self.cl, self.cu = rl, ru, cl, cu
        super().__init__((hop_in,))

    def refresh_sizes(self) -> None:
        hop_in = self.inputs[0]
        if not (0 <= self.rl <= self.ru <= hop_in.rows):
            raise ShapeError(f"row index [{self.rl}:{self.ru}] for {hop_in.dims}")
        if not (0 <= self.cl <= self.cu <= hop_in.cols):
            raise ShapeError(f"col index [{self.cl}:{self.cu}] for {hop_in.dims}")
        self.rows = self.ru - self.rl
        self.cols = self.cu - self.cl
        if hop_in.cells > 0 and hop_in.nnz >= 0:
            self.nnz = int(round(hop_in.sparsity * self.cells))
        else:
            self.nnz = self.cells

    def opcode(self) -> str:
        return "rix"


class NaryOp(Hop):
    """cbind / rbind."""

    kind = OpKind.NARY

    def __init__(self, op: str, inputs: Sequence[Hop]):
        self.op = op
        super().__init__(tuple(inputs))

    def refresh_sizes(self) -> None:
        if self.op == "cbind":
            self.rows = self.inputs[0].rows
            self.cols = sum(h.cols for h in self.inputs)
        else:
            self.rows = sum(h.rows for h in self.inputs)
            self.cols = self.inputs[0].cols
        nnzs = [h.nnz if h.nnz >= 0 else h.cells for h in self.inputs]
        self.nnz = sum(nnzs)

    def opcode(self) -> str:
        return self.op


class SpoofOp(Hop):
    """A generated fused operator covering a sub-DAG (still a valid HOP)."""

    kind = OpKind.SPOOF

    def __init__(self, template_name, operator, output_hop: Hop, inputs: Sequence[Hop],
                 covered_roots: Sequence[Hop] | None = None):
        self.template_name = template_name
        self.operator = operator  # GeneratedOperator
        self._out_dims = output_hop.dims
        self._out_nnz = output_hop.nnz
        self.covered_root = output_hop
        # All original root hops this operator produces (one per
        # aggregate for multi-aggregate operators); the adaptive
        # recompiler de-fuses through them to re-run plan selection
        # with observed metadata.
        self.covered_roots = list(covered_roots) if covered_roots else [output_hop]
        super().__init__(tuple(inputs))

    def refresh_sizes(self) -> None:
        self.rows, self.cols = self._out_dims
        self.nnz = self._out_nnz

    def opcode(self) -> str:
        return f"spoof({self.template_name})"


class SpoofOutOp(Hop):
    """Extracts one scalar output of a multi-aggregate fused operator.

    A multi-aggregate SpoofOp produces a k x 1 matrix; each original
    aggregate root is replaced by a SpoofOutOp selecting its row.
    """

    kind = OpKind.SPOOF

    def __init__(self, spoof: SpoofOp, index: int):
        self.index = index
        super().__init__((spoof,))

    def refresh_sizes(self) -> None:
        self.rows = self.cols = 0
        self.nnz = -1

    def opcode(self) -> str:
        return f"spoofout[{self.index}]"


# ----------------------------------------------------------------------
# DAG utilities
# ----------------------------------------------------------------------
def collect_dag(roots: Iterable[Hop]) -> list[Hop]:
    """All hops reachable from ``roots`` (each exactly once)."""
    seen: dict[int, Hop] = {}
    stack = list(roots)
    while stack:
        hop = stack.pop()
        if hop.id in seen:
            continue
        seen[hop.id] = hop
        stack.extend(hop.inputs)
    return list(seen.values())


def topological_order(roots: Iterable[Hop]) -> list[Hop]:
    """Inputs-before-consumers ordering of the DAG under ``roots``."""
    order: list[Hop] = []
    state: dict[int, int] = {}  # 0 = visiting, 1 = done

    def visit(hop: Hop) -> None:
        stack = [(hop, iter(hop.inputs))]
        while stack:
            node, it = stack[-1]
            if state.get(node.id) == 1:
                stack.pop()
                continue
            state[node.id] = 0
            advanced = False
            for child in it:
                if state.get(child.id) != 1:
                    if state.get(child.id) == 0:
                        raise CompileError("cycle in HOP DAG")
                    stack.append((child, iter(child.inputs)))
                    advanced = True
                    break
            if not advanced:
                state[node.id] = 1
                order.append(node)
                stack.pop()

    for root in roots:
        if state.get(root.id) != 1:
            visit(root)
    return order


def consumers_in_dag(hop: Hop, dag_ids: set[int]) -> list[Hop]:
    """The hop's parents restricted to a DAG membership set."""
    return [p for p in hop.parents if p.id in dag_ids]
