"""Compiling a DAG's *shape*: symbolic leaves and structural signatures.

A lowered :class:`~repro.compiler.program.Program` depends on what a
HOP DAG computes and on the metadata of its leaves, not on the leaves'
cell data: :func:`dag_signature` reduces a DAG to that dependency — a
hashable key — and :func:`symbolic_roots` rebuilds the DAG over
:class:`SymbolicBlock` leaves, which carry exactly the metadata the
compiler front half consumes (shape, nnz estimate, storage class) and no
data.  A program compiled from the symbolic copy holds its leaves in
constant slots; whoever runs it substitutes real blocks through the
executor's ``bindings`` overlay, so the program is never mutated and
never pins a caller's data.  ``Engine.execute`` keys its program cache
on the signature; the serving layer (:mod:`repro.serve`) builds its
input placeholders from the same :class:`SymbolicBlock`.

**Leaves.**  A matrix leaf is described by rows, cols, dense/CSR
storage, the coarse :func:`sparsity_class` of its block, and whether its
nnz is hidden from the compiler (``nnz_unknown``); leaves over the same
block share a number, so ``g * g`` and ``g * h`` differ.  Leaves are
numbered in :func:`~repro.hops.hop.topological_order`.  A compressed
leaf is model data: it is keyed by identity and stays in the program.

**Literals.**  A literal stays in the key *by value* when its value is
integer-valued (rewrites compare against 0, 1 and 2, hand-coded patterns
against ``== 2.0``) or when any consumer is something other than a
``*`` or a binary operation on two scalars (``X > 0.5`` and
``X > -0.5`` differ in sparse-safety, ``X + c`` in its nnz estimate).
Every other literal — a step size, a regularization constant — becomes
a *run-time-bound scalar* (``LiteralOp.bound``), numbered by first
occurrence of its value so that ``p*X + p*Y`` and ``p*X + q*Y`` differ:
the compiler sees a scalar input of unknown value, and the program takes
the value per run.  Multiplying by an unknown scalar keeps zeros zero,
and a scalar-with-scalar operation decides nothing about a plan, which
is why exactly these two consumers are safe.
"""

from __future__ import annotations

import math

from repro.compiler.recompile import clone_structural
from repro.hops.hop import BinaryOp, DataOp, Hop, LiteralOp, topological_order
from repro.hops.rewrites import structure_key
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.matrix import SPARSE_THRESHOLD, MatrixBlock


def sparsity_class(value) -> str:
    """Coarse sparsity bucket of an input block (specialization key).

    ``hyper`` (< 1% dense), ``sparse`` (below the shared CSR
    threshold), or ``dense``.  Coarse on purpose: inputs whose
    densities share a bucket get one plan compiled with representative
    nnz estimates, instead of one program per exact nnz (which would
    never hit) or one mispriced plan for everything (which pays dense
    costs on sparse traffic or vice versa).
    """
    cells = value.rows * value.cols
    if cells == 0:
        return "dense"
    density = value.nnz / cells
    if density < 0.01:
        return "hyper"
    if density < SPARSE_THRESHOLD:
        return "sparse"
    return "dense"


class SymbolicBlock:
    """Compile-time stand-in for one matrix input."""

    __slots__ = ("name", "rows", "cols", "_nnz", "_sparse", "__weakref__")

    def __init__(self, name: str, rows: int, cols: int,
                 nnz: int | None = None, sparse: bool = False):
        self.name = name
        self.rows = int(rows)
        self.cols = int(cols)
        self._nnz = int(nnz) if nnz is not None else self.rows * self.cols
        self._sparse = bool(sparse)

    # -- the MatrixBlock metadata surface the compiler reads -----------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def is_sparse(self) -> bool:
        return self._sparse

    @property
    def sparsity(self) -> float:
        cells = self.rows * self.cols
        return self._nnz / cells if cells else 0.0

    @property
    def size_bytes(self) -> float:
        if self._sparse:
            return self._nnz * 12.0 + (self.rows + 1) * 4.0
        return self.rows * self.cols * 8.0

    def __repr__(self) -> str:
        storage = "sparse" if self._sparse else "dense"
        return f"SymbolicBlock({self.name}, {self.rows}x{self.cols}, {storage})"

    @classmethod
    def like(cls, name: str, block: MatrixBlock) -> "SymbolicBlock":
        """A symbolic slot with the metadata of a concrete block."""
        return cls(name, block.rows, block.cols, nnz=block.nnz,
                   sparse=block.is_sparse)


# ----------------------------------------------------------------------
# Structural signature of a HOP DAG
# ----------------------------------------------------------------------
class DagShape:
    """A DAG's signature plus what the walk learned on the way.

    ``key`` is hashable and equal for DAGs one compiled program serves;
    ``leaves`` / ``scalars`` are this DAG's blocks and bound-scalar
    values in ordinal order (what a run binds); ``order`` (the hops,
    inputs first) and ``bound`` (literal hop id -> scalar ordinal) let
    :func:`symbolic_roots` rebuild the DAG without a second analysis.
    """

    __slots__ = ("key", "leaves", "scalars", "roots", "order", "bound")

    def __init__(self, key, leaves, scalars, roots, order, bound):
        self.key = key
        self.leaves = leaves
        self.scalars = scalars
        self.roots = roots
        self.order = order
        self.bound = bound


def _binds_at_run_time(literal: LiteralOp) -> bool:
    """The literal rule of the module docstring."""
    value = literal.value
    if not math.isfinite(value) or value.is_integer():
        return False
    return all(
        isinstance(parent, BinaryOp)
        and (parent.op == "*" or parent.is_scalar)
        for parent in literal.parents
    )


def dag_signature(roots: list[Hop]) -> DagShape | None:
    """The :class:`DagShape` of the DAG under ``roots``.

    Hops are numbered in :func:`~repro.hops.hop.topological_order` and
    described by :func:`~repro.hops.rewrites.structure_key` over their
    inputs' numbers — the description CSE merges by — so equal keys mean
    equal computations over equally described leaves, root order
    included.  Returns ``None`` for a DAG with a hop that has no
    structural description (already-spliced fused operators): those
    compile the ordinary way.
    """
    order = topological_order(roots)
    number: dict[int, int] = {}  # hop id -> position in ``order``
    nodes: list[tuple] = []
    leaves: list = []
    leaf_number: dict[int, int] = {}  # id(block) -> leaf ordinal
    scalars: list[float] = []
    scalar_number: dict[float, int] = {}
    bound: dict[int, int] = {}
    for hop in order:
        if isinstance(hop, DataOp):
            block = hop.data
            ordinal = leaf_number.get(id(block))
            if ordinal is None:
                ordinal = leaf_number[id(block)] = len(leaves)
                leaves.append(block)
            if isinstance(block, CompressedMatrix):
                node = ("cdata", ordinal, id(block))
            else:
                node = ("data", ordinal, block.rows, block.cols,
                        block.is_sparse, sparsity_class(block),
                        hop.nnz_unknown)
        elif isinstance(hop, LiteralOp):
            if _binds_at_run_time(hop):
                ordinal = scalar_number.get(hop.value)
                if ordinal is None:
                    ordinal = scalar_number[hop.value] = len(scalars)
                    scalars.append(hop.value)
                bound[hop.id] = ordinal
                node = ("bound", ordinal)
            else:
                node = ("lit", hop.value)
        else:
            node = structure_key(
                hop, tuple(number[i.id] for i in hop.inputs)
            )
            if node is None:
                return None
        number[hop.id] = len(nodes)
        nodes.append(node)
    key = (tuple(nodes), tuple(number[root.id] for root in roots))
    return DagShape(key, leaves, scalars, roots, order, bound)


def symbolic_roots(shape: DagShape) -> tuple[list[Hop], list]:
    """A copy of the signed DAG whose matrix leaves hold no data.

    Returns ``(roots, symbols)``: the copied roots, and per leaf ordinal
    the :class:`SymbolicBlock` standing in for it (``None`` for a
    compressed leaf, which is copied as is).  Literals the signature
    bound carry their ordinal in ``LiteralOp.bound``.  The caller's DAG
    is left untouched.
    """
    symbols: list = [
        None if isinstance(block, CompressedMatrix)
        else SymbolicBlock.like(f"leaf{ordinal}", block)
        for ordinal, block in enumerate(shape.leaves)
    ]
    ordinal_of = {id(block): n for n, block in enumerate(shape.leaves)}
    copy: dict[int, Hop] = {}
    for hop in shape.order:
        if isinstance(hop, DataOp):
            symbol = symbols[ordinal_of[id(hop.data)]]
            copy[hop.id] = DataOp(
                hop.data if symbol is None else symbol,
                name=hop.name, nnz_unknown=hop.nnz_unknown,
            )
        elif isinstance(hop, LiteralOp):
            copy[hop.id] = LiteralOp(hop.value, shape.bound.get(hop.id, -1))
        else:
            copy[hop.id] = clone_structural(
                hop, [copy[i.id] for i in hop.inputs]
            )
    return [copy[root.id] for root in shape.roots], symbols
