"""Prepared programs: compile once, serve many times.

A :class:`PreparedProgram` wraps an expression builder or a
parameterized script and maintains a cache of **specializations**: one
lowered :class:`~repro.compiler.program.Program` per input-shape
signature (exact dims + dense/sparse storage class per matrix input,
literal value per scalar input).  The serving lifecycle:

* **prepare** — parse/validate once; nothing is compiled yet,
* **bind** — normalize a request's inputs, look up the specialization
  for their signature; a *hit* reuses the cached program (no trace, no
  rewrites, no codegen, no lowering), a *miss* traces the builder/script
  against symbolic input slots and runs the full compile pipeline — the
  dynamic-recompilation path of Section 2.1, keyed by shape instead of
  failing on mismatch,
* **execute** — run the immutable shared program with the request's
  blocks injected through the executor's ``bindings`` overlay, so
  concurrent requests each get an isolated symbol-table epoch.

The cache is a :class:`~repro.compiler.speccache.SpecializationCache`,
the class behind ``Engine.execute``'s program cache too (single-flight
compile, LRU bound).  The two keep different keys on purpose: the
engine signs the DAG it is handed, while a prepared program must not
even trace its builder on a hit, so it signs the *inputs* — and bakes
scalar inputs into the key, because builders branch on them in Python.

Generated fused operators inside different specializations share the
process-wide plan cache (semantic CPlan hash), so a shape-specialized
recompile typically reuses every compiled operator class.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import api
from repro.errors import ServingError, UnbatchableProgramError
from repro.hops import memory
from repro.hops.hop import DataOp
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.matrix import MatrixBlock
from repro.runtime.skeletons import row_parts
from repro.compiler.speccache import SpecializationCache
from repro.compiler.symbolic import SymbolicBlock
from repro.serve.symbolic import (
    input_signature,
    normalize_inputs,
    request_bytes,
)

#: Per-root batching roles (micro-batch output handling).
SPLIT = "split"  # output rows align with the stacked batch dimension
REPLICATE = "replicate"  # independent of batch inputs; same for everyone


class Specialization:
    """One compiled shape-specialization of a prepared program."""

    __slots__ = ("signature", "program", "input_slots", "layout",
                 "program_bytes", "batch_roles", "batch_rows")

    def __init__(self, signature, program, input_slots, layout,
                 program_bytes, batch_roles, batch_rows):
        self.signature = signature
        self.program = program
        self.input_slots = input_slots  # name -> constant slot
        self.layout = layout  # ("single"|"list"|"dict", [(key, entry)])
        self.program_bytes = program_bytes  # intermediate-footprint estimate
        self.batch_roles = batch_roles  # per-root SPLIT/REPLICATE/None
        self.batch_rows = batch_rows  # batch-dim rows this spec compiled for


class BoundRequest:
    """A specialization plus the slot bindings of one request."""

    __slots__ = ("spec", "bindings", "inputs")

    def __init__(self, spec, bindings, inputs):
        self.spec = spec
        self.bindings = bindings
        self.inputs = inputs

    @property
    def estimated_bytes(self) -> float:
        """Admission-control footprint: inputs + intermediates."""
        return request_bytes(self.inputs) + self.spec.program_bytes


class BatchBound:
    """A bound stacked micro-batch plus per-request row counts."""

    __slots__ = ("bound", "row_counts")

    def __init__(self, bound: BoundRequest, row_counts: list[int]):
        self.bound = bound
        self.row_counts = row_counts

    @property
    def estimated_bytes(self) -> float:
        return self.bound.estimated_bytes


class PreparedProgram:
    """A compile-once, execute-many program with shape specializations."""

    def __init__(self, engine, builder, name: str = "prepared",
                 batch_inputs: tuple = (), max_specializations: int = 64):
        self.engine = engine
        self.name = name
        self.batch_inputs = tuple(batch_inputs)
        self._builder = builder  # dict[str, Mat|float] -> Mat|list|dict
        self._script = None
        self._cache = SpecializationCache(max_specializations)

    # ------------------------------------------------------------------
    @classmethod
    def from_script(cls, engine, source: str, name: str = "script",
                    batch_inputs: tuple = (), **options):
        """Prepare a parameterized script (see ``input`` declarations)."""
        from repro.lang.ast import declared_inputs
        from repro.lang.parser import parse

        script = parse(source)
        prepared = cls(engine, None, name=name, batch_inputs=batch_inputs,
                       **options)
        prepared._script = script
        prepared.declared = declared_inputs(script)
        return prepared

    @property
    def n_specializations(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # Bind: specialization lookup / dynamic recompilation
    # ------------------------------------------------------------------
    def bind(self, inputs: dict) -> BoundRequest:
        """Resolve a request to a (possibly new) specialization."""
        declared = getattr(self, "declared", ())
        missing = [n for n in declared if n not in inputs]
        if missing:
            raise ServingError(
                f"'{self.name}' is missing declared input(s): {missing}"
            )
        with self.engine.tracer.span("serve-bind", cat="serve",
                                     program=self.name):
            normalized = normalize_inputs(inputs)
            signature = input_signature(normalized)
            spec = self._cache.get_or_build(
                signature, lambda: self._specialize(signature, normalized),
                self.engine.stats,
            )
        bindings = {}
        for input_name, slot in spec.input_slots.items():
            bindings[slot] = normalized[input_name]
        return BoundRequest(spec, bindings, normalized)

    def _specialize(self, signature, normalized: dict) -> Specialization:
        """A cache miss: trace and compile this signature's program."""
        is_recompile = len(self._cache) > 0
        with self.engine.tracer.span("specialize-compile", cat="serve",
                                     program=self.name):
            spec = self._compile(signature, normalized)
        if is_recompile:
            stats = self.engine.stats
            with stats.lock:
                stats.n_shape_recompiles += 1
        return spec

    def execute_bound(self, bound: BoundRequest):
        """Run a bound request on the engine's shared executor."""
        values = self.engine.executor.run(bound.spec.program, bound.bindings)
        return self._package(bound.spec, values)

    def run(self, inputs: dict):
        """Bind and execute one request synchronously."""
        return self.execute_bound(self.bind(inputs))

    __call__ = run

    # ------------------------------------------------------------------
    # Micro-batching
    # ------------------------------------------------------------------
    def bind_batch(self, inputs_list: list[dict]) -> "BatchBound":
        """Bind several requests to one stacked specialization.

        Requests must agree on every non-batch input (the scheduler
        checks compatibility before calling).  Raises ``ServingError``
        when this program's outputs cannot be split per request; the
        caller falls back to individual execution.
        """
        if not self.batch_inputs:
            raise UnbatchableProgramError(
                f"'{self.name}' declared no batch inputs"
            )
        normalized = [normalize_inputs(inputs) for inputs in inputs_list]
        row_counts = []
        for inputs in normalized:
            rows = {inputs[name].rows for name in self.batch_inputs}
            if len(rows) != 1:
                raise ServingError(
                    "batch inputs of one request disagree on rows"
                )
            row_counts.append(rows.pop())
        stacked = dict(normalized[0])
        for name in self.batch_inputs:
            stacked[name] = _stack_blocks(
                [inputs[name] for inputs in normalized]
            )
        bound = self.bind(stacked)
        if any(role is None for role in bound.spec.batch_roles):
            raise UnbatchableProgramError(
                f"'{self.name}' has outputs that cannot be split per "
                "request (e.g. full aggregates over the batch dimension, "
                "or plans that baked a batch input's dimensions)"
            )
        return BatchBound(bound, row_counts)

    def execute_batch(self, batch: "BatchBound") -> list:
        """Run a stacked batch and split outputs per request."""
        bound = batch.bound
        roles = bound.spec.batch_roles
        values = self.engine.executor.run(bound.spec.program, bound.bindings)
        offsets = np.cumsum([0] + batch.row_counts).tolist()
        bounds = list(zip(offsets[:-1], offsets[1:]))
        # A stacked matrix output splits into one row range per request;
        # every other output is shared by all of them.
        columns = [
            row_parts(value, bounds)
            if role == SPLIT and isinstance(value, MatrixBlock)
            else [value] * len(bounds)
            for value, role in zip(values, roles)
        ]
        return [
            self._package(bound.spec, [column[index] for column in columns])
            for index in range(len(bounds))
        ]

    def run_batch(self, inputs_list: list[dict]) -> list:
        """Bind and execute several requests as one stacked run."""
        return self.execute_batch(self.bind_batch(inputs_list))

    # ------------------------------------------------------------------
    # Compilation (specialization miss)
    # ------------------------------------------------------------------
    def _placeholders(self, normalized: dict) -> dict:
        slots: dict = {}
        for name, value in normalized.items():
            if isinstance(value, float):
                slots[name] = value  # baked literal (part of the signature)
            elif isinstance(value, CompressedMatrix):
                slots[name] = api.matrix(value, name=name)  # baked constant
            else:
                slots[name] = api.Mat(
                    DataOp(SymbolicBlock.like(name, value), name=name)
                )
        return slots

    def _trace(self, normalized: dict):
        """Build the output expressions over symbolic input slots.

        Also reports which symbolic inputs had their *dimensions* read
        into trace-time scalars (script ``nrow``/``ncol``): those bake
        the traced shape into the plan.  Expression builders are plain
        Python — shape reads there cannot be traced, so builders that
        specialize logic on a batch input's shape must not declare it
        in ``batch_inputs``.
        """
        slots = self._placeholders(normalized)
        if self._script is not None:
            outputs, dim_reads = _trace_script(self.engine, self._script,
                                               slots, self.name)
            kind = "dict"
        else:
            result = self._builder(slots)
            dim_reads = frozenset()
            if isinstance(result, dict):
                kind, outputs = "dict", list(result.items())
            elif isinstance(result, (list, tuple)):
                kind, outputs = "list", [(None, v) for v in result]
            else:
                kind, outputs = "single", [(None, result)]
        return kind, outputs, dim_reads

    def _compile(self, signature, normalized: dict) -> Specialization:
        kind, outputs, dim_reads = self._trace(normalized)
        roots = []
        root_index: dict[int, int] = {}  # hop id -> position in roots
        entries = []
        for key, value in outputs:
            if isinstance(value, float):
                entries.append((key, ("const", value)))
                continue
            if not isinstance(value, api.Mat):
                raise ServingError(
                    f"'{self.name}' produced a {type(value).__name__}; "
                    "outputs must be expressions or scalars"
                )
            hop = value.hop
            position = root_index.get(hop.id)
            if position is None:
                position = len(roots)
                root_index[hop.id] = position
                roots.append(hop)
            entries.append((key, ("root", position)))
        if not roots:
            raise ServingError(f"'{self.name}' produced no outputs")

        program = self.engine.compile(roots)
        input_slots = {
            value.name: slot
            for slot, value in program.constants
            if isinstance(value, SymbolicBlock)
        }
        program_bytes = sum(
            memory.output_bytes(instr.hop) for instr in program.instructions
        )
        batch_roles, batch_rows = _analyze_batch(
            program, self.batch_inputs
        )
        if any(name in self.batch_inputs for name in dim_reads):
            # The trace baked a batch input's dimensions into scalars
            # (nrow/ncol): a stacked compile would bake the *stacked*
            # row count and silently corrupt per-request results.
            batch_roles = [None] * len(batch_roles)
        return Specialization(signature, program, input_slots,
                              (kind, entries), program_bytes,
                              batch_roles, batch_rows)

    # ------------------------------------------------------------------
    def _package(self, spec: Specialization, root_values: list):
        kind, entries = spec.layout

        def value_of(entry):
            tag, payload = entry
            return root_values[payload] if tag == "root" else payload

        if kind == "dict":
            return {key: value_of(entry) for key, entry in entries}
        if kind == "single":
            return value_of(entries[0][1])
        return [value_of(entry) for _, entry in entries]

    def __repr__(self) -> str:
        return (f"PreparedProgram({self.name!r}, "
                f"{self.n_specializations} specialization(s))")


# ----------------------------------------------------------------------
# Script tracing
# ----------------------------------------------------------------------
def _trace_script(engine, script, slots: dict, name: str):
    """Symbolically interpret a script into lazy output expressions.

    Control flow that resolves from scalar inputs (baked into the
    specialization signature) unrolls into the DAG; branching on matrix
    data raises — such scripts need the regular interpreter.
    """
    from repro.lang.interp import TracingInterpreter

    tracer = TracingInterpreter(engine)
    for slot_name, value in slots.items():
        tracer.env[slot_name] = value
    tracer.execute(script)
    return list(tracer.env.items()), frozenset(tracer.dim_reads)


# ----------------------------------------------------------------------
# Batch analysis and block stacking
# ----------------------------------------------------------------------
# Per-slot batch-dependence status used by _analyze_batch.
_UNTAINTED = 0  # independent of every batch input
_ALIGNED = 1  # rows correspond 1:1 with the stacked batch rows
_MIXED = 2  # batch-dependent, but rows no longer track requests


def _row_local(instr, input_statuses) -> bool:
    """Does ``instr`` map each batch row independently to an output row?

    Only then may its output be split by request row offsets.  Requires
    every batch-dependent input to be row-ALIGNED already; this check
    adds the per-operator structure: cell-wise maps, row aggregations,
    matmuls with an aligned left operand, cbind, and Cell/Row fused
    operators that never read an aligned input in full (broadcast)
    access.  Cross-row operators (cumsum, transpose, rbind, indexing
    row subsets, column/full aggregations) are not row-local.
    """
    from repro.hops.hop import (
        AggBinaryOp,
        AggUnaryOp,
        BinaryOp,
        IndexingOp,
        NaryOp,
        ReorgOp,
        SpoofOp,
        TernaryOp,
        UnaryOp,
    )
    from repro.hops.types import AggDir

    hop = instr.hop
    if instr.opcode == "collect":
        return True  # identity on the materialized value
    if instr.opcode in ("fused", "spoof_out"):
        return False
    if instr.opcode == "spoof":
        assert isinstance(hop, SpoofOp)
        if hop.template_name not in ("Cell", "Row"):
            return False
        from repro.codegen.cplan import Access

        # SpoofOp inputs are positionally the CPlan inputs: an aligned
        # input consumed in full (broadcast) access would mix rows.
        for status, spec in zip(input_statuses, hop.operator.cplan.inputs):
            if status == _ALIGNED and spec.access is Access.SIDE_FULL:
                return False
        return True
    if isinstance(hop, UnaryOp):
        return hop.op != "cumsum"  # column-wise prefix scan mixes rows
    if isinstance(hop, (BinaryOp, TernaryOp)):
        return True  # cell-wise with broadcasting; aligned inputs have
        # batch_rows rows, so no tainted row-vector can broadcast across
    if isinstance(hop, AggUnaryOp):
        return hop.direction is AggDir.ROW
    if isinstance(hop, AggBinaryOp):
        # Row-local iff only the left operand carries batch rows.
        return input_statuses[1] == _UNTAINTED
    if isinstance(hop, NaryOp):
        return hop.op == "cbind"
    if isinstance(hop, IndexingOp):
        # Column slicing keeps rows aligned; row subsets shift offsets.
        return hop.rl == 0 and hop.ru == hop.inputs[0].rows
    if isinstance(hop, ReorgOp):
        return False
    return False


def _analyze_batch(program, batch_inputs: tuple):
    """Classify each program root for micro-batch output splitting.

    Tracks, per symbol-table slot, whether the value is independent of
    every batch input (**replicate**), row-ALIGNED with the stacked
    batch dimension (**split** by request row offsets), or
    batch-dependent with rows that no longer track requests — e.g. a
    Gram matrix ``X %*% t(X)`` or ``cumsum`` over the stacked rows —
    which makes the specialization unbatchable (``None`` role).
    """
    if not batch_inputs:
        return [None] * len(program.root_slots), 0
    batch_slots = {
        slot for slot, value in program.constants
        if isinstance(value, SymbolicBlock) and value.name in batch_inputs
    }
    batch_rows = 0
    for slot, value in program.constants:
        if slot in batch_slots:
            batch_rows = value.rows
            break
    status = [_UNTAINTED] * program.n_slots
    for slot in batch_slots:
        status[slot] = _ALIGNED
    for instr in program.instructions:
        input_statuses = [status[slot] for slot in instr.input_slots]
        if all(s == _UNTAINTED for s in input_statuses):
            continue  # output stays untainted
        aligned = (
            all(s != _MIXED for s in input_statuses)
            and instr.hop.is_matrix
            and instr.hop.rows == batch_rows
            and _row_local(instr, input_statuses)
        )
        status[instr.output_slot] = _ALIGNED if aligned else _MIXED
    role_of = {_UNTAINTED: REPLICATE, _ALIGNED: SPLIT, _MIXED: None}
    roles = [role_of[status[slot]] for slot in program.root_slots]
    return roles, batch_rows


def _stack_blocks(blocks: list) -> MatrixBlock:
    """rbind request blocks into one batch block."""
    cols = {block.cols for block in blocks}
    if len(cols) != 1:
        raise ServingError("batched inputs disagree on columns")
    if any(not isinstance(block, MatrixBlock) for block in blocks):
        raise ServingError("only MatrixBlock inputs can be batched")
    if all(block.is_sparse for block in blocks):
        stacked = MatrixBlock(sp.vstack([b.to_csr() for b in blocks]))
        return stacked.examine_representation()
    return MatrixBlock(np.vstack([b.to_dense() for b in blocks]))
