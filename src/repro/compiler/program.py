"""Lowering: optimized HOP DAGs to a schedulable runtime ``Program``.

The compiler front half (:mod:`repro.compiler.pipeline`) produces an
optimized multi-root HOP DAG; this module lowers it into a flat
:class:`Program` of :class:`Instruction` objects over an explicit
symbol table:

* every hop value lives in a numbered symbol-table *slot*,
* ``DataOp``/``LiteralOp`` leaves become preloaded constant slots (no
  instruction is scheduled for them),
* every other hop becomes one instruction naming its input slots and
  output slot,
* in ``fused`` mode, hand-coded pattern matching happens *here*, at
  compile time: a matched pattern lowers into a single ``fused``
  instruction reading the pattern's leaf slots.

Both passes here (lowering and the recompile markers) are
:func:`~repro.hops.hop.topological_order` walks.

The resulting program is what the runtime executor
(:mod:`repro.runtime.executor`) runs, in instruction order, with
reference counts per slot enabling eager freeing of dead intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DEFAULT_CONFIG, CodegenConfig
from repro.hops.hop import DataOp, Hop, LiteralOp, SpoofOp, SpoofOutOp, topological_order
from repro.hops.types import ExecType, OpKind
from repro.runtime import parallel


@dataclass
class Instruction:
    """One lowered operation over symbol-table slots.

    ``opcode`` is one of:

    * ``hop``       — a basic operator dispatched to the kernel library
                      (or the distributed backend, per ``hop.exec_type``),
    * ``spoof``     — a generated fused operator (``hop.operator``),
    * ``spoof_out`` — scalar extraction from a multi-aggregate output,
    * ``fused``     — a hand-coded fused pattern (``fused_match``),
    * ``collect``   — materialize a distributed (blocked) intermediate
                      at an exec-type boundary or program root.
    """

    index: int
    opcode: str
    hop: Hop
    input_slots: list[int]
    output_slot: int
    fused_match: object = None  # FusedMatch for opcode == "fused"
    # Row parts a CP-typed generated operator splits its main input
    # into (instruction_parts); 1 for every other instruction.
    parts: int = 1
    # Adaptive recompilation markers: (slot, estimated_nnz, cells) per
    # input whose compile-time metadata is unknown or derived from an
    # unknown estimate.  Non-empty checks start a recompilation segment:
    # the executor compares the estimate against the observed value and
    # recompiles the program remainder when they diverge.
    meta_checks: tuple = ()

    def __repr__(self) -> str:
        ins = ",".join(map(str, self.input_slots))
        return (
            f"[{self.index}] {self.opcode}({self.hop.opcode()}) "
            f"r{ins} -> w{self.output_slot}"
        )


@dataclass
class Program:
    """A lowered multi-root DAG ready to run.

    ``instructions`` are in a valid topological order, so execution is
    a flat loop.  ``consumer_counts[slot]`` is the number of
    instruction reads of that slot; ``pinned`` slots (constants and root
    outputs) are never freed.
    """

    instructions: list[Instruction] = field(default_factory=list)
    n_slots: int = 0
    constants: list = field(default_factory=list)  # (slot, value)
    root_slots: list[int] = field(default_factory=list)
    consumer_counts: list[int] = field(default_factory=list)
    pinned: set = field(default_factory=set)
    # Slot bookkeeping for adaptive recompilation: hop.id <-> slot for
    # every hop that owns a symbol-table slot (constants + outputs).
    hop_slots: dict = field(default_factory=dict)  # hop.id -> slot
    slot_hops: dict = field(default_factory=dict)  # slot -> Hop
    # True once annotate_recompile_markers found at least one marked
    # instruction; the executor skips all adaptive bookkeeping otherwise.
    has_recompile_markers: bool = False
    # True when lowered with a cluster configured: collect boundaries
    # were inserted, and the verifier re-derives them as an invariant.
    distributed: bool = False

    @property
    def n_instructions(self) -> int:
        return len(self.instructions)

    def recompile_segments(self) -> list[tuple[int, int]]:
        """Instruction index ranges between recompilation markers.

        A new segment starts at every instruction carrying meta checks;
        the executor may re-optimize the program remainder at each
        segment start.  A program without markers is one segment.
        """
        if not self.instructions:
            return []
        starts = [0] + [
            instr.index for instr in self.instructions
            if instr.meta_checks and instr.index != 0
        ]
        starts = sorted(set(starts))
        return [
            (start, starts[i + 1] if i + 1 < len(starts) else self.n_instructions)
            for i, start in enumerate(starts)
        ]

    def finalize(self) -> None:
        """Derive per-slot reference counts and pinned slots."""
        self.consumer_counts = [0] * self.n_slots
        for instr in self.instructions:
            for slot in instr.input_slots:
                self.consumer_counts[slot] += 1
        self.pinned = {slot for slot, _ in self.constants}
        self.pinned.update(self.root_slots)


def instruction_parts(instr: Instruction, config: CodegenConfig) -> int:
    """Row parts a CP-typed instruction splits its main input into: a
    generated operator's main, or a basic matrix multiply's left input
    (the paper's CP runtime multiplies multi-threaded too).  1 for every
    other instruction; SPARK partitions never nest a fan-out."""
    hop = instr.hop
    if hop.exec_type is ExecType.SPARK:
        return 1
    if instr.opcode == "spoof":
        main_index = hop.operator.cplan.main_index
        if main_index < 0:
            return 1
        main = hop.inputs[main_index]
    elif instr.opcode == "hop" and hop.kind is OpKind.AGG_BINARY:
        main = hop.inputs[0]
    else:
        return 1
    return parallel.intra_op_parts(main.rows, main.cols, config)


def _emits_blocked_value(instr: Instruction) -> bool:
    """True for instructions whose runtime output may stay distributed
    (a ``BlockedMatrix``) instead of a driver-side block."""
    return (
        instr.opcode in ("hop", "spoof")
        and instr.hop.exec_type is ExecType.SPARK
        and instr.hop.is_matrix
    )


def _consumes_blocked_values(instr: Instruction) -> bool:
    """True for instructions dispatched to the distributed backend,
    which accept ``BlockedMatrix`` inputs partition-wise."""
    return (
        instr.opcode in ("hop", "spoof")
        and instr.hop.exec_type is ExecType.SPARK
    )


def insert_collect_boundaries(program: Program) -> None:
    """Insert explicit ``collect`` instructions at exec-type boundaries.

    SPARK-typed instructions produce row-partitioned ``BlockedMatrix``
    values that chained SPARK consumers read partition-wise.  Any
    CP-typed consumer — and any program root — needs the materialized
    driver-side block instead, so each such slot gains one ``collect``
    instruction right after its producer; only the non-distributed
    readers are rewired to the collected slot.  Must run before
    :meth:`Program.finalize` (it renumbers instructions and slots).
    """
    blocked_slots = {
        instr.output_slot for instr in program.instructions
        if _emits_blocked_value(instr)
    }
    if not blocked_slots:
        return
    needs_collect = {
        slot for slot in program.root_slots if slot in blocked_slots
    }
    for instr in program.instructions:
        if _consumes_blocked_values(instr):
            continue
        needs_collect.update(
            slot for slot in instr.input_slots if slot in blocked_slots
        )
    if not needs_collect:
        return

    collected_slot: dict[int, int] = {}
    rebuilt: list[Instruction] = []
    for instr in program.instructions:
        if not _consumes_blocked_values(instr):
            # Producers appear before consumers (topological order), so
            # every needed collected slot already exists here.
            instr.input_slots = [
                collected_slot.get(slot, slot) for slot in instr.input_slots
            ]
        rebuilt.append(instr)
        if instr.output_slot in needs_collect:
            fresh = program.n_slots
            program.n_slots += 1
            collected_slot[instr.output_slot] = fresh
            rebuilt.append(
                Instruction(
                    index=0,  # renumbered below
                    opcode="collect",
                    hop=instr.hop,
                    input_slots=[instr.output_slot],
                    output_slot=fresh,
                )
            )
    for position, instr in enumerate(rebuilt):
        instr.index = position
    program.instructions = rebuilt
    program.root_slots = [
        collected_slot.get(slot, slot) for slot in program.root_slots
    ]


def lower_program(roots: list[Hop], mode: str,
                  config: CodegenConfig = DEFAULT_CONFIG) -> Program:
    """Lower an optimized multi-root HOP DAG into a :class:`Program`.

    Hops lower in :func:`~repro.hops.hop.topological_order` from the
    roots, which fixes instruction and slot order.  In ``fused`` mode
    hand-coded patterns are matched per demanded hop, and a matched
    hop's children are the pattern's leaves: intermediates covered by a
    pattern are lowered only if another consumer demands them
    separately (matching the old lazy interpreter's semantics).
    With a cluster configured, explicit ``collect`` instructions are
    inserted wherever a SPARK-typed producer feeds a CP-typed consumer
    or a program root.  Intra-operator parts are decided here, once, on
    exact dims.
    """
    from repro.compiler.fused_lib import match_fused_pattern

    use_fused = mode == "fused"
    program = Program()
    slot_of: dict[int, int] = {}
    matches: dict[int, object] = {}  # hop.id -> FusedMatch

    def assign_slot(hop: Hop) -> int:
        slot = program.n_slots
        program.n_slots += 1
        slot_of[hop.id] = slot
        program.hop_slots[hop.id] = slot
        program.slot_hops[slot] = hop
        return slot

    def emit(hop: Hop, match, deps: list[Hop]) -> None:
        if isinstance(hop, DataOp):
            program.constants.append((assign_slot(hop), hop.data))
            return
        if isinstance(hop, LiteralOp):
            program.constants.append((assign_slot(hop), hop.value))
            return
        input_slots = [slot_of[d.id] for d in deps]
        if match is not None:
            opcode = "fused"
        elif isinstance(hop, SpoofOutOp):
            opcode = "spoof_out"
        elif isinstance(hop, SpoofOp):
            opcode = "spoof"
        else:
            opcode = "hop"
        instr = Instruction(
            index=len(program.instructions),
            opcode=opcode,
            hop=hop,
            input_slots=input_slots,
            output_slot=assign_slot(hop),
            fused_match=match,
        )
        instr.parts = instruction_parts(instr, config)
        program.instructions.append(instr)

    def children(hop: Hop):
        leaf = isinstance(hop, (DataOp, LiteralOp))
        match = match_fused_pattern(hop) if use_fused and not leaf else None
        if match is not None:
            matches[hop.id] = match
            return match.leaves
        return hop.inputs

    for hop in topological_order(roots, children):
        match = matches.get(hop.id)
        emit(hop, match, match.leaves if match is not None else hop.inputs)

    program.root_slots = [slot_of[r.id] for r in roots]
    program.distributed = config.cluster is not None
    if program.distributed:
        insert_collect_boundaries(program)
    program.finalize()
    return program


# ----------------------------------------------------------------------
# Adaptive recompilation markers
# ----------------------------------------------------------------------
def annotate_recompile_markers(program: Program) -> int:
    """Mark instructions whose plan choices rest on unknown estimates.

    A matrix hop is *unknown-derived* when its own nnz is unknown
    (``< 0``) or any input is unknown-derived — its size/sparsity
    estimate (and every choice the compiler based on it) may be
    arbitrarily wrong.  Scalars never carry the taint: scalar values do
    not drive format or exec-type decisions.

    An instruction reading a slot whose producing hop is unknown-derived
    gains ``meta_checks``: (slot, estimated nnz, cells) triples the
    executor compares against the observed runtime values at the
    matching segment boundary (``recompile_segments``).  Estimates fall
    back to *assumed dense* (``cells``) when unknown, mirroring the
    compiler's conservative default.  ``spoof_out`` extractors stay
    glued to their producing operator (recompiling between them would
    recompute the whole aggregate).  Returns the number of marked
    instructions.
    """
    unknown: dict[int, bool] = {}
    for hop in topological_order(program.slot_hops.values()):
        unknown[hop.id] = hop.is_matrix and (
            hop.nnz < 0 or any(unknown[i.id] for i in hop.inputs)
        )
    n_marked = 0
    for instr in program.instructions:
        if instr.opcode == "spoof_out":
            continue
        checks = []
        seen: set[int] = set()
        for slot in instr.input_slots:
            if slot in seen:
                continue
            seen.add(slot)
            hop = program.slot_hops.get(slot)
            if hop is None or not hop.is_matrix or not unknown.get(hop.id):
                continue
            estimate = hop.nnz if hop.nnz >= 0 else hop.cells
            checks.append((slot, estimate, hop.cells))
        if checks:
            instr.meta_checks = tuple(checks)
            n_marked += 1
    program.has_recompile_markers = n_marked > 0
    return n_marked
