"""IR verifier: HOP DAG and lowered ``Program`` invariant checking.

The compiler's correctness rests on invariants the test suite only
samples: dims stay consistent through rewrites and codegen splicing,
fused operators exactly cover the hops they replace, and the
refcounted eager-freeing executor never reads a freed slot.  This
module checks those invariants explicitly, at pipeline stage
boundaries, behind ``CodegenConfig.verify_level``:

``verify_dag``
    * acyclicity (via :func:`~repro.hops.hop.topological_order`),
    * parent/input link symmetry with edge multiplicity,
    * dims consistency per op semantics: each hop's stored ``rows`` /
      ``cols`` must equal what ``refresh_sizes()`` recomputes from its
      inputs (the snapshot is restored afterwards, so verification
      never mutates the DAG).  nnz *estimates* are checked for range
      only (``-1`` or ``0..cells``): rewires legitimately leave
      downstream estimates stale-but-bounded, and estimate exactness
      is re-established by adaptive recompilation, not by rewrites,
    * exec-type legality: no SPARK placement without a cluster, and
      never on leaves,
    * fused-operator coverage: ``SpoofOp.covered_roots`` non-empty and
      disjoint across the spoofs of one DAG, extraction indices in
      range, multi-aggregate output shape ``k x 1``.

``verify_program``
    * slot discipline: every read slot defined (constant or earlier
      write) before use, single assignment, no writes to constants,
    * declared ``consumer_counts`` equal the actual per-slot reads,
    * static use-after-free: simulating the executor's eager freeing
      with the *declared* counts never reads a freed slot,
    * collect boundaries at every exec-type transition and at blocked
      program roots (distributed programs only),
    * recompile-marker discipline: ``spoof_out`` never marked, checked
      slots observed, ``recompile_segments()`` contiguously covering
      the instruction range — so spliced remainder programs re-enter
      the same checks through the pipeline on adaptive recompile,
    * parallelism: each instruction's ``parts`` is what lowering's
      policy (:mod:`repro.runtime.parallel`) gives on its main input's
      dims.

:func:`check_dag` / :func:`check_program` are the raising wrappers the
pipeline calls: findings increment ``RuntimeStats.n_verifier_findings``
and abort the compile with :class:`~repro.errors.VerificationError`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.compiler.program import (
    Program,
    _consumes_blocked_values,
    _emits_blocked_value,
    instruction_parts,
)
from repro.config import DEFAULT_CONFIG, CodegenConfig
from repro.errors import CompileError, ShapeError, VerificationError
from repro.hops.hop import (
    Hop,
    SpoofOp,
    SpoofOutOp,
    topological_order,
)
from repro.hops.types import ExecType, OpKind


@dataclass
class Finding:
    """One violated invariant, anchored to a hop or instruction."""

    code: str  # short rule id, e.g. "dims-mismatch", "use-after-free"
    subject: str  # "hop 17 b(*)" or "instruction [3] hop(b(+))"
    message: str
    stage: str = ""

    def __str__(self) -> str:
        where = f" at {self.stage}" if self.stage else ""
        return f"[{self.code}]{where} {self.subject}: {self.message}"


def format_report(findings: list) -> str:
    """Human-readable multi-line report of a findings list."""
    if not findings:
        return "verification clean (0 findings)"
    lines = [f"{len(findings)} finding(s):"]
    lines.extend(f"  {finding}" for finding in findings)
    return "\n".join(lines)


def _hop_label(hop: Hop) -> str:
    return f"hop {hop.id} {hop.opcode()}"


def _instr_label(instr) -> str:
    return f"instruction [{instr.index}] {instr.opcode}({instr.hop.opcode()})"


# ----------------------------------------------------------------------
# HOP DAG verification
# ----------------------------------------------------------------------
def verify_dag(roots: list[Hop], cluster: bool = False,
               stage: str = "") -> list[Finding]:
    """Verify a multi-root HOP DAG; returns all findings (empty = ok)."""
    findings: list[Finding] = []

    def flag(code: str, hop: Hop, message: str) -> None:
        findings.append(Finding(code, _hop_label(hop), message, stage))

    try:
        order = topological_order(roots)
    except CompileError as exc:
        return [Finding("dag-cycle", "dag", str(exc), stage)]

    claimed: dict[int, SpoofOp] = {}  # covered-root hop id -> claiming spoof
    for hop in order:
        _check_links(hop, flag)
        _check_dims(hop, flag)
        _check_exec_type(hop, cluster, flag)
        if isinstance(hop, SpoofOp):
            _check_spoof(hop, claimed, flag)
        elif isinstance(hop, SpoofOutOp):
            spoof = hop.inputs[0] if hop.inputs else None
            if not isinstance(spoof, SpoofOp):
                flag("coverage", hop, "extractor input is not a SpoofOp")
            elif not 0 <= hop.index < len(spoof.covered_roots):
                flag(
                    "coverage", hop,
                    f"extraction index {hop.index} outside the operator's "
                    f"{len(spoof.covered_roots)} covered root(s)",
                )
    return findings


def _check_links(hop: Hop, flag) -> None:
    """Each input edge must have a matching parent edge (multiplicity)."""
    need = Counter(id(child) for child in hop.inputs)
    seen: set[int] = set()
    for child in hop.inputs:
        if id(child) in seen:
            continue
        seen.add(id(child))
        got = sum(1 for parent in child.parents if parent is hop)
        if got < need[id(child)]:
            flag(
                "broken-link", hop,
                f"input {_hop_label(child)} holds {got} parent link(s) "
                f"back, expected {need[id(child)]}",
            )


def _check_dims(hop: Hop, flag) -> None:
    """Stored dims must match a recompute from the inputs; nnz bounded.

    ``refresh_sizes`` is deterministic in the inputs, so snapshotting,
    refreshing, comparing, and restoring checks the op's own shape
    semantics without duplicating them here.  ``SpoofOp`` is handled
    structurally instead: its refresh restores construction-time state
    that the optimizer deliberately overrides for multi-aggregate
    operators (``k x 1`` stacked output).
    """
    if isinstance(hop, SpoofOp):
        if len(hop.covered_roots) > 1:
            expected = (len(hop.covered_roots), 1)
            if (hop.rows, hop.cols) != expected:
                flag(
                    "dims-mismatch", hop,
                    f"multi-aggregate operator is {hop.rows}x{hop.cols}, "
                    f"expected {expected[0]}x{expected[1]}",
                )
        elif hop.covered_roots and hop.dims != hop.covered_roots[0].dims:
            flag(
                "dims-mismatch", hop,
                f"operator is {hop.rows}x{hop.cols} but its covered root "
                f"is {hop.covered_roots[0].rows}x{hop.covered_roots[0].cols}",
            )
        return
    snapshot = (hop.rows, hop.cols, hop.nnz)
    try:
        hop.refresh_sizes()
        if (hop.rows, hop.cols) != snapshot[:2]:
            flag(
                "dims-mismatch", hop,
                f"stored dims {snapshot[0]}x{snapshot[1]} but op semantics "
                f"give {hop.rows}x{hop.cols}",
            )
    except ShapeError as exc:  # an illegal rewrite
        flag("illegal-op", hop, f"refresh_sizes failed: {exc}")
    finally:
        hop.rows, hop.cols, hop.nnz = snapshot
    if hop.nnz != -1 and not 0 <= hop.nnz <= hop.cells:
        flag(
            "nnz-range", hop,
            f"nnz estimate {hop.nnz} outside [0, {hop.cells}]",
        )


def _check_exec_type(hop: Hop, cluster: bool, flag) -> None:
    if hop.exec_type is not ExecType.SPARK:
        return
    if not cluster:
        flag("exec-type", hop, "SPARK placement without a cluster config")
    elif hop.kind in (OpKind.DATA, OpKind.LITERAL):
        flag("exec-type", hop, "leaf placed on SPARK (leaves are CP)")


def _check_spoof(hop: SpoofOp, claimed: dict, flag) -> None:
    if not hop.covered_roots:
        flag("coverage", hop, "fused operator covers no roots")
        return
    for covered in hop.covered_roots:
        other = claimed.get(covered.id)
        if other is not None and other is not hop:
            flag(
                "coverage", hop,
                f"covered root {_hop_label(covered)} already claimed by "
                f"{_hop_label(other)} (partitions must be disjoint)",
            )
        else:
            claimed[covered.id] = hop


# ----------------------------------------------------------------------
# Program verification
# ----------------------------------------------------------------------
def verify_program(program: Program, stage: str = "",
                   config: CodegenConfig = DEFAULT_CONFIG) -> list[Finding]:
    """Verify a program lowered under ``config``; returns all findings."""
    findings: list[Finding] = []

    def flag(code: str, subject: str, message: str) -> None:
        findings.append(Finding(code, subject, message, stage))

    n_slots = program.n_slots
    constant_slots = {slot for slot, _ in program.constants}
    if len(constant_slots) != len(program.constants):
        flag("slot-discipline", "constants",
             "duplicate constant slot assignment")

    def slot_ok(slot: int, subject: str, role: str) -> bool:
        if 0 <= slot < n_slots:
            return True
        flag("slot-range", subject,
             f"{role} slot {slot} outside [0, {n_slots})")
        return False

    if len(program.consumer_counts) != n_slots:
        flag(
            "refcount-mismatch", "program",
            f"consumer_counts has {len(program.consumer_counts)} entries "
            f"for {n_slots} slots",
        )
        return findings  # the simulation below needs aligned counts

    defined = set(constant_slots)
    producer: dict[int, int] = {}
    actual_reads = [0] * n_slots
    live_counts = list(program.consumer_counts)
    pinned = program.pinned

    for position, instr in enumerate(program.instructions):
        subject = _instr_label(instr)
        if instr.index != position:
            flag("instruction-order", subject,
                 f"index {instr.index} at list position {position}")
        parts = instruction_parts(instr, config)
        if instr.parts != parts:
            flag("parallelism", subject,
                 f"parts {instr.parts} != {parts} of its main input")
        for slot in instr.input_slots:
            if not slot_ok(slot, subject, "input"):
                continue
            if slot not in defined:
                flag("use-before-def", subject,
                     f"reads slot {slot} before any definition")
            elif live_counts[slot] <= 0 and slot not in pinned:
                flag(
                    "use-after-free", subject,
                    f"reads slot {slot} after its declared last consumer "
                    "(eager freeing would have dropped it)",
                )
            actual_reads[slot] += 1
            live_counts[slot] -= 1
        if slot_ok(instr.output_slot, subject, "output"):
            if instr.output_slot in constant_slots:
                flag("slot-discipline", subject,
                     f"writes constant slot {instr.output_slot}")
            elif instr.output_slot in defined:
                flag("slot-discipline", subject,
                     f"second write to slot {instr.output_slot}")
            defined.add(instr.output_slot)
            producer[instr.output_slot] = instr.index

    _check_refcounts(program, actual_reads, producer, flag)

    for slot in program.root_slots:
        if slot_ok(slot, "roots", "root") and slot not in defined:
            flag("use-before-def", "roots", f"root slot {slot} never defined")
    expected_pinned = constant_slots | set(program.root_slots)
    missing_pins = expected_pinned - pinned
    if missing_pins:
        flag(
            "pin-missing", "program",
            f"slots {sorted(missing_pins)} (constants/roots) are not "
            "pinned against eager freeing",
        )

    if getattr(program, "distributed", False):
        _check_collect_boundaries(program, flag)
    _check_recompile_markers(program, flag)
    return findings


def _check_refcounts(program: Program, actual_reads: list, producer: dict,
                     flag) -> None:
    for slot, declared in enumerate(program.consumer_counts):
        if declared == actual_reads[slot]:
            continue
        index = producer.get(slot)
        subject = (
            _instr_label(program.instructions[index])
            if index is not None else f"constant slot {slot}"
        )
        flag(
            "refcount-mismatch", subject,
            f"slot {slot} declares {declared} consumer(s) but "
            f"{actual_reads[slot]} instruction read(s) exist",
        )


def _check_collect_boundaries(program: Program, flag) -> None:
    """Every blocked (SPARK-produced) slot read by a CP consumer or
    exposed as a root must pass through a ``collect`` instruction."""
    blocked = {
        instr.output_slot for instr in program.instructions
        if _emits_blocked_value(instr)
    }
    if not blocked:
        return
    for instr in program.instructions:
        if instr.opcode == "collect" or _consumes_blocked_values(instr):
            continue
        for slot in instr.input_slots:
            if slot in blocked:
                flag(
                    "missing-collect", _instr_label(instr),
                    f"CP consumer reads blocked slot {slot} without a "
                    "collect boundary",
                )
    for slot in program.root_slots:
        if slot in blocked:
            flag(
                "missing-collect", "roots",
                f"root slot {slot} stays blocked (no collect before the "
                "program boundary)",
            )


def _check_recompile_markers(program: Program, flag) -> None:
    any_marked = False
    for instr in program.instructions:
        if not instr.meta_checks:
            continue
        any_marked = True
        subject = _instr_label(instr)
        if instr.opcode == "spoof_out":
            flag("recompile-markers", subject,
                 "extractor carries meta checks (must stay glued to its "
                 "operator)")
        for slot, estimate, cells in instr.meta_checks:
            if not 0 <= slot < program.n_slots:
                flag("recompile-markers", subject,
                     f"meta check on out-of-range slot {slot}")
                continue
            if estimate < 0 or cells < 0:
                flag("recompile-markers", subject,
                     f"negative meta-check estimate for slot {slot}")
    if program.has_recompile_markers != any_marked:
        flag(
            "recompile-markers", "program",
            f"has_recompile_markers={program.has_recompile_markers} but "
            f"marked instructions {'exist' if any_marked else 'are absent'}",
        )
    segments = program.recompile_segments()
    expected_start = 0
    for start, end in segments:
        if start != expected_start or end <= start:
            flag(
                "recompile-markers", "program",
                f"segment ({start}, {end}) breaks contiguous coverage at "
                f"{expected_start}",
            )
            break
        expected_start = end
    if segments and expected_start != program.n_instructions:
        flag(
            "recompile-markers", "program",
            f"segments cover [0, {expected_start}) of "
            f"{program.n_instructions} instructions",
        )


# ----------------------------------------------------------------------
# Raising wrappers (pipeline integration)
# ----------------------------------------------------------------------
def _raise_on_findings(findings: list, stats, what: str) -> None:
    if not findings:
        return
    if stats is not None:
        with stats.lock:
            stats.n_verifier_findings += len(findings)
    raise VerificationError(f"{what} failed verification: "
                            f"{format_report(findings)}")


def check_dag(roots: list[Hop], ctx, stage: str) -> None:
    """Verify a DAG inside the pipeline; raises on any finding."""
    findings = verify_dag(
        roots, cluster=ctx.config.cluster is not None, stage=stage
    )
    _raise_on_findings(findings, ctx.stats, f"HOP DAG ({stage})")


def check_program(program: Program, ctx, stage: str) -> None:
    """Verify a lowered program inside the pipeline; raises on findings."""
    findings = verify_program(program, stage=stage, config=ctx.config)
    _raise_on_findings(findings, ctx.stats, f"program ({stage})")


__all__ = [
    "Finding",
    "check_dag",
    "check_program",
    "format_report",
    "verify_dag",
    "verify_program",
]
