"""Runtime executor: runs lowered ``Program`` instructions in order.

A run is one flat loop over the (topologically ordered) instruction
list, on the calling thread.  Parallelism lives inside instructions:
a CP-typed generated fused operator splits its main input, and a CP
matrix multiply its left input, into the ``parts`` lowering fixed
(:mod:`repro.runtime.skeletons`); SPARK-typed ones fan out partitions
through the distributed backend.

The loop wraps each instruction in an instruction span when the
tracer records them, maintains per-slot reference counts and eagerly
frees intermediates once their last consumer ran (roots and constants
are pinned), cutting peak memory for long programs.  Counters (runs,
instructions, early frees) land in
:class:`~repro.runtime.stats.RuntimeStats`.

**Adaptive recompilation** (local runs): programs whose plan choices
rest on unknown sparsity estimates carry recompilation markers
(``instr.meta_checks``).  At each marked instruction the loop compares
the estimates against the nnz of the checked inputs' live values; when
they diverge beyond ``_RECOMPILE_DIVERGENCE_RATIO`` the program
remainder is recompiled (:mod:`repro.compiler.recompile`) with the
observed values spliced in as exact leaves, and execution continues
inside the fresh program through the same loop.  Distributed (Spark)
runs never recompile.

``run`` is safe to call from several threads at once against the same
executor (the serving scheduler multiplexes in-flight programs over
it): every run works on its own symbol-table ``values`` array, records
into a run-local stats object, and merges into the shared stats under
its lock.  Per-request inputs are injected through the ``bindings``
overlay — a prepared (shape-specialized) ``Program`` stays immutable
and is shared by all concurrent requests.

The simulated Spark backend mutates shared cost-model state, so
programs carrying a cluster config run one at a time (a dedicated lock
serializes them).
"""

from __future__ import annotations

from repro.analysis import lockset
from repro.config import CodegenConfig
from repro.errors import RuntimeExecError
from repro.hops.types import ExecType
from repro.obs import trace as obs_trace
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.matrix import MatrixBlock
from repro.runtime.stats import RuntimeStats

#: Estimate / observation nnz ratio (either way) at a segment boundary
#: that triggers recompiling the program remainder.
_RECOMPILE_DIVERGENCE_RATIO = 4.0

#: Upper bound on recompilations per executor run (settles runaway
#: oscillation; one recompile usually makes every estimate exact).
_MAX_RECOMPILES_PER_RUN = 5


def _record_output(stats: RuntimeStats, result) -> None:
    stats.n_intermediates += 1
    if isinstance(result, (MatrixBlock, CompressedMatrix)):
        stats.bytes_written += result.size_bytes


def _instr_label(instr) -> str:
    """Stable span/profile label for one instruction."""
    if instr.opcode == "spoof":
        return f"spoof:{instr.hop.operator.cplan.ttype.value}"
    if instr.opcode == "fused":
        name = getattr(instr.fused_match, "name", None) or "match"
        return f"fused:{name}"
    return f"{instr.opcode}:{instr.hop.opcode()}"


def _moved_bytes(inputs: list, result) -> float:
    """Bytes an instruction touched: matrix inputs plus its output."""
    total = 0.0
    for value in inputs:
        if isinstance(value, (MatrixBlock, CompressedMatrix)):
            total += value.size_bytes
    if isinstance(result, (MatrixBlock, CompressedMatrix)):
        total += result.size_bytes
    return total


def execute_instruction(instr, inputs: list, config: CodegenConfig,
                        stats: RuntimeStats, spark=None,
                        input_keys: list | None = None, output_key=None):
    """Execute one lowered instruction on runtime values.

    ``input_keys`` / ``output_key`` are lineage keys (stable per
    symbol-table slot) that the distributed backend's RDD-cache model
    uses instead of runtime-value identity.
    """
    from repro.runtime import ops as rops
    from repro.runtime.distributed import BlockedMatrix
    from repro.runtime.skeletons import execute_matmult, execute_operator

    hop = instr.hop
    if instr.opcode == "fused":
        has_compressed = any(
            isinstance(v, CompressedMatrix) for v in inputs
        )
        if has_compressed and not instr.fused_match.compressed_capable:
            # Hand-coded patterns without a dictionary-direct variant
            # run on blocks; the decompression is explicit and counted.
            stats.n_decompressions += 1
            inputs = [
                v.decompress() if isinstance(v, CompressedMatrix) else v
                for v in inputs
            ]
        elif has_compressed:
            stats.n_compressed_ops += 1
        result = instr.fused_match.compute(inputs)
        stats.record_spoof("Fused")
        _record_output(stats, result)
        return result
    if instr.opcode == "spoof_out":
        return float(inputs[0].get(hop.index, 0))
    if instr.opcode == "collect":
        # Exec-type boundary: materialize a distributed intermediate.
        value = inputs[0]
        if isinstance(value, BlockedMatrix):
            result = (
                spark.collect_value(value) if spark is not None
                else value.collect()
            )
        else:
            result = value  # producer already returned a local value
        _record_output(stats, result)
        return result
    if instr.opcode == "spoof":
        try:
            if spark is not None and hop.exec_type is ExecType.SPARK:
                result = spark.execute_instruction(
                    instr, inputs, input_keys, output_key
                )
            else:
                result = execute_operator(hop.operator, inputs, config,
                                          stats, instr.parts)
        except Exception as exc:
            # Generated code that raises is a compiler bug: name the
            # operator, whichever backend and thread it ran on.
            raise RuntimeExecError(
                f"generated operator {hop.operator.name} "
                f"({hop.operator.cplan.ttype.value}) failed: {exc}"
            ) from exc
        _record_output(stats, result)
        return result
    if spark is not None and hop.exec_type is ExecType.SPARK:
        result = spark.execute_instruction(
            instr, inputs, input_keys, output_key
        )
    elif instr.parts > 1:  # a CP matrix multiply (instruction_parts)
        result = execute_matmult(inputs[0], inputs[1], stats, instr.parts)
    else:
        result = rops.apply_spec(rops.hop_spec(hop), inputs, stats)
    _record_output(stats, result)
    return result


class ProgramExecutor:
    """Executes programs, one instruction at a time, in program order."""

    def __init__(self, config: CodegenConfig, stats: RuntimeStats,
                 spark=None, recompiler=None):
        self.config = config
        self.stats = stats
        self.spark = spark
        # Adaptive recompilation hook (compiler/recompile.Recompiler);
        # None for hand-built programs executed without an engine.
        self.recompiler = recompiler
        # Tracked locks: the lockset race detector verifies the epoch
        # counter and the Spark backend's shared state against them.
        self._lock = lockset.make_lock("ProgramExecutor._lock")
        # Serializes runs that dispatch to the (stateful) simulated
        # Spark backend; purely local runs may overlap freely.
        self._spark_run_lock = lockset.make_lock(
            "ProgramExecutor._spark_run_lock"
        )
        # Monotonic program counter: makes intermediate lineage keys
        # unique across the programs one engine executes.
        self._epoch = 0

    # ------------------------------------------------------------------
    def run(self, program, bindings: dict | None = None) -> list:
        """Execute a program; returns the root slot values.

        ``bindings`` maps symbol-table slots to runtime values that
        override the program's preloaded constants — how a prepared
        program binds per-request inputs into an isolated symbol-table
        epoch without mutating the shared ``Program``.
        """
        values: list = [None] * program.n_slots
        for slot, value in program.constants:
            values[slot] = value
        if bindings:
            for slot, value in bindings.items():
                values[slot] = value
        with self._lock:
            lockset.note_access("ProgramExecutor", self, "epoch")
            self._epoch += 1
            epoch = self._epoch

        tracer = self.stats.tracer
        with tracer.span("request", cat="request",
                         n_instructions=program.n_instructions):
            if self.spark is not None:
                # The simulated distributed backend mutates shared cache
                # / cost state: serialize whole runs and record directly
                # into the shared stats (held for the whole run).
                with self._spark_run_lock, self.stats.lock:
                    # Lineage keys of earlier runs (and of inputs whose
                    # source died) can never be probed again: the driver
                    # retires them from its cache and the workers'.
                    self.spark.prune_cache(epoch)
                    self._run(program, values, self.stats, epoch)
            else:
                run_stats = RuntimeStats()
                run_stats.tracer = tracer
                self._run(program, values, run_stats, epoch)
                self.stats.merge(run_stats)
        return [self._as_root_value(values[slot])
                for slot in program.root_slots]

    def _as_root_value(self, value):
        """Safety net: lowering inserts ``collect`` boundaries at roots,
        but a hand-built program may still leave a blocked root."""
        from repro.runtime.distributed import BlockedMatrix

        if isinstance(value, BlockedMatrix):
            if self.spark is not None:
                return self.spark.collect_value(value)
            return value.collect()
        return value

    def _adaptive_for(self, program) -> bool:
        """Does adaptive recompilation apply to this program?"""
        return (
            self.recompiler is not None
            and self.spark is None
            and self.config.adaptive_recompile
            and program.has_recompile_markers
        )

    # ------------------------------------------------------------------
    def _run(self, program, values: list, stats: RuntimeStats, epoch: int,
             recompiles_done: int = 0, continuation: bool = False) -> None:
        counts = list(program.consumer_counts)
        pinned = program.pinned
        slot_keys = (
            self.spark.slot_keys(program, epoch, values)
            if self.spark is not None else None
        )
        adaptive = self._adaptive_for(program)
        tracer = stats.tracer
        # Hoisted level check: at trace_level "off"/"phases" the loop
        # below pays one branch per instruction, nothing else.
        trace_instr = tracer.enabled(obs_trace.INSTRUCTIONS)
        executed = 0
        for instr in program.instructions:
            if (
                adaptive
                and instr.meta_checks
                and recompiles_done < _MAX_RECOMPILES_PER_RUN
                and self._diverged(instr, values, stats)
            ):
                with tracer.span("recompile-splice", cat="recompile",
                                 at_instruction=instr.index,
                                 op=_instr_label(instr)):
                    self._recompile_and_finish(
                        program, instr.index, values, stats, epoch,
                        recompiles_done
                    )
                break  # the remainder ran inside the recompiled program
            inputs = [values[slot] for slot in instr.input_slots]
            input_keys = output_key = None
            if slot_keys is not None:
                input_keys = [slot_keys[slot] for slot in instr.input_slots]
                output_key = slot_keys[instr.output_slot]
            if trace_instr:
                with tracer.span(_instr_label(instr), cat="instruction",
                                 level=obs_trace.INSTRUCTIONS,
                                 index=instr.index) as span:
                    result = execute_instruction(
                        instr, inputs, self.config, stats, self.spark,
                        input_keys, output_key
                    )
                    span.annotate(bytes=_moved_bytes(inputs, result))
            else:
                result = execute_instruction(
                    instr, inputs, self.config, stats, self.spark,
                    input_keys, output_key
                )
            values[instr.output_slot] = result
            executed += 1
            # Free the slots whose last consumer this was.
            for slot in instr.input_slots:
                counts[slot] -= 1
                if counts[slot] == 0 and slot not in pinned:
                    values[slot] = None
                    stats.n_freed_early += 1
        stats.n_instructions_executed += executed
        if not continuation:
            # Recompiled remainders continue the same logical run; only
            # the outermost invocation counts toward run totals.
            stats.n_serial_runs += 1

    def _diverged(self, instr, values: list, stats: RuntimeStats) -> bool:
        """Compare estimates against observed nnz at a segment boundary.

        Every checked slot is an input of ``instr``, so its value is
        live in ``values``; a block caches its nnz, so repeated checks
        are free.  Slots without a matrix (scalars) are skipped.  Every
        comparison lands in the divergence histogram; the check triggers
        when the worst ratio crosses the configured threshold.  ``+1``
        smoothing keeps empty observations finite.
        """
        tracer = stats.tracer
        worst = 0.0
        for slot, est_nnz, _cells in instr.meta_checks:
            value = values[slot]
            if not isinstance(value, (MatrixBlock, CompressedMatrix)):
                continue
            observed = value.nnz
            stats.n_meta_checks += 1
            ratio = max(
                (est_nnz + 1.0) / (observed + 1.0),
                (observed + 1.0) / (est_nnz + 1.0),
            )
            stats.record_divergence(ratio)
            if ratio >= _RECOMPILE_DIVERGENCE_RATIO:
                stats.n_estimate_misses += 1
            if tracer.level >= obs_trace.PHASES:
                tracer.instant(
                    "meta-check", cat="recompile", op=_instr_label(instr),
                    slot=slot, nnz_est=est_nnz, nnz_obs=observed,
                    ratio=ratio,
                )
            worst = max(worst, ratio)
        return worst >= _RECOMPILE_DIVERGENCE_RATIO

    def _recompile_and_finish(self, program, start_index: int, values: list,
                              stats: RuntimeStats, epoch: int,
                              recompiles_done: int) -> None:
        """Recompile the remainder with observed metadata and run it.

        The fresh program's root values are copied back into the
        original symbol table, so callers keep reading the original
        ``root_slots``.
        """
        new_program, old_root_slots = self.recompiler.recompile_remainder(
            program, start_index, values, stats
        )
        stats.n_recompiles += 1
        sub_values: list = [None] * new_program.n_slots
        for slot, value in new_program.constants:
            sub_values[slot] = value
        self._run(new_program, sub_values, stats, epoch, recompiles_done + 1,
                  continuation=True)
        for position, old_slot in enumerate(old_root_slots):
            values[old_slot] = sub_values[new_program.root_slots[position]]


__all__ = [
    "ProgramExecutor",
    "execute_instruction",
    "RuntimeExecError",
]
