"""Runtime executor: schedules lowered ``Program`` instructions.

Two scheduling modes over the same instruction semantics:

* **serial** — a flat loop over the (topologically ordered)
  instruction list,
* **parallel** — a dependency-readiness scheduler over a thread pool:
  an instruction is submitted once all its producers completed, so
  independent DAG branches (e.g. the per-root chains of a multi-root
  ``eval_all``) run concurrently.  NumPy kernels release the GIL, so
  this overlaps real compute on multicore hosts.

A run goes parallel only when lowering marked its program ``parallel``
(two heavy instructions that can run side by side), the executor has at
least two threads and the process-wide thread budget grants two tokens;
otherwise it runs serially.  At most as many instructions are in flight
as tokens were granted; ready ones beyond that wait in a per-run queue.
The worker that completes an instruction submits its successors itself,
so a chain never waits for another thread to wake.  After a failure
nothing new is submitted, and the run raises the first error only once
no instruction is in flight, so its budget tokens are never returned
under running work.

Both modes run each instruction through one ``_step`` (instruction
span and execute), maintain per-slot reference counts and eagerly free
intermediates once their last consumer ran (roots and constants are
pinned), cutting peak memory for long programs.  Scheduling counters
(tasks launched, peak concurrency, early frees) land in
:class:`~repro.runtime.stats.RuntimeStats`.

**Adaptive recompilation** (serial local runs): programs whose plan
choices rest on unknown sparsity estimates carry recompilation markers
(``instr.meta_checks``).  At each marked instruction the serial loop
compares the estimates against the nnz of the checked inputs' live
values; when they diverge beyond ``_RECOMPILE_DIVERGENCE_RATIO`` the
program remainder is recompiled (:mod:`repro.compiler.recompile`) with
the observed values spliced in as exact leaves, and execution continues
inside the fresh program.  Marked programs always take the serial path
so every segment boundary is honored; distributed (Spark) runs never
recompile.

``run`` is safe to call from several threads at once against the same
executor (the serving scheduler multiplexes in-flight programs over one
shared pool): every run works on its own symbol-table ``values`` array,
records into a run-local stats object, and merges into the shared stats
under its lock.  Per-request inputs are injected through the
``bindings`` overlay — a prepared (shape-specialized) ``Program`` stays
immutable and is shared by all concurrent requests.

The simulated Spark backend mutates shared cost-model state, so
programs carrying a cluster config always run serially and one at a
time (a dedicated lock serializes them).
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.analysis import lockset
from repro.config import AUTO_THREADS, CodegenConfig
from repro.errors import RuntimeExecError
from repro.hops.types import ExecType
from repro.obs import trace as obs_trace
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.matrix import MatrixBlock
from repro.runtime.parallel import shared_budget
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
    from repro.runtime.skeletons import execute_operator

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
    else:
        result = rops.apply_spec(rops.hop_spec(hop), inputs, stats)
    _record_output(stats, result)
    return result


class ProgramExecutor:
    """Executes programs serially or over a shared thread pool."""

    def __init__(self, config: CodegenConfig, stats: RuntimeStats,
                 spark=None, recompiler=None):
        self.config = config
        self.stats = stats
        self.spark = spark
        # Adaptive recompilation hook (compiler/recompile.Recompiler);
        # None for hand-built programs executed without an engine.
        self.recompiler = recompiler
        self.n_threads = (config.executor_threads
                          if config.executor_threads > 0 else AUTO_THREADS)
        self._pool: ThreadPoolExecutor | None = None
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
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_threads,
                    thread_name_prefix="repro-exec",
                )
            return self._pool

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
                    self._run_serial(program, values, self.stats, epoch)
            else:
                run_stats = RuntimeStats()
                run_stats.tracer = tracer
                self._run_local(program, values, run_stats, epoch)
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

    def _should_parallelize(self, program) -> bool:
        # Lowering decided whether the program is worth the pool; marked
        # programs run serially so every recompilation segment boundary
        # is honored in instruction order.
        return (program.parallel and self.n_threads >= 2
                and not self._adaptive_for(program))

    def _run_local(self, program, values: list, stats: RuntimeStats,
                   epoch: int, recompiles_done: int = 0,
                   continuation: bool = False) -> None:
        """Run a program without the Spark backend: on the pool when it
        qualifies and the budget grants two tokens, serially otherwise.

        Worker tokens come from the process-wide budget: when the
        serving scheduler or other in-flight runs already claim the
        machine, this run degrades (fewer in-flight instructions, or
        fully serial) instead of oversubscribing.
        """
        if not self._should_parallelize(program):
            self._run_serial(program, values, stats, epoch, recompiles_done,
                             continuation)
            return
        budget = shared_budget()
        granted = budget.acquire(self.n_threads)
        try:
            if granted >= 2:
                self._run_parallel(program, values, stats, granted,
                                   continuation)
            else:
                stats.n_budget_degraded_runs += 1
                self._run_serial(program, values, stats, epoch,
                                 recompiles_done, continuation)
        finally:
            budget.release(granted)

    # ------------------------------------------------------------------
    def _free_dead_inputs(self, instr, values, counts, pinned) -> int:
        """Decrement input refcounts; free slots with no consumers left."""
        freed = 0
        for slot in instr.input_slots:
            counts[slot] -= 1
            if counts[slot] == 0 and slot not in pinned:
                values[slot] = None
                freed += 1
        return freed

    def _step(self, instr, inputs: list, stats: RuntimeStats,
              trace_instr: bool, slot_keys: list | None = None):
        """Execute one instruction on its gathered inputs, inside an
        instruction span when the tracer records them."""
        input_keys = output_key = None
        if slot_keys is not None:
            input_keys = [slot_keys[slot] for slot in instr.input_slots]
            output_key = slot_keys[instr.output_slot]
        if not trace_instr:
            return execute_instruction(instr, inputs, self.config, stats,
                                       self.spark, input_keys, output_key)
        with stats.tracer.span(_instr_label(instr), cat="instruction",
                               level=obs_trace.INSTRUCTIONS,
                               index=instr.index) as span:
            result = execute_instruction(instr, inputs, self.config, stats,
                                         self.spark, input_keys, output_key)
            span.annotate(bytes=_moved_bytes(inputs, result))
        return result

    def _run_serial(self, program, values: list, stats: RuntimeStats,
                    epoch: int, recompiles_done: int = 0,
                    continuation: bool = False) -> None:
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
            values[instr.output_slot] = self._step(
                instr, inputs, stats, trace_instr, slot_keys
            )
            executed += 1
            stats.n_freed_early += self._free_dead_inputs(
                instr, values, counts, pinned
            )
        stats.n_instructions_executed += executed
        if not continuation:
            # Recompiled remainders continue the same logical run; only
            # the outermost invocation counts toward run totals.
            stats.n_serial_runs += 1
        if program.n_instructions:
            stats.executor_max_concurrency = max(
                stats.executor_max_concurrency, 1
            )

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
        ``root_slots``.  A recompiled remainder without markers of its
        own regains the parallel scheduler (the serial constraint only
        exists to honor segment boundaries).
        """
        new_program, old_root_slots = self.recompiler.recompile_remainder(
            program, start_index, values, stats
        )
        stats.n_recompiles += 1
        sub_values: list = [None] * new_program.n_slots
        for slot, value in new_program.constants:
            sub_values[slot] = value
        self._run_local(new_program, sub_values, stats, epoch,
                        recompiles_done + 1, continuation=True)
        for position, old_slot in enumerate(old_root_slots):
            values[old_slot] = sub_values[new_program.root_slots[position]]

    # ------------------------------------------------------------------
    def _run_parallel(self, program, values: list,
                      run_stats: RuntimeStats, width: int,
                      continuation: bool = False) -> None:
        """Dependency-readiness scheduler: at most ``width`` (the granted
        budget tokens) instructions in flight; ready ones beyond the cap
        wait in a queue."""
        pool = self._ensure_pool()
        instructions = program.instructions
        counts = list(program.consumer_counts)
        pinned = program.pinned
        tracer = run_stats.tracer
        trace_instr = tracer.enabled(obs_trace.INSTRUCTIONS)

        # Per-run lock: concurrent runs sharing this executor must not
        # serialize each other's dependency bookkeeping.
        lock = threading.Lock()
        done = threading.Event()
        state = {
            "pending": {
                i.index: len(i.dep_indices) for i in instructions
            },
            "remaining": len(instructions),
            "running": 0,
            "max_running": 0,
            "launched": 0,
            "inflight": 0,
            "queued": deque(),
            "freed": 0,
            "error": None,
        }

        def worker(instr):
            # Per-task stats keep kernel-level recording race-free; they
            # merge into the run stats under the scheduler lock.
            local_stats = RuntimeStats()
            local_stats.tracer = tracer
            with lock:
                state["running"] += 1
                state["max_running"] = max(
                    state["max_running"], state["running"]
                )
            # `inputs` lives until this worker returns, so the buffers of
            # dead inputs are freed after the lock is released, not under
            # it (freeing them there slowed the parallel leg of
            # `bench_executor_parallel.py` by ~18% on a 2-CPU host).
            inputs = [values[slot] for slot in instr.input_slots]
            try:
                result = self._step(instr, inputs, local_stats, trace_instr)
            except BaseException as exc:  # propagate to the caller
                with lock:
                    if state["error"] is None:
                        state["error"] = exc
                    state["running"] -= 1
                    state["inflight"] -= 1
                    if state["inflight"] == 0:
                        done.set()
                return
            ready = []
            with lock:
                values[instr.output_slot] = result
                state["freed"] += self._free_dead_inputs(
                    instr, values, counts, pinned
                )
                run_stats.merge(local_stats)
                for dep_index in instr.dependent_indices:
                    state["pending"][dep_index] -= 1
                    if state["pending"][dep_index] == 0:
                        ready.append(instructions[dep_index])
                state["remaining"] -= 1
                state["running"] -= 1
                state["inflight"] -= 1
                if state["error"] is None:
                    for nxt in ready:
                        _submit(nxt)
                    while state["queued"] and state["inflight"] < width:
                        _submit(state["queued"].popleft())
                elif state["inflight"] == 0:
                    done.set()  # the last straggler of a failed run
                if state["remaining"] == 0:
                    done.set()

        def _submit(instr) -> None:
            # Caller holds the lock; `running` is tracked by the worker
            # itself so peak concurrency reflects tasks actually on a
            # thread, not queued submissions.
            if state["inflight"] >= width:
                state["queued"].append(instr)
                return
            state["inflight"] += 1
            state["launched"] += 1
            pool.submit(worker, instr)

        initial = [i for i in instructions if not i.dep_indices]
        if not instructions:
            return
        with lock:
            for instr in initial:
                _submit(instr)
        done.wait()
        # A failed run gets here only once no instruction is in flight:
        # `_run_local` returns the budget tokens right after.
        if state["error"] is not None:
            raise state["error"]
        run_stats.n_instructions_executed += len(instructions)
        run_stats.n_parallel_tasks += state["launched"]
        run_stats.executor_max_concurrency = max(
            run_stats.executor_max_concurrency, state["max_running"]
        )
        run_stats.n_freed_early += state["freed"]
        if not continuation:
            run_stats.n_parallel_runs += 1


__all__ = [
    "ProgramExecutor",
    "execute_instruction",
    "RuntimeExecError",
]
