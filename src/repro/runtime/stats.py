"""Runtime statistics: the engine's one metrics store.

Execution engines record the bytes they materialize, the simulated
network traffic of the distributed backend, and compilation overhead.
The counters feed Table 3, Figure 11, and Table 6 of the reproduction,
plus the serving subsystem's per-request telemetry.  Every counter and
histogram is a dataclass field read by name; the serving latency and
queue-wait histograms are dict fields of
:class:`~repro.obs.metrics.HistogramCell` keyed by ``(tenant,
program)``, and :meth:`RuntimeStats.serving_summary` is the one method
that derives values (percentiles, a per-tenant breakdown) from them.

Thread-safety convention: one ``RuntimeStats`` instance may be shared
by concurrent executor runs and a serving scheduler.  Every *runtime*
mutation of a shared instance goes through :meth:`merge` (or explicit
increments) while holding :attr:`lock`; compile-time counters are
protected by the engine's compilation lock, which serializes compiles.
:meth:`merge` skips zero-valued fields, so concurrent writers touching
disjoint counter families never race through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.analysis import lockset
from repro.obs.metrics import HistogramCell
from repro.obs.trace import NULL_TRACER


@dataclass
class RuntimeStats:
    """Mutable statistics attached to one engine instance."""

    # Materialization traffic (local interpreter).
    bytes_written: float = 0.0
    n_intermediates: int = 0

    # Simulated distributed backend.
    sim_broadcast_bytes: float = 0.0
    sim_shuffle_bytes: float = 0.0
    sim_collect_bytes: float = 0.0
    sim_seconds: float = 0.0
    n_distributed_ops: int = 0
    # Blocked dataflow: how distributed intermediates moved between
    # instructions (Table 6 mechanism observability).
    n_partitioned: int = 0  # driver blocks partitioned onto the cluster
    n_blocked_passthrough: int = 0  # ops consuming an already-blocked main
    n_collects: int = 0  # blocked values materialized at the driver
    n_tree_reduces: int = 0  # aggregations combined over partition partials
    # Lineage-keyed RDD-cache model.
    n_rdd_cache_hits: int = 0
    n_rdd_cache_evictions: int = 0  # broadcast-pressure evictions

    # Multiprocess distributed backend (repro.runtime.mpexec).
    n_mp_tasks: int = 0  # partition tasks executed by worker processes
    n_mp_broadcasts: int = 0  # per-worker side-input broadcast payloads sent
    n_mp_block_ships: int = 0  # partition blocks shipped driver -> worker
    n_mp_locality_hits: int = 0  # tasks served from a worker's block cache
    n_task_retries: int = 0  # tasks re-dispatched after worker loss/timeout
    n_lineage_recomputes: int = 0  # lost lineage-keyed blocks recomputed
    n_worker_respawns: int = 0  # worker processes replaced after a failure
    mp_shm_bytes: float = 0.0  # dense bytes moved via shared memory
    mp_pickle_bytes: float = 0.0  # bytes moved via the pickle fallback
    mp_max_workers: int = 0  # gauge: peak worker processes one operator used

    # Compiler / codegen overhead (Table 3, Fig 11).
    n_dags_optimized: int = 0
    n_cplans_constructed: int = 0
    n_magg_fallbacks: int = 0  # multi-aggregate groups split into single operators
    n_classes_compiled: int = 0
    codegen_seconds: float = 0.0
    class_compile_seconds: float = 0.0
    plan_cache_hits: int = 0
    plan_cache_lookups: int = 0
    plan_cache_size: int = 0  # gauge: entries currently cached (max-merged)

    # Plan enumeration (Fig 12).
    n_plans_evaluated: int = 0
    n_plans_skipped: float = 0.0
    n_partitions: int = 0

    # Compilation pipeline (staged compiler).
    n_programs_compiled: int = 0
    n_exec_type_selections: int = 0
    n_instructions_lowered: int = 0
    pipeline_pass_seconds: dict = field(default_factory=dict)

    # Adaptive recompilation (runtime metadata feedback loop).
    n_marked_instructions: int = 0  # lowered instructions carrying meta checks
    n_meta_checks: int = 0  # estimate-vs-observed comparisons performed
    n_estimate_misses: int = 0  # checks whose divergence crossed the ratio
    n_recompiles: int = 0  # program remainders recompiled mid-run
    n_format_conversions: int = 0  # blocks re-formatted by observed sparsity
    # Histogram of observed estimate divergence (ratio buckets by power
    # of two: '1-2', '2-4', ..., '>=1024').
    recompile_divergence_hist: dict = field(default_factory=dict)

    # Runtime executor.
    n_instructions_executed: int = 0
    n_freed_early: int = 0  # intermediates freed before end of program
    n_serial_runs: int = 0

    # Intra-operator parallel fused execution.
    n_intra_op_parallel: int = 0  # operators executed partition-wise
    n_intra_op_partitions: int = 0  # total partitions across those operators
    intra_op_combine_levels: int = 0  # total tree-reduce levels combined

    # Generated fused operators.
    n_kernel_compiles: int = 0  # operator bodies emitted, linted and compiled
    n_compiled_runs: int = 0  # generated-operator executions
    n_source_cache_hits: int = 0  # always 0: the plan cache is the one operator cache

    # Compressed (CLA) execution format.
    n_compressed_ops: int = 0  # ops executed dictionary-direct
    n_decompressions: int = 0  # compressed inputs expanded to blocks
    n_compressions: int = 0  # blocks converted to compressed form

    # Static analysis (repro.analysis): verifier, lint, lockset.
    n_verified_programs: int = 0  # compiles that passed pipeline verification
    n_verifier_findings: int = 0  # IR-verifier findings raised
    n_lint_rejects: int = 0  # generated sources rejected by kernel lint
    n_lockset_reports: int = 0  # empty-lockset race reports emitted

    # Serving subsystem (prepared programs + session scheduler).
    n_requests_served: int = 0
    n_requests_batched: int = 0  # requests that ran inside a micro-batch
    n_batches_executed: int = 0
    n_batch_fallbacks: int = 0  # batches that fell back to per-request runs
    n_specialization_hits: int = 0  # warm plan reuse: compile skipped
    n_specialization_misses: int = 0  # cold bind: full compile pipeline ran
    n_shape_recompiles: int = 0  # dynamic recompiles after the first bind
    n_admission_waits: int = 0  # requests delayed by the memory budget
    serve_exec_seconds: float = 0.0  # total bind+execute time
    # Submit-to-result latency and queue wait per served request:
    # HistogramCell values keyed by (tenant, program).
    serve_latency_hist: dict = field(default_factory=dict)
    serve_queue_hist: dict = field(default_factory=dict)

    # Fused-operator executions by template name.
    spoof_executions: dict = field(default_factory=dict)

    #: Gauge fields combine via max (not addition) when merging.
    _GAUGES = ("plan_cache_size", "mp_max_workers")

    def __post_init__(self):
        # Reentrant: the distributed backend mutates shared stats while
        # an executor run already holds the lock for the whole program.
        # Tracked so the lockset detector sees it in held-lock sets.
        self.lock = lockset.make_rlock("RuntimeStats.lock")
        # The engine's span tracer rides on stats because stats already
        # reach every instrumentation point (executor, skeletons, plan
        # cache, scheduler).  Engines replace the no-op default when
        # trace_level != "off"; run-local stats copy the shared tracer.
        self.tracer = NULL_TRACER

    def observe_request(self, program: str, tenant: str,
                        queue_seconds: float, exec_seconds: float,
                        latency_seconds: float) -> None:
        """Record one served request.

        Counts it, adds its execution time, and observes its latency
        and queue wait into the ``(tenant, program)`` histogram cells so
        :meth:`serving_summary` can report percentiles per tenant as
        well as in aggregate.
        """
        key = (tenant, program)
        with self.lock:
            lockset.note_access("RuntimeStats", self, "serve_latency_hist")
            self.n_requests_served += 1
            self.serve_exec_seconds += exec_seconds
            for hist, value in ((self.serve_latency_hist, latency_seconds),
                                (self.serve_queue_hist, queue_seconds)):
                cell = hist.get(key)
                if cell is None:
                    cell = hist[key] = HistogramCell()
                cell.observe(value)

    def serving_summary(self) -> dict:
        """Per-request serving telemetry plus plan-cache health.

        The p50/p95/p99 fields and the per-tenant breakdown come from
        the log-bucketed histograms :meth:`observe_request` feeds.
        """
        latency, queue = HistogramCell(), HistogramCell()
        tenants: dict[str, HistogramCell] = {}
        with self.lock:
            for (tenant, _program), cell in self.serve_latency_hist.items():
                latency.combine(cell)
                tenants.setdefault(tenant, HistogramCell()).combine(cell)
            for cell in self.serve_queue_hist.values():
                queue.combine(cell)
            return {
                "latency_p50": latency.percentile(50),
                "latency_p95": latency.percentile(95),
                "latency_p99": latency.percentile(99),
                "queue_p50": queue.percentile(50),
                "queue_p99": queue.percentile(99),
                "per_tenant": {
                    tenant: {"n": cell.count,
                             "latency_p50": cell.percentile(50),
                             "latency_p99": cell.percentile(99),
                             "mean_latency_seconds": cell.mean}
                    for tenant, cell in tenants.items()
                },
                "n_requests_served": self.n_requests_served,
                "n_requests_batched": self.n_requests_batched,
                "n_batches_executed": self.n_batches_executed,
                "n_batch_fallbacks": self.n_batch_fallbacks,
                "n_specialization_hits": self.n_specialization_hits,
                "n_specialization_misses": self.n_specialization_misses,
                "n_shape_recompiles": self.n_shape_recompiles,
                "n_admission_waits": self.n_admission_waits,
                "serve_queue_seconds": queue.total,
                "serve_exec_seconds": self.serve_exec_seconds,
                "serve_latency_seconds": latency.total,
                "mean_latency_seconds": latency.mean,
                "plan_cache_hits": self.plan_cache_hits,
                "plan_cache_misses": (self.plan_cache_lookups
                                      - self.plan_cache_hits),
                "plan_cache_size": self.plan_cache_size,
            }

    def record_divergence(self, ratio: float) -> None:
        """Bucket one observed estimate divergence (power-of-two bins)."""
        bucket = 1
        while bucket < 1024 and ratio >= 2 * bucket:
            bucket *= 2
        label = f">={bucket}" if bucket >= 1024 else f"{bucket}-{2 * bucket}"
        hist = self.recompile_divergence_hist
        hist[label] = hist.get(label, 0) + 1

    def record_spoof(self, template_name: str) -> None:
        """Count one execution of a generated operator."""
        count = self.spoof_executions.get(template_name, 0)
        self.spoof_executions[template_name] = count + 1

    def reset(self) -> None:
        """Zero all counters and empty all histograms in place (lock and
        tracer are kept).

        Enumerates ``dataclasses.fields`` so every declared counter —
        including ones added after this method was written — resets.
        """
        fresh = RuntimeStats()
        with self.lock:
            for spec in fields(self):
                setattr(self, spec.name, getattr(fresh, spec.name))

    def merge(self, other: "RuntimeStats") -> None:
        """Accumulate another stats object into this one.

        Enumerates ``dataclasses.fields`` (not instance ``__dict__``),
        so a newly declared counter can never be silently dropped by a
        merge; the field audit test locks this in.  Zero-valued fields
        are skipped, so merging a run-local stats object only writes
        the counter families that run touched — concurrent writers of
        disjoint families (runtime vs compile vs serving) cannot lose
        updates through a merge.  Histogram cells are combined into
        cells this object owns, never shared with ``other``.
        """
        with self.lock:
            note = lockset.active() is not None
            for key in _FIELD_NAMES:
                value = getattr(other, key)
                if not value:
                    # Untouched (zero counter, empty histogram): a run
                    # touches a handful of the fields, so most end here.
                    continue
                if isinstance(value, dict):
                    mine = getattr(self, key)
                    for name, count in value.items():
                        if isinstance(count, HistogramCell):
                            cell = mine.get(name)
                            if cell is None:
                                mine[name] = count.copy()
                            else:
                                cell.combine(count)
                        else:
                            mine[name] = mine.get(name, 0) + count
                elif key in self._GAUGES:
                    # Peak/gauge values combine via max, not addition.
                    setattr(self, key, max(getattr(self, key), value))
                else:
                    setattr(self, key, getattr(self, key) + value)
                if note:
                    lockset.note_access("RuntimeStats", self, key)


#: The declared counters, enumerated once (``dataclasses.fields`` builds
#: a new tuple per call and :meth:`RuntimeStats.merge` runs per request).
_FIELD_NAMES = tuple(spec.name for spec in fields(RuntimeStats))
