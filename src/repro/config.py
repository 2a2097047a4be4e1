"""Global configuration for the compiler, optimizer, and runtime.

The defaults mirror the hardware model of the paper's experimental setup
(Section 5.1): peak read bandwidth 32 GB/s, measured STREAM-like write
bandwidth, and per-node peak compute.  The cost model (Section 4.3)
normalizes byte and FLOP counts by these constants, so only their ratios
matter for plan choices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


#: What ``intra_op_threads=0`` means on this host, resolved once: the
#: runtime asks per operator call, and ``os.cpu_count()`` is a syscall.
_AUTO_INTRA_OP_THREADS = min(8, os.cpu_count() or 1)


@dataclass
class ClusterConfig:
    """Configuration of the simulated distributed (Spark-like) backend.

    Matches the 1+6 node cluster of Section 5.1 by default: six workers
    whose aggregate memory holds the distributed datasets, connected via
    10 Gb Ethernet.
    """

    n_workers: int = 6
    executor_mem: float = 60e9 * 0.6  # usable executor memory [bytes]
    net_bandwidth: float = 1.25e9  # 10 Gb/s Ethernet [bytes/s]
    hdfs_bandwidth: float = 0.6e9  # distributed read bandwidth [bytes/s]

    @property
    def aggregate_mem(self) -> float:
        """Total usable cluster memory in bytes."""
        return self.n_workers * self.executor_mem


@dataclass
class CodegenConfig:
    """Knobs of the codegen optimizer and the analytical cost model."""

    # Cost model bandwidths (Section 4.3).
    read_bandwidth: float = 32e9  # peak local read [bytes/s]
    write_bandwidth: float = 16e9  # peak local write [bytes/s]
    peak_flops: float = 115.2e9  # peak compute [FLOP/s]

    # Memory budget of the driver / local node; operations whose inputs
    # and output exceed it are selected for distributed execution.
    local_mem_budget: float = 35e9

    # Block size of blocked (distributed) matrices; the Row template has
    # the constraint ncol(X) <= blocksize for distributed operations.
    blocksize: int = 1024

    # Outer template: the common dimension (rank) must be small.
    outer_max_rank: int = 256

    # Sparse output/representation threshold (SystemML uses nnz/cells <
    # 0.4 to pick the sparse format).  Drives the compiler's size
    # estimates and the adaptive layer's format decisions (recompile
    # boundaries, skeleton CSR switch).  The kernel library's output
    # policy uses the shared recommend_format() default (the same 0.4);
    # overriding this knob retunes the compiler and adaptive layers
    # only, not per-kernel output storage.
    sparse_threshold: float = 0.4

    # Compressed (CLA) execution format.  At recompile boundaries the
    # executor estimates distinct values per column from a leading-row
    # sample and converts blocks whose estimated compressed size
    # undercuts dense/CSR by at least compression_min_ratio; small
    # blocks (below compression_min_cells) never compress — the
    # conversion cost would dominate any dictionary-direct win.
    compressed_execution: bool = True
    compression_min_ratio: float = 2.0
    compression_min_cells: int = 1 << 14
    compression_sample_rows: int = 2048

    # Adaptive recompilation (dynamic recompile, Section 2.1): lowering
    # marks instructions whose exec-type / fusion / format choices rest
    # on unknown (nnz < 0) or unknown-derived sparsity estimates; at
    # those segment boundaries the executor compares estimates against
    # observed metadata and recompiles the program remainder — with the
    # observed values spliced in as exact leaves — when they diverge by
    # more than this ratio.  The flag also gates the fused skeletons'
    # observed-sparsity format switch.
    adaptive_recompile: bool = True
    recompile_divergence_ratio: float = 4.0
    # Upper bound on recompilations per executor run (settles runaway
    # oscillation; one recompile usually makes every estimate exact).
    max_recompiles_per_run: int = 5

    # Candidate selection.
    max_enum_plans: int = 1 << 22  # safety cap per partition
    # Partitions at least this large with zero interesting points skip
    # the per-node cost descent (one O(|members|) cover per node, so
    # quadratic in partition size) and take the maximal-fusion cover
    # directly.  Far above any DAG the experiments produce; only
    # pathological programs (e.g. thousands of chained cellwise ops)
    # hit it.
    large_partition_members: int = 512
    enable_cost_pruning: bool = True
    enable_structural_pruning: bool = True

    # Runtime executor: 'parallel' schedules lowered Program instructions
    # over a thread pool by dependency readiness (independent DAG
    # branches run concurrently; NumPy kernels release the GIL);
    # 'serial' interprets instructions in topological order.
    executor_mode: str = "parallel"
    # Worker threads (0 = min(8, cpu_count)).  With one thread the
    # executor always falls back to serial interpretation.
    executor_threads: int = 0
    # Programs whose instructions all touch fewer cells than this run
    # serially: thread-pool dispatch overhead dominates tiny operators.
    parallel_min_cells: int = 1 << 16

    # Intra-operator parallelism: generated fused operators split their
    # main input into this many row partitions (dense slices, CSR row
    # ranges, compressed column-group views) and combine aggregation
    # partials through a fixed tree topology.  0 = auto (min(8, cpus));
    # 1 falls back to the exact serial skeleton code path.  The
    # partition count is fixed by this knob — the thread budget only
    # bounds how many partitions run concurrently — so results are
    # deterministic run-to-run.
    intra_op_threads: int = 0
    # Operators whose main input has fewer cells than this run the
    # serial skeletons: partition dispatch overhead dominates.
    intra_op_min_cells: int = 1 << 16
    # Process-wide token budget shared by the executor pool, intra-op
    # workers, and serving scheduler (no oversubscription when all
    # three layers are active).  0 = the shared default
    # (max(8, cpu_count)); >0 caps grants made under this config.
    thread_budget: int = 0

    # Static analysis (repro.analysis).  verify_level gates the IR
    # verifier and the generated-kernel lint: 'off' disables them,
    # 'boundaries' verifies the optimized DAG and the lowered program at
    # every compile (and lints every generated source before exec),
    # 'full' additionally re-verifies the DAG after every compiler pass
    # and at adaptive-recompile splice points.
    verify_level: str = "off"
    # Eraser-style lockset race detection over the shared runtime
    # structures (plan cache, stats, thread budget, lineage cache).
    # Debug instrumentation: enables a process-wide checker whose
    # reports land in RuntimeStats.n_lockset_reports.
    lockset_debug: bool = False

    # Observability (repro.obs): hierarchical span tracing.  'off' uses
    # the module-level no-op tracer (near-zero cost); 'phases' records
    # request, compiler-pass, lowering/verify, operator-compile,
    # recompile-splice, and serving admission/queue/batch/bind spans;
    # 'instructions' adds one span per executed instruction (the
    # profiler's input); 'full' adds operator-body spans.  Spans land
    # in a bounded ring buffer of
    # trace_buffer_events entries, exportable as Chrome trace-event
    # JSON via Engine.export_trace() (loadable in Perfetto).
    trace_level: str = "off"
    trace_buffer_events: int = 65536

    # Code generation backend: 'exec' is the fast in-memory compiler
    # (janino analogue); 'file' writes sources to disk and imports them
    # (javac analogue).
    compiler: str = "exec"
    plan_cache_enabled: bool = True

    # Who runs SparkExecutor's partition tasks: 'simulated' runs them
    # in the calling thread (cost model only); 'multiprocess' ships
    # them to a pool of spawned worker processes (repro.runtime.mpexec)
    # with shared-memory dense block transport.  Same driver, same task
    # function, so results and counters are identical.
    distributed_backend: str = "simulated"
    # Worker processes for the multiprocess backend (0 = min(4, cpus)).
    # Concurrent dispatch is additionally bounded by the process-wide
    # ThreadBudget, so driver threads + worker processes stay within
    # one shared token pool.
    mp_workers: int = 0
    # Straggler/failure handling: a worker that produces no result for
    # this many seconds while holding tasks is declared lost, its
    # process is respawned, and its tasks are re-dispatched (lost
    # cached blocks are recomputed from lineage keys).
    mp_task_timeout: float = 60.0
    # Re-dispatch attempts per task before the run fails.
    mp_max_retries: int = 2
    # Per-worker block cache (locality) byte budget; least recently
    # used blocks are evicted and re-shipped on next use.
    mp_worker_cache_bytes: float = 256e6

    # Simulated cluster; None means pure single-node operation.
    cluster: ClusterConfig | None = None

    # Per-operation compute cost weights (FLOPs per output cell) for
    # expensive cell functions; anything absent costs 1.
    op_flop_weights: dict = field(
        default_factory=lambda: {
            "exp": 20.0,
            "log": 20.0,
            "sqrt": 5.0,
            "sigmoid": 25.0,
            "erf": 30.0,
            "normpdf": 30.0,
            "^": 30.0,
        }
    )

    def effective_intra_op_threads(self) -> int:
        """Resolved partition count for intra-operator execution."""
        if self.intra_op_threads > 0:
            return self.intra_op_threads
        return _AUTO_INTRA_OP_THREADS

    def copy(self) -> "CodegenConfig":
        """Return a shallow copy (cluster config shared)."""
        import dataclasses

        return dataclasses.replace(self)


DEFAULT_CONFIG = CodegenConfig()
