"""Global configuration for the compiler, optimizer, and runtime.

The defaults mirror the hardware model of the paper's experimental setup
(Section 5.1): peak read bandwidth 32 GB/s, measured STREAM-like write
bandwidth, and per-node peak compute.  The cost model (Section 4.3)
normalizes byte and FLOP counts by these constants, so only their ratios
matter for plan choices.

What ``intra_op_threads=0`` means on this host (``AUTO_THREADS``) is
resolved in :mod:`repro.runtime.parallel`, next to the parallelism
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
    """Knobs of the codegen optimizer, the cost model and the runtime.

    Only settings that some caller sets to more than one value, or that
    a calibration fits to the host, live here.  Thresholds with one
    value in use are constants in the one module that owns them.
    """

    # Cost model bandwidths (Section 4.3).
    read_bandwidth: float = 32e9  # peak local read [bytes/s]
    write_bandwidth: float = 16e9  # peak local write [bytes/s]
    peak_flops: float = 115.2e9  # peak compute [FLOP/s]

    # Memory budget of the driver / local node; operations whose inputs
    # and output exceed it are selected for distributed execution.
    local_mem_budget: float = 35e9

    # Adaptive recompilation (dynamic recompile, Section 2.1): lowering
    # marks instructions whose exec-type / fusion / format choices rest
    # on unknown (nnz < 0) or unknown-derived sparsity estimates; at
    # those segment boundaries the executor compares estimates against
    # observed metadata and recompiles the program remainder — with the
    # observed values spliced in as exact leaves — when they diverge.
    # The flag also gates the fused skeletons' observed-sparsity format
    # switch.
    adaptive_recompile: bool = True

    # Candidate selection.
    enable_cost_pruning: bool = True
    enable_structural_pruning: bool = True

    # Intra-operator parallelism: generated fused operators split their
    # main input into this many row partitions (dense slices, CSR row
    # ranges, compressed column-group views) and combine aggregation
    # partials through a fixed tree topology.  0 = auto (min(8, cpus));
    # 1 falls back to the exact serial skeleton code path.  Lowering
    # fixes the partition count (runtime/parallel.py) — the thread budget
    # only bounds how many partitions run concurrently — so results are
    # deterministic run-to-run.
    intra_op_threads: int = 0

    # Static analysis (repro.analysis).  verify_level gates the IR
    # verifier only: 'off' disables it, 'boundaries' verifies the
    # optimized DAG and the lowered program at every compile, 'full'
    # additionally re-verifies the DAG after every compiler pass and at
    # adaptive-recompile splice points.  The generated-kernel lint runs
    # on every source at every level, since the process-wide plan cache
    # hands one engine's operators to all the others.
    verify_level: str = "off"

    # Observability (repro.obs): hierarchical span tracing.  'off' uses
    # the module-level no-op tracer (near-zero cost); 'phases' records
    # request, compiler-pass, lowering/verify, operator-compile,
    # recompile-splice, and serving admission/queue/batch/bind spans;
    # 'instructions' adds one span per executed instruction (the
    # profiler's input); 'full' adds operator-body spans.  Spans are
    # exportable as Chrome trace-event JSON via Engine.export_trace()
    # (loadable in Perfetto).
    trace_level: str = "off"

    # Code generation backend: 'exec' is the fast in-memory compiler
    # (janino analogue); 'file' writes sources to disk and imports them
    # (javac analogue).
    compiler: str = "exec"
    # False: every operator lookup builds (no cache at any level; the
    # no-cache legs of Table 3 / Fig. 11), and Engine.execute's program
    # cache is off too.  True shares operators through the process-wide
    # plan cache (repro.codegen.plan_cache.PLAN_CACHE).
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

    def copy(self) -> "CodegenConfig":
        """Return a shallow copy (cluster config shared)."""
        import dataclasses

        return dataclasses.replace(self)


DEFAULT_CONFIG = CodegenConfig()
