"""The distributed (Spark-like) executor: one driver, two task backends.

This substitutes the paper's Spark cluster.  :class:`SparkExecutor` is
the driver: it places each SPARK-typed operator (map / reduce / local),
row-partitions the main input into a :class:`BlockedMatrix`, classifies
every other input into a *partition plan* (``main`` / ``zip`` /
``slice`` / ``whole``), charges an analytical network and I/O model
*simulated seconds* for reads, shuffles, broadcasts and collects, and
tree-reduces aggregation partials.  The cost structure is what Table 6
measures: fuse-all dragging driver-side vector operations into
distributed operators pays per-worker broadcast costs for every extra
side input, while cost-based plans avoid them.

What runs one partition is :func:`run_partition_task`, nothing else.
The driver hands ``(spec | operator, main blocks, plans)`` to its
backend — never ``None`` — which resolves the plans per partition with
:func:`partition_values` and runs that function on each:
:class:`InProcessBackend` (``distributed_backend="simulated"``) in the
calling thread, :class:`~repro.runtime.mpexec.ProcessPoolBackend`
(``"multiprocess"``) in spawned worker processes.  Results, counters
and simulated seconds are equal across backends by construction.

Distributed intermediates are first-class runtime values: a SPARK-typed
instruction returns a :class:`BlockedMatrix` that the next SPARK-typed
instruction consumes *partition-wise* without materializing it on the
driver.  Materialization happens only at the explicit ``collect``
boundaries the compiler inserts at exec-type transitions (and program
roots).

The RDD-cache model is keyed by *lineage* — stable symbol-table-slot
keys for intermediates and identity-guarded keys for program inputs —
never by the transient ``id()`` of a runtime value, so eagerly freed
(and address-reused) blocks can never register a spurious cache hit.

Execution remains numerically exact up to floating-point reassociation
of aggregations — per-partition kernels compute the same results as
local execution; only the timing is modeled.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.analysis import lockset
from repro.config import ClusterConfig, CodegenConfig
from repro.errors import RuntimeExecError
from repro.hops.hop import Hop, SpoofOp
from repro.hops.types import AggDir, OpKind
from repro.runtime import ops as rops
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.matrix import MatrixBlock
from repro.runtime.skeletons import (
    decompress_side_inputs,
    execute_operator,
    is_row_partitioned_output,
    partition_bounds,
    reduce_spoof_partials,
    sliceable_spoof_inputs,
    tree_reduce,
)
from repro.runtime.stats import RuntimeStats


class BlockedMatrix:
    """A matrix partitioned into row blocks (one per partition).

    Instances flow between SPARK-typed instructions as ordinary symbol
    table values; ``bounds[p]`` records the global row range of block
    ``p``, which is what makes side inputs row-sliceable per partition.
    """

    def __init__(self, blocks: list[MatrixBlock], rows: int, cols: int,
                 bounds: list[tuple[int, int]] | None = None, mp_key=None):
        self.blocks = blocks
        self.rows = rows
        self.cols = cols
        #: Lineage key of the value: names its blocks in worker caches.
        self.mp_key = mp_key
        if bounds is None:
            bounds = []
            r0 = 0
            for block in blocks:
                bounds.append((r0, r0 + block.rows))
                r0 += block.rows
        self.bounds = bounds

    @classmethod
    def partition(cls, block: MatrixBlock, n_partitions: int) -> "BlockedMatrix":
        rows, cols = block.shape
        bounds = partition_bounds(rows, n_partitions)
        if block.is_sparse:
            csr = block.to_csr()
            parts = [MatrixBlock(csr[r0:r1]) for r0, r1 in bounds]
        else:
            arr = block.to_dense()
            parts = [MatrixBlock(arr[r0:r1]) for r0, r1 in bounds]
        return cls(parts, rows, cols, bounds)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def n_partitions(self) -> int:
        return len(self.blocks)

    def collect(self) -> MatrixBlock:
        """Materialize as one MatrixBlock via a single concatenation."""
        import scipy.sparse as sp

        if not self.blocks:
            return MatrixBlock(np.zeros((self.rows, self.cols)))
        if len(self.blocks) == 1:
            return self.blocks[0]
        if all(not b.is_sparse for b in self.blocks):
            return MatrixBlock(
                np.concatenate([b.to_dense() for b in self.blocks], axis=0)
            )
        stacked = sp.vstack([b.to_csr() for b in self.blocks], format="csr")
        return MatrixBlock(stacked)

    def is_copartitioned(self, other: "BlockedMatrix") -> bool:
        return self.rows == other.rows and self.bounds == other.bounds

    @property
    def size_bytes(self) -> float:
        return sum(b.size_bytes for b in self.blocks)

    def __repr__(self) -> str:
        return (
            f"BlockedMatrix({self.rows}x{self.cols}, "
            f"{self.n_partitions} partitions)"
        )


def _combine_partials(a, b, agg: str):
    """Combine two aggregation partials (floats or MatrixBlocks)."""
    func = {"sum": np.add, "min": np.minimum, "max": np.maximum}[agg]
    if isinstance(a, MatrixBlock) or isinstance(b, MatrixBlock):
        a_arr = a.to_dense() if isinstance(a, MatrixBlock) else a
        b_arr = b.to_dense() if isinstance(b, MatrixBlock) else b
        return MatrixBlock(func(a_arr, b_arr))
    return float(func(a, b))


def run_partition_task(kind: str, payload, values: list, config, stats):
    """Run one partition's task: a basic-hop kernel spec (``"hop"``) or a
    generated operator (``"spoof"``) over that partition's values.

    Every backend calls this and nothing else to execute a partition,
    so what a task computes and which counters it bumps cannot differ
    between the calling thread and a worker process.
    """
    if kind == "hop":
        return rops.apply_spec(payload, values, stats)
    return execute_operator(payload, values, config, stats,
                            allow_parallel=False)


def partition_values(plans: list, main_blocked: BlockedMatrix):
    """Yield, per partition, the value each plan entry resolves to: the
    partition's block of the ``main`` or a co-partitioned ``zip`` input,
    its row range of a ``slice`` input, a ``whole`` input as is."""
    for p, (r0, r1) in enumerate(main_blocked.bounds):
        yield [
            main_blocked.blocks[p] if mode == "main"
            else value.blocks[p] if mode == "zip"
            else rops.rix(value, r0, r1, 0, value.cols) if mode == "slice"
            else value
            for mode, value in plans
        ]


class InProcessBackend:
    """Runs partition tasks one after another in the calling thread and
    records into the driver's stats.  No processes, so nothing to ship,
    cache, lose or retry: ``prune`` and ``register_guard`` are no-ops."""

    def __init__(self, config: CodegenConfig, stats: RuntimeStats):
        self.config = config
        self.stats = stats

    def _run(self, kind: str, payload, main_blocked, plans) -> list:
        return [
            run_partition_task(kind, payload, values, self.config, self.stats)
            for values in partition_values(plans, main_blocked)
        ]

    def run_map(self, spec: tuple, main_blocked, plans: list,
                main_key=None, output_key=None) -> list:
        return self._run("hop", spec, main_blocked, plans)

    def run_spoof(self, operator, main_blocked, plans: list,
                  main_key=None, output_key=None) -> list:
        return self._run("spoof", operator, main_blocked, plans)

    def prune(self, live_epoch) -> None:
        pass

    def register_guard(self, key, source) -> None:
        pass


#: Map-side placement decisions for one basic hop.
_MAP, _REDUCE, _LOCAL = "map", "reduce", "local"


class SparkExecutor:
    """Executes SPARK-typed operators partition-wise with cost charging."""

    def __init__(self, cluster: ClusterConfig, config: CodegenConfig,
                 stats: RuntimeStats):
        self.cluster = cluster
        self.config = config
        self.stats = stats
        # Who runs the partition tasks (config.distributed_backend);
        # placement, plans, cost charging and tree-reduces stay here.
        if config.distributed_backend == "multiprocess":
            from repro.runtime.mpexec import ProcessPoolBackend

            self.backend = ProcessPoolBackend(config, stats)
        else:
            self.backend = InProcessBackend(config, stats)
        # RDD-cache model: distributed datasets stay in aggregate
        # executor memory after the first read/write, so re-reads cost
        # memory bandwidth, not distributed-IO bandwidth.  Entries are
        # keyed by lineage (symbol-table slot or guarded input
        # identity), never by the id() of a runtime value.
        self._cache: dict = {}  # key -> (size_bytes, guard weakref | None)
        self._cached_bytes: float = 0.0
        # Broadcast variables occupy aggregate memory; accumulated
        # pressure eventually evicts cached datasets (Table 6).
        self._broadcast_pressure: float = 0.0
        self._mem_bandwidth = 32e9 * cluster.n_workers

    @property
    def n_partitions(self) -> int:
        return self.cluster.n_workers * 2

    # ------------------------------------------------------------------
    # RDD cache (lineage-keyed)
    # ------------------------------------------------------------------
    def _is_cached(self, key, value=None) -> bool:
        # Lineage-cache accesses happen inside an executor run holding
        # the Spark run lock; the lockset detector verifies that.
        lockset.note_access("SparkExecutor", self, "lineage_cache")
        if key is None:
            return False
        entry = self._cache.get(key)
        if entry is None:
            return False
        size, guard = entry
        if guard is not None and guard() is not value:
            # The guarded input died (or was replaced); the cached RDD
            # is unreachable — drop the entry instead of aliasing.
            del self._cache[key]
            self._cached_bytes -= size
            return False
        return True

    def _cache_put(self, key, size_bytes: float, value=None) -> None:
        lockset.note_access("SparkExecutor", self, "lineage_cache")
        if key is None or key in self._cache:
            return
        if self._cached_bytes + size_bytes > self.cluster.aggregate_mem:
            return
        guard = None
        if key[0] == "data" and value is not None:
            try:
                guard = weakref.ref(value)
            except TypeError:
                return  # identity key without a liveness guard: skip
        self._cache[key] = (size_bytes, guard)
        self._cached_bytes += size_bytes

    def _evict_cache(self) -> None:
        lockset.note_access("SparkExecutor", self, "lineage_cache")
        if self._cache:
            self.stats.n_rdd_cache_evictions += 1
        self._cache.clear()
        self._cached_bytes = 0.0
        self._broadcast_pressure = 0.0

    def prune_cache(self, live_epoch: int | None = None) -> None:
        """Drop entries that can never be probed again, so dead
        lineages don't pin ``aggregate_mem`` and starve live datasets.

        Key layout (produced by ``ProgramExecutor._slot_keys``):
        ``("v", epoch, slot)`` intermediates are unreachable once their
        program finished (any epoch < ``live_epoch``); ``("data", id)``
        input entries die with their weakref guard.  The executor calls
        this at the start of every program run.
        """
        lockset.note_access("SparkExecutor", self, "lineage_cache")
        for key in list(self._cache):
            size, guard = self._cache[key]
            dead = (
                guard() is None if guard is not None
                else key[0] == "v" and (
                    live_epoch is None or key[1] < live_epoch
                )
            )
            if dead:
                del self._cache[key]
                self._cached_bytes -= size
        self.backend.prune(live_epoch)

    # ------------------------------------------------------------------
    # Cost charging
    # ------------------------------------------------------------------
    def charge_read(self, size_bytes: float, key=None, value=None) -> None:
        if self._is_cached(key, value):
            self.stats.n_rdd_cache_hits += 1
            self.stats.sim_seconds += size_bytes / self._mem_bandwidth
            return
        self.stats.sim_seconds += size_bytes / self.cluster.hdfs_bandwidth
        self._cache_put(key, size_bytes, value)

    def charge_write(self, size_bytes: float, key=None, value=None) -> None:
        self.stats.sim_seconds += size_bytes / self.cluster.hdfs_bandwidth
        self._cache_put(key, size_bytes, value)

    def charge_memory_scan(self, size_bytes: float) -> None:
        """Reading an in-memory (blocked/cached) dataset."""
        self.stats.sim_seconds += size_bytes / self._mem_bandwidth

    def charge_broadcast(self, size_bytes: float) -> None:
        replicated = size_bytes * self.cluster.n_workers
        self.stats.sim_broadcast_bytes += replicated
        self.stats.sim_seconds += replicated / self.cluster.net_bandwidth
        # Broadcast variables occupy aggregate memory and cause partial
        # evictions of cached datasets (the Table 6 discussion): once
        # accumulated broadcast storage crosses a fraction of aggregate
        # memory, cached inputs drop and must be re-read.
        self._broadcast_pressure += replicated
        if self._broadcast_pressure > 0.25 * self.cluster.aggregate_mem:
            self._evict_cache()

    def charge_shuffle(self, size_bytes: float) -> None:
        self.stats.sim_shuffle_bytes += size_bytes
        self.stats.sim_seconds += size_bytes / self.cluster.net_bandwidth

    def charge_collect(self, size_bytes: float) -> None:
        self.stats.sim_collect_bytes += size_bytes
        self.stats.sim_seconds += size_bytes / self.cluster.net_bandwidth

    def charge_tree_reduce(self, partial_bytes: float, levels: int) -> None:
        if levels <= 0:
            return
        self.stats.n_tree_reduces += 1
        self.charge_shuffle(partial_bytes * levels)

    # ------------------------------------------------------------------
    # Value plumbing
    # ------------------------------------------------------------------
    def collect_value(self, blocked: BlockedMatrix) -> MatrixBlock:
        """Materialize a distributed value at the driver (charged)."""
        self.stats.n_collects += 1
        result = blocked.collect()
        self.charge_collect(result.size_bytes)
        return result

    def _as_blocked(self, value, key=None) -> BlockedMatrix:
        """Main-input access: reuse an existing partitioning, or read
        and partition a driver-side block."""
        if isinstance(value, BlockedMatrix):
            self.stats.n_blocked_passthrough += 1
            self.charge_memory_scan(value.size_bytes)
            return value
        self.charge_read(value.size_bytes, key=key, value=value)
        self.stats.n_partitioned += 1
        blocked = BlockedMatrix.partition(value, self.n_partitions)
        blocked.mp_key = key
        self.backend.register_guard(key, value)
        return blocked

    # ------------------------------------------------------------------
    # Operator execution
    # ------------------------------------------------------------------
    def execute_instruction(self, instr, input_values: list,
                            input_keys: list | None = None,
                            output_key=None) -> object:
        """Dispatch one lowered Program instruction to the cluster.

        The runtime executor hands SPARK-typed instructions here; basic
        hops and generated operators take different cost paths.
        ``input_keys`` are lineage keys for the RDD-cache model.
        """
        if instr.opcode == "spoof":
            return self.execute_spoof(instr.hop, input_values,
                                      input_keys, output_key)
        return self.execute_hop(instr.hop, input_values,
                                input_keys, output_key)

    def execute_hop(self, hop: Hop, input_values: list,
                    input_keys: list | None = None,
                    output_key=None) -> object:
        """Execute one basic HOP distributed: the largest matrix input
        is (or stays) row-partitioned, side inputs are zipped, sliced,
        or broadcast, and outputs stay blocked for row-local operations."""
        self.stats.n_distributed_ops += 1
        keys = list(input_keys) if input_keys else [None] * len(input_values)
        mats = [
            (idx, v) for idx, v in enumerate(input_values)
            if isinstance(v, (MatrixBlock, BlockedMatrix))
        ]
        if not mats:
            raise RuntimeExecError("distributed op without matrix input")
        main_idx, main_val = max(mats, key=lambda item: item[1].size_bytes)

        if hop.kind is OpKind.AGG_BINARY and main_idx != 0:
            # Matrix multiplication with the big matrix on the right:
            # repartitioning/shuffle of the left operand.
            self.charge_shuffle(_value_bytes(input_values[0]))

        placement = self._placement(hop, input_values, main_idx)
        if placement is _LOCAL:
            return self._execute_local(hop, input_values, keys, main_idx,
                                       output_key)

        main_blocked = self._as_blocked(main_val, keys[main_idx])
        plans = self._partition_plans(
            hop, input_values, main_idx, main_blocked
        )

        if placement is _REDUCE:
            return self._execute_reduce(hop, main_blocked, plans,
                                        keys[main_idx])

        parts = self.backend.run_map(
            rops.hop_spec(hop), main_blocked, plans, keys[main_idx],
            output_key
        )
        return BlockedMatrix(
            parts, main_blocked.rows, parts[0].cols, main_blocked.bounds,
            mp_key=output_key
        )

    # -- placement -----------------------------------------------------
    def _placement(self, hop: Hop, values: list, main_idx: int) -> str:
        """Classify a basic hop: partition-wise map, partial-aggregate
        reduce, or single-partition local execution."""
        kind = hop.kind
        if kind is OpKind.UNARY:
            # cumsum is a column-direction prefix scan — not row-local.
            return _LOCAL if hop.op == "cumsum" else _MAP
        if kind in (OpKind.BINARY, OpKind.TERNARY):
            main_rows = _rows_of(values[main_idx])
            row_local = all(
                not isinstance(v, (MatrixBlock, BlockedMatrix))
                or _rows_of(v) in (main_rows, 1)
                for v in values
            )
            return _MAP if row_local else _LOCAL
        if kind is OpKind.AGG_UNARY:
            return _MAP if hop.direction is AggDir.ROW else _REDUCE
        if kind is OpKind.AGG_BINARY:
            # Row-partitioned matmult distributes when the partitioned
            # matrix is the left operand; the right side broadcasts.
            return _MAP if main_idx == 0 else _LOCAL
        return _LOCAL

    # -- side inputs ---------------------------------------------------
    def _partition_plans(self, hop: Hop, values: list, main_idx: int,
                         main_blocked: BlockedMatrix) -> list:
        """Classify each input (main / zip / slice / whole broadcast)
        and charge side-input traffic once; backends resolve the plans
        per partition with :func:`partition_values`."""
        cellwise = hop.kind in (OpKind.UNARY, OpKind.BINARY, OpKind.TERNARY)
        plans: list = []  # ('main',) | ('zip', bm) | ('slice', mb) | ('whole', v)
        for idx, value in enumerate(values):
            if idx == main_idx:
                plans.append(("main", None))
                continue
            if (cellwise and isinstance(value, CompressedMatrix)
                    and value.rows == main_blocked.rows > 1):
                # Compressed blocks cannot be row-sliced: expand a
                # row-aligned one once here, then slice it like a block.
                self.stats.n_decompressions += 1
                value = value.decompress()
            if not isinstance(value, (MatrixBlock, BlockedMatrix)):
                plans.append(("whole", value))
                continue
            if isinstance(value, BlockedMatrix):
                if cellwise and value.is_copartitioned(main_blocked):
                    # Co-partitioned zip: no network traffic.
                    plans.append(("zip", value))
                    continue
                value = self.collect_value(value)
            same_shape = value.shape == (main_blocked.rows, main_blocked.cols)
            if same_shape:
                # Co-partitioned join of two large inputs.
                self.charge_shuffle(value.size_bytes)
            else:
                self.charge_broadcast(value.size_bytes)
            if cellwise and value.rows == main_blocked.rows and value.rows > 1:
                plans.append(("slice", value))
            else:
                plans.append(("whole", value))
        return plans

    # -- execution strategies ------------------------------------------
    def _execute_local(self, hop: Hop, values: list, keys: list,
                       main_idx: int, output_key=None) -> object:
        """Operations without a row-local distributed form execute as a
        single partition; distributed inputs are collected first."""
        local_values = []
        for idx, value in enumerate(values):
            if isinstance(value, BlockedMatrix):
                value = self.collect_value(value)
            elif isinstance(value, MatrixBlock):
                if idx == main_idx:
                    self.charge_read(value.size_bytes, key=keys[idx],
                                     value=value)
                elif value.shape == _shape_of(values[main_idx]):
                    self.charge_shuffle(value.size_bytes)
                else:
                    self.charge_broadcast(value.size_bytes)
            local_values.append(value)
        result = run_partition_task("hop", rops.hop_spec(hop), local_values,
                                    self.config, self.stats)
        if isinstance(result, MatrixBlock):
            self.charge_write(result.size_bytes, key=output_key, value=result)
        return result

    def _execute_reduce(self, hop: Hop, main_blocked: BlockedMatrix,
                        plans: list, main_key=None) -> object:
        """Full/column aggregations: per-partition partials combined by
        a tree-reduce (mean decomposes into a sum of partials)."""
        kernel, agg, direction = rops.hop_spec(hop)
        base_op = "sum" if agg == "mean" else agg
        spec = (kernel, base_op, direction)
        combine_op = "sum" if base_op in ("sum", "sumsq") else base_op
        partials = self.backend.run_map(spec, main_blocked, plans, main_key)
        result, levels = tree_reduce(
            partials, lambda a, b: _combine_partials(a, b, combine_op)
        )
        self.charge_tree_reduce(_value_bytes(partials[0]), levels)
        if agg == "mean":
            denom = (
                main_blocked.rows * main_blocked.cols
                if hop.direction is AggDir.FULL
                else main_blocked.rows
            )
            if isinstance(result, MatrixBlock):
                result = MatrixBlock(result.to_dense() / denom)
            else:
                result = result / denom
        return result

    # -- generated fused operators -------------------------------------
    def execute_spoof(self, hop: SpoofOp, input_values: list,
                      input_keys: list | None = None,
                      output_key=None) -> object:
        """Execute a fused operator partition-wise: the main input is
        (or stays) row-partitioned, all side inputs are broadcast once
        per operator (the Table 6 broadcast overhead), and aggregation
        outputs combine via a tree-reduce over per-partition partials."""
        self.stats.n_distributed_ops += 1
        keys = list(input_keys) if input_keys else [None] * len(input_values)
        cplan = hop.operator.cplan
        main_index = cplan.main_index
        values = list(input_values)

        main_val = values[main_index] if main_index >= 0 else None
        if not isinstance(main_val, (MatrixBlock, BlockedMatrix)):
            # No partitionable main input: single-partition fallback.
            for idx, value in enumerate(values):
                if isinstance(value, BlockedMatrix):
                    values[idx] = self.collect_value(value)
                elif _value_bytes(value) > 0:
                    self.charge_broadcast(_value_bytes(value))
            return run_partition_task("spoof", hop.operator, values,
                                      self.config, self.stats)

        main_blocked = self._as_blocked(main_val, keys[main_index])
        for idx, value in enumerate(values):
            if idx == main_index:
                continue
            if isinstance(value, BlockedMatrix):
                # Side inputs must be visible in full on every worker.
                value = self.collect_value(value)
                values[idx] = value
            size = _value_bytes(value)
            if size > 0:
                self.charge_broadcast(size)

        # Row-aligned compressed sides must decompress to be sliceable
        # (workers receive the compressed broadcast — charged above —
        # and expand it locally).
        values = decompress_side_inputs(
            cplan, values, main_blocked.rows, row_aligned_only=True
        )
        sliceable = sliceable_spoof_inputs(cplan, values, main_blocked.rows)
        plans = [
            ("main", None) if idx == main_index
            else ("slice" if idx in sliceable else "whole", value)
            for idx, value in enumerate(values)
        ]
        self.stats.record_spoof(cplan.ttype.value)
        row_partitioned = is_row_partitioned_output(cplan.out_type)
        partials = self.backend.run_spoof(
            hop.operator, main_blocked, plans, keys[main_index],
            output_key if row_partitioned else None
        )

        if row_partitioned:
            blocks = [
                p if isinstance(p, MatrixBlock) else MatrixBlock(p)
                for p in partials
            ]
            return BlockedMatrix(
                blocks, main_blocked.rows, blocks[0].cols,
                main_blocked.bounds, mp_key=output_key
            )
        result, levels = reduce_spoof_partials(cplan, partials, tree_reduce)
        self.charge_tree_reduce(_value_bytes(partials[0]), levels)
        return result


def _rows_of(value) -> int:
    if isinstance(value, (MatrixBlock, BlockedMatrix)):
        return value.rows
    return 0


def _shape_of(value):
    if isinstance(value, (MatrixBlock, BlockedMatrix)):
        return (value.rows, value.cols)
    return None


def _value_bytes(value) -> float:
    if isinstance(value, (MatrixBlock, BlockedMatrix)):
        return value.size_bytes
    return 8.0
