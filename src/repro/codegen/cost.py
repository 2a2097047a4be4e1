"""Analytical cost model for DAG-structured fusion plans (Section 4.3).

Costs of a plan partition under an assignment of interesting points:

    C(P|q) = sum over operators p of ( T^w_p + max(T^r_p, T^c_p) )

Read and write times derive from input/output sizes normalized by peak
bandwidths, compute time from FLOPs normalized by peak compute; taking
``max(T^r, T^c)`` adapts to I/O- versus compute-bound operators.
Sparsity-exploiting operators scale their estimates by the sparsity of
the main input.  Cost vectors per fused operator capture shared reads
and redundant compute of overlapping operators.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.codegen.memo import MemoEntry, MemoTable
from repro.codegen.template import TemplateType
from repro.codegen.tpl_outer import OUTER_MAX_RANK
from repro.codegen.partitions import PlanPartition
from repro.config import CodegenConfig
from repro.hops import memory
from repro.hops.hop import (
    AggBinaryOp,
    AggUnaryOp,
    BinaryOp,
    Hop,
    UnaryOp,
    topological_order,
)
from repro.hops.types import AggOp, OpKind, SPARSE_SAFE_UNARY

INFINITE = math.inf

# Cell operations safe over non-zeros of the main input.
_CELL_SPARSE_SAFE_BINARY = {"*"}

_LEAF_KINDS = (OpKind.DATA, OpKind.LITERAL)

# Cost ties favour sparsity-exploiting and multi-aggregate templates: an
# Outer or MAgg operator of equal local cost enables cross-operator
# benefits (sparse drivers, shared single-pass reads).
_COST_TIE_RANK = {
    TemplateType.OUTER: 0,
    TemplateType.MAGG: 1,
    TemplateType.CELL: 2,
    TemplateType.ROW: 3,
    None: 4,
}

# Maximal-fusion ties favour templates covering more operators.
_FUSION_TIE_RANK = {
    None: 0,
    TemplateType.OUTER: 1,
    TemplateType.MAGG: 2,
    TemplateType.CELL: 3,
    TemplateType.ROW: 4,
}


@dataclass
class CostVector:
    """Per fused operator: output, distinct inputs, compute workload."""

    ttype: TemplateType | None
    output: Hop
    flops: float = 0.0
    inputs: dict[int, Hop] = field(default_factory=dict)
    covered: list[Hop] = field(default_factory=list)
    visited: set[int] = field(default_factory=set)
    entries: dict[int, MemoEntry] = field(default_factory=dict)

    def add_input(self, hop: Hop) -> None:
        self.inputs.setdefault(hop.id, hop)


@dataclass
class OperatorPlan:
    """A selected (possibly fused) operator and its cover."""

    root: Hop
    ttype: TemplateType | None
    entries: dict[int, MemoEntry]
    covered: list[Hop]
    inputs: list[Hop]
    time: float
    sparse_safe: bool = False

    @property
    def n_covered(self) -> int:
        return len(self.covered)


class CostEstimator:
    """Costs plan partitions under materialization assignments.

    An assignment ``q`` is an int mask over ``part.points``: bit ``i``
    set materializes the dependency of point ``i``, which invalidates
    all fusion references along it.  Covers, operator choices and
    produce costs of a hop only ever test dependencies at or below that
    hop, so they are memoized on ``q`` restricted to the points the hop
    can reach — assignments that differ elsewhere share the entry.  The
    memos belong to one partition at a time: costing another partition
    starts them afresh.
    """

    def __init__(self, memo: MemoTable, config: CodegenConfig,
                 hop_by_id: dict[int, Hop]):
        self.memo = memo
        self.config = config
        self.hops = hop_by_id
        self.n_covers_built = 0
        self._threads = config.effective_intra_op_threads()
        # Assignment-independent tables, filled on first use.
        self._flops_cache: dict[int, float] = {}
        self._bytes_cache: dict[int, float] = {}
        self._basic_cache: dict[int, OperatorPlan] = {}
        self._root_table: dict[int, list] = {}
        self._absorb_table: dict[tuple[int, TemplateType], list[MemoEntry]] = {}
        # The partition the assignment-keyed memos belong to.
        self._part: PlanPartition | None = None

    def _bind(self, part: PlanPartition) -> None:
        """Index ``part``'s points and start empty memos for it.

        ``_reach[h]`` is the mask of points whose consumer is ``h`` or
        below it, from one pass over the DAG under the partition roots
        (hops that reach no point are left out).
        """
        self._part = part
        self._roots_desc = sorted(part.roots, reverse=True)
        self._edge_bit: dict[tuple[int, int], int] = {}
        own: dict[int, int] = {}
        for i, point in enumerate(part.points):
            self._edge_bit[point.consumer_id, point.target_id] = 1 << i
            own[point.consumer_id] = own.get(point.consumer_id, 0) | 1 << i
        reach: dict[int, int] = {}
        if own:
            for hop in topological_order(self.hops[r] for r in self._roots_desc):
                mask = own.get(hop.id, 0)
                for hop_in in hop.inputs:
                    mask |= reach.get(hop_in.id, 0)
                if mask:
                    reach[hop.id] = mask
        self._reach = reach
        self._candidates_memo: dict[tuple[int, int], list[OperatorPlan]] = {}
        self._best_memo: dict[tuple[int, bool, int], OperatorPlan] = {}
        self._produce_memo: dict[tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # Partition costing (getPlanCost)
    # ------------------------------------------------------------------
    def cost_partition(self, part: PlanPartition, q: int = 0,
                       record: dict[int, OperatorPlan] | None = None,
                       bound: float = INFINITE,
                       prefer_max_fusion: bool = False) -> float:
        """Total cost of producing all partition roots under ``q``.

        Costing stops early once ``bound`` is exceeded (partial
        costing, Section 4.4).
        """
        if part is not self._part:
            self._bind(part)
        total = 0.0
        produced: set[int] = set()
        pending = list(self._roots_desc)
        while pending:
            hop_id = pending.pop()
            if hop_id in produced:
                continue
            produced.add(hop_id)
            plan = self._best_operator(self.hops[hop_id], q, prefer_max_fusion)
            total += plan.time
            if total >= bound:
                return INFINITE
            for hop_in in plan.inputs:
                if hop_in.id in part.members and hop_in.id not in produced:
                    pending.append(hop_in.id)
            if record is not None and plan.ttype is not None and plan.n_covered >= 2:
                record[hop_id] = plan
        return total

    # ------------------------------------------------------------------
    # Operator-level costing
    # ------------------------------------------------------------------
    def _best_operator(self, hop: Hop, q: int,
                       prefer_max_fusion: bool) -> OperatorPlan:
        key = (hop.id, prefer_max_fusion, q & self._reach.get(hop.id, 0))
        best = self._best_memo.get(key)
        if best is not None:
            return best
        candidates = self._candidates(hop, q)
        if prefer_max_fusion:
            # Heuristic policies: maximal fusion, ignoring costs.
            best = max(
                candidates, key=lambda p: (p.n_covered, _FUSION_TIE_RANK[p.ttype])
            )
        else:
            # Cost-based choice with a lookahead on the cost of
            # producing each candidate's materialized inputs.
            def score(plan: OperatorPlan) -> tuple[float, int]:
                extra = 0.0
                for hop_in in plan.inputs:
                    extra += self._produce_cost(hop_in, q)
                return (plan.time + extra, _COST_TIE_RANK[plan.ttype])

            best = min(candidates, key=score)
        self._best_memo[key] = best
        return best

    def _produce_cost(self, hop: Hop, q: int) -> float:
        """Cheapest way to materialize ``hop``: the minimum over its
        candidates of operator time plus producing the operator's inputs.

        Evaluated in post-order on an explicit stack (chains of fusable
        operators can be thousands deep), every value memoized.
        """
        memo, reach = self._produce_memo, self._reach
        stack = [hop]
        while True:
            node = stack[-1]
            key = (node.id, q & reach.get(node.id, 0))
            if key not in memo:
                if node.kind in _LEAF_KINDS:
                    memo[key] = 0.0
                elif not self.memo.contains(node.id):
                    memo[key] = self._basic_plan(node).time
                else:
                    plans = self._candidates(node, q)
                    missing = [
                        i for plan in plans for i in plan.inputs
                        if (i.id, q & reach.get(i.id, 0)) not in memo
                    ]
                    if missing:
                        stack.extend(missing)
                        continue
                    best = INFINITE
                    for plan in plans:
                        extra = sum(
                            memo[i.id, q & reach.get(i.id, 0)] for i in plan.inputs
                        )
                        best = min(best, plan.time + extra)
                    memo[key] = best
            stack.pop()
            if not stack:
                return memo[key]

    def _candidates(self, hop: Hop, q: int) -> list[OperatorPlan]:
        """The basic operator plus one greedy maximal cover of ``hop``
        per template type it can root, in template order."""
        key = (hop.id, q & self._reach.get(hop.id, 0))
        plans = self._candidates_memo.get(key)
        if plans is None:
            plans = [self._basic_plan(hop)]
            for ttype, entries in self._root_entries(hop.id):
                plans.append(self._cover(hop, ttype, entries, q))
            self._candidates_memo[key] = plans
        return plans

    def _root_entries(self, hop_id: int) -> list[tuple[TemplateType, list[MemoEntry]]]:
        table = self._root_table.get(hop_id)
        if table is None:
            by_type: dict[TemplateType, list[MemoEntry]] = {}
            for entry in self.memo.root_entries(hop_id):
                by_type.setdefault(entry.ttype, []).append(entry)
            table = sorted(by_type.items(), key=lambda item: item[0].value)
            self._root_table[hop_id] = table
        return table

    def _absorbable(self, hop_id: int, ttype: TemplateType) -> list[MemoEntry]:
        """Plans of ``hop_id`` a ``ttype`` operator may absorb, narrowed
        to same-type plans where there are any."""
        entries = self._absorb_table.get((hop_id, ttype))
        if entries is None:
            entries = self.memo.compatible_entries(hop_id, ttype)
            entries = [e for e in entries if e.ttype is ttype] or entries
            self._absorb_table[hop_id, ttype] = entries
        return entries

    def _basic_plan(self, hop: Hop) -> OperatorPlan:
        cached = self._basic_cache.get(hop.id)
        if cached is not None:
            return cached
        cv = CostVector(None, hop)
        cv.flops = self._flops(hop)
        cv.covered.append(hop)
        for hop_in in hop.inputs:
            cv.add_input(hop_in)
        time = self._vector_time(cv)
        plan = OperatorPlan(hop, None, {}, [hop], list(cv.inputs.values()), time)
        self._basic_cache[hop.id] = plan
        return plan

    def _cover(self, hop: Hop, ttype: TemplateType, entries: list[MemoEntry],
               q: int) -> OperatorPlan:
        """Greedy maximal cover of ``hop`` with a ``ttype`` operator."""
        self.n_covers_built += 1
        cv = CostVector(ttype, hop)
        self._visit(hop, self._most_usable(hop, entries, q), cv, q)
        time = self._vector_time(cv)
        plan = OperatorPlan(
            hop, ttype, cv.entries, cv.covered, list(cv.inputs.values()), time
        )
        plan.sparse_safe = self._is_sparse_safe(cv)
        return plan

    def _most_usable(self, hop: Hop, entries: list[MemoEntry], q: int) -> MemoEntry:
        """The first entry with the most references ``q`` leaves fusable."""
        if len(entries) == 1:
            return entries[0]
        edge_bit = self._edge_bit

        def usable_refs(entry: MemoEntry) -> int:
            return sum(
                1 for ref in entry.refs
                if ref != -1 and not q & edge_bit.get((hop.id, ref), 0)
            )

        return max(entries, key=usable_refs)

    def _visit(self, hop: Hop, entry: MemoEntry, cv: CostVector, q: int) -> None:
        # Iterative DFS preserving the recursive pre-order (fusion covers
        # can be thousands of operators deep, e.g. long cellwise chains).
        edge_bit = self._edge_bit
        stack: list[tuple[Hop, MemoEntry]] = [(hop, entry)]
        while stack:
            node, node_entry = stack.pop()
            if node.id in cv.visited:
                continue
            cv.visited.add(node.id)
            cv.covered.append(node)
            cv.entries[node.id] = node_entry
            cv.flops += self._flops(node)
            pending: list[tuple[Hop, MemoEntry]] = []
            for idx, hop_in in enumerate(node.inputs):
                fused = False
                if node_entry.refs[idx] != -1 and not (
                    q & edge_bit.get((node.id, hop_in.id), 0)
                ):
                    sub_entries = self._absorbable(hop_in.id, node_entry.ttype)
                    if sub_entries:
                        pending.append(
                            (hop_in, self._most_usable(hop_in, sub_entries, q))
                        )
                        fused = True
                if not fused and hop_in.kind is not OpKind.LITERAL:
                    cv.add_input(hop_in)
            stack.extend(reversed(pending))

    # ------------------------------------------------------------------
    # Time estimates
    # ------------------------------------------------------------------
    def _flops(self, hop: Hop) -> float:
        cached = self._flops_cache.get(hop.id)
        if cached is None:
            cached = memory.compute_flops(hop, self.config)
            self._flops_cache[hop.id] = cached
        return cached

    def _bytes(self, hop: Hop) -> float:
        cached = self._bytes_cache.get(hop.id)
        if cached is None:
            cached = memory.output_bytes(hop)
            self._bytes_cache[hop.id] = cached
        return cached

    def _vector_time(self, cv: CostVector) -> float:
        config = self.config
        out_bytes = self._bytes(cv.output)
        in_bytes = sum(self._bytes(h) for h in cv.inputs.values())
        scale = self._sparsity_scale(cv)
        distributed = (
            config.cluster is not None
            and (out_bytes + in_bytes) > config.local_mem_budget
        )
        if distributed:
            cluster = config.cluster
            sizes = sorted((self._bytes(h) for h in cv.inputs.values()), reverse=True)
            main_bytes = sizes[0] if sizes else 0.0
            side_bytes = sum(sizes[1:])
            read_time = main_bytes / cluster.hdfs_bandwidth
            # Every additional input of a distributed operator is
            # broadcast to all workers (the Table 6 effect).
            read_time += side_bytes * cluster.n_workers / cluster.net_bandwidth
            write_time = out_bytes / cluster.hdfs_bandwidth
            compute_time = cv.flops * scale / (
                config.peak_flops * cluster.n_workers
            )
        else:
            read_time = in_bytes * scale / config.read_bandwidth if scale < 1.0 else (
                in_bytes / config.read_bandwidth
            )
            write_time = out_bytes / config.write_bandwidth
            compute_time = cv.flops * scale / config.peak_flops
            # Fused operators execute multi-threaded over row partitions
            # (skeletons intra-op parallelism): scale compute by the
            # effective parallelism so enumeration prefers fusion plans
            # that parallelize well.  I/O stays serial — bandwidth, not
            # cores, bounds reads and writes.
            compute_time /= self._intra_op_parallelism(cv)
        return write_time + max(read_time, compute_time)

    def _intra_op_parallelism(self, cv: CostVector) -> float:
        """Effective speedup of partition-parallel fused execution.

        Mirrors the runtime gate in ``skeletons._plan_intra_op``: only
        fused templates over a sufficiently large main input partition,
        and never into more parts than the main input has rows.
        """
        if cv.ttype is None:
            return 1.0
        par = self._threads
        if par <= 1:
            return 1.0
        main = self._main_input(cv)
        if main is None or main.cells < self.config.intra_op_min_cells:
            return 1.0
        if main.rows < 2 * par:
            return 1.0
        return float(par)

    def _sparsity_scale(self, cv: CostVector) -> float:
        """Scale factor of sparsity-exploiting operators (main input)."""
        if cv.ttype is TemplateType.OUTER:
            driver = self._outer_driver(cv)
            if driver is not None:
                return max(driver.sparsity, 1e-9)
            return 1.0
        if cv.ttype in (TemplateType.CELL, TemplateType.MAGG):
            if self._is_sparse_safe(cv):
                main = self._main_input(cv)
                if main is not None and main.is_sparse_est():
                    return max(main.sparsity, 1e-9)
        return 1.0

    def _main_input(self, cv: CostVector) -> Hop | None:
        mats = [h for h in cv.inputs.values() if h.is_matrix]
        if not mats:
            return None
        return max(mats, key=lambda h: h.cells)

    def _outer_driver(self, cv: CostVector) -> Hop | None:
        outer_dims = None
        for hop in cv.covered:
            if isinstance(hop, AggBinaryOp) and hop.inputs[0].cols < hop.rows:
                if hop.id in cv.visited and hop.inputs[0].cols <= OUTER_MAX_RANK:
                    outer_dims = hop.dims
                    break
        if outer_dims is None:
            return None
        for hop in cv.inputs.values():
            if hop.dims == outer_dims:
                return hop
        return None

    def _is_sparse_safe(self, cv: CostVector) -> bool:
        if cv.ttype not in (TemplateType.CELL, TemplateType.MAGG):
            return False
        main = self._main_input(cv)
        if main is None:
            return False
        has_main_mult = False
        for hop in cv.covered:
            if isinstance(hop, AggUnaryOp):
                if hop.agg_op not in (AggOp.SUM, AggOp.SUM_SQ):
                    return False
                continue
            if isinstance(hop, UnaryOp):
                if hop.op not in SPARSE_SAFE_UNARY:
                    return False
                continue
            if isinstance(hop, BinaryOp):
                if hop.op not in _CELL_SPARSE_SAFE_BINARY:
                    return False
                if any(i.id == main.id for i in hop.inputs):
                    has_main_mult = True
                continue
            return False
        return has_main_mult

    # ------------------------------------------------------------------
    # Lower bounds for cost-based pruning (Algorithm 2)
    # ------------------------------------------------------------------
    def static_partition_cost(self, part: PlanPartition) -> tuple[float, float, float]:
        """The (write, read, compute) times of C_Pi: root writes,
        partition input reads, minimal compute.  C_Pi itself is
        ``write + max(read, compute)``."""
        config = self.config
        read_bytes = sum(self._bytes(self.hops[i]) for i in part.inputs if i in self.hops)
        write_bytes = sum(self._bytes(self.hops[r]) for r in part.roots)
        min_scale = 1.0
        for i in part.inputs:
            hop = self.hops.get(i)
            if hop is not None and hop.is_matrix and hop.nnz >= 0:
                min_scale = min(min_scale, max(hop.sparsity, 1e-9))
        flops = sum(self._flops(self.hops[m]) for m in part.members)
        return (
            write_bytes / config.write_bandwidth,
            read_bytes / config.read_bandwidth,
            flops * min_scale / config.peak_flops,
        )

    def materialization_cost(self, static_parts: tuple[float, float, float],
                             q: int, points) -> float:
        """Minimum additional cost, over the ``static_parts`` of the
        points' partition, of the positive assignments in q: each
        distinct materialization target requires at least one write and
        one read."""
        config = self.config
        targets = {p.target_id for i, p in enumerate(points) if q >> i & 1}
        extra_write = 0.0
        extra_read = 0.0
        for target in targets:
            hop = self.hops.get(target)
            if hop is None:
                continue
            size = self._bytes(hop)
            extra_write += size / config.write_bandwidth
            extra_read += size / config.read_bandwidth
        write_time, read_time, compute_time = static_parts
        return (
            write_time
            + extra_write
            + max(read_time + extra_read, compute_time)
            - (write_time + max(read_time, compute_time))
        )


def assignment_mask(flags: Iterable[bool]) -> int:
    """The int mask of a boolean assignment: bit i is ``flags[i]``."""
    return sum(1 << i for i, flag in enumerate(flags) if flag)
