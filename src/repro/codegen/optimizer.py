"""The codegen optimizer: five compilation steps (Section 2.1).

1. candidate exploration (memo table, Algorithm 1),
2. candidate selection (cost-based MPSkipEnum, or the fuse-all /
   fuse-no-redundancy heuristics),
3. CPlan construction for selected plans,
4. code generation + compilation (with the plan cache),
5. replacement of covered HOP DAG parts by fused operators.
"""

from __future__ import annotations

import time

from repro.codegen.construct import construct_cplan, construct_multi_agg
from repro.codegen.cost import CostEstimator, OperatorPlan, assignment_mask
from repro.codegen.enumerate import mpskip_enum
from repro.codegen.explore import explore
from repro.codegen.heuristics import fuse_all, fuse_no_redundancy
from repro.codegen.partitions import build_partitions
from repro.codegen.plan_cache import PlanCache
from repro.codegen.template import TemplateType
from repro.config import CodegenConfig
from repro.errors import CodegenError
from repro.hops.hop import Hop, SpoofOp, SpoofOutOp, collect_dag
from repro.runtime.stats import RuntimeStats

#: Partitions at least this large with zero interesting points skip the
#: per-node cost descent (one O(|members|) cover per node, so quadratic
#: in partition size) and take the maximal-fusion cover directly.  Far
#: above any DAG the experiments produce; only pathological programs
#: (e.g. thousands of chained cellwise ops) hit it.
_LARGE_PARTITION_MEMBERS = 512


class CodegenOptimizer:
    """Optimizes one HOP DAG at a time and rewrites it in place."""

    def __init__(self, config: CodegenConfig, plan_cache: PlanCache | None = None,
                 stats: RuntimeStats | None = None):
        self.config = config
        self.plan_cache = plan_cache or PlanCache(config.plan_cache_enabled)
        self.stats = stats or RuntimeStats()

    def optimize(self, roots: list[Hop], policy: str = "cost") -> list[Hop]:
        """Explore, select, generate, and splice fused operators.

        ``policy``: 'cost' (the optimizer), 'fa' (fuse-all), or 'fnr'
        (fuse-no-redundancy).  Returns the (possibly modified) roots.
        """
        start = time.perf_counter()
        heuristic = policy in ("fa", "fnr")
        memo = explore(roots, self.config, prune_dominated=heuristic)
        self.stats.n_dags_optimized += 1
        if not memo.group_ids():
            self.stats.codegen_seconds += time.perf_counter() - start
            return roots

        hop_by_id = {h.id: h for h in collect_dag(roots)}
        estimator = CostEstimator(memo, self.config, hop_by_id)
        partitions = build_partitions(memo, roots)
        self.stats.n_partitions += len(partitions)

        chosen: dict[int, OperatorPlan] = {}
        for part in partitions:
            if policy == "fa":
                chosen.update(fuse_all(estimator, part))
            elif policy == "fnr":
                chosen.update(fuse_no_redundancy(estimator, part))
            elif (
                not part.points
                and len(part.members) >= _LARGE_PARTITION_MEMBERS
            ):
                # Degenerate giant partition (e.g. a multi-thousand-op
                # cellwise chain) with nothing to enumerate: the cost
                # descent would compute one O(|members|) cover per node
                # (quadratic overall).  Take maximal fusion.
                chosen.update(fuse_all(estimator, part))
            else:
                result = mpskip_enum(
                    estimator, part, self.config, memo, hop_by_id, self.stats
                )
                estimator.cost_partition(
                    part, assignment_mask(result.assignment), record=chosen
                )

        roots = self._materialize_operators(roots, chosen)
        self.stats.codegen_seconds += time.perf_counter() - start
        return roots

    # ------------------------------------------------------------------
    def _materialize_operators(self, roots: list[Hop],
                               chosen: dict[int, OperatorPlan]) -> list[Hop]:
        """Construct CPlans, compile operators, splice the DAG."""
        magg_groups, singles = _group_multi_aggregates(chosen)

        replacements: list[tuple[list[Hop], object, list[Hop]]] = []
        for plan in singles:
            built = construct_cplan(plan, self.config)
            if built is None:
                continue
            cplan, input_hops = built
            self.stats.n_cplans_constructed += 1
            operator = self.plan_cache.get_or_compile(cplan, self.config, self.stats)
            replacements.append(([plan.root], operator, input_hops))

        for group in magg_groups:
            try:
                cplan, input_hops = construct_multi_agg(group, self.config)
            except CodegenError:
                # The group cannot share one pass: compile each
                # aggregate as an operator of its own.
                self.stats.n_magg_fallbacks += 1
                for plan in group:
                    built = construct_cplan(plan, self.config)
                    if built is not None:
                        cplan_s, hops_s = built
                        self.stats.n_cplans_constructed += 1
                        op = self.plan_cache.get_or_compile(
                            cplan_s, self.config, self.stats
                        )
                        replacements.append(([plan.root], op, hops_s))
                continue
            self.stats.n_cplans_constructed += len(group)
            operator = self.plan_cache.get_or_compile(cplan, self.config, self.stats)
            replacements.append(([p.root for p in group], operator, input_hops))

        # Phase 1: create all SpoofOps against the *original* hops, so
        # operators reading another operator's output still reference
        # the original root; phase 2 rewires every covered root, which
        # updates those references through the parent links.
        spoofs: list[tuple[list[Hop], SpoofOp]] = []
        for covered_roots, operator, input_hops in replacements:
            spoof = SpoofOp(
                operator.cplan.ttype.value, operator, covered_roots[0], input_hops,
                covered_roots=covered_roots,
            )
            if len(covered_roots) > 1:
                # Multi-aggregate: the SpoofOp yields a k x 1 matrix.
                spoof.rows, spoof.cols = len(covered_roots), 1
                spoof.nnz = len(covered_roots)
            spoofs.append((covered_roots, spoof))

        root_map: dict[int, Hop] = {}
        for covered_roots, spoof in spoofs:
            if len(covered_roots) == 1:
                covered_roots[0].rewire_to(spoof)
                root_map[covered_roots[0].id] = spoof
            else:
                for index, agg_root in enumerate(covered_roots):
                    out = SpoofOutOp(spoof, index)
                    agg_root.rewire_to(out)
                    root_map[agg_root.id] = out
        return [root_map.get(r.id, r) for r in roots]


def _group_multi_aggregates(chosen: dict[int, OperatorPlan]):
    """Group selected MAgg plans sharing inputs (up to 3 per operator).

    Mirrors the paper's multi-aggregate operators over common inputs
    (Figure 1(c)); plans without a partner degrade to single-root
    multi-aggregates (equivalent to a full-agg Cell operator).
    """
    maggs = [p for p in chosen.values() if p.ttype is TemplateType.MAGG]
    others = [p for p in chosen.values() if p.ttype is not TemplateType.MAGG]

    groups: list[list[OperatorPlan]] = []
    for plan in sorted(maggs, key=lambda p: p.root.id):
        placed = False
        plan_inputs = {h.id for h in plan.inputs}
        for group in groups:
            if len(group) >= 3:
                continue
            group_inputs = {h.id for p in group for h in p.inputs}
            if plan_inputs & group_inputs:
                group.append(plan)
                placed = True
                break
        if not placed:
            groups.append([plan])

    multi = [g for g in groups if len(g) > 1]
    single_maggs = [g[0] for g in groups if len(g) == 1]
    return multi, others + single_maggs
