"""Baseline fusion-plan selection heuristics (Section 4.1).

* **fuse-all** maximizes fusion, accepting redundant compute on common
  subexpressions (similar to lazy evaluation in Spark or the SPOOF
  fuse-all code generator).
* **fuse-no-redundancy** never recomputes: every intermediate with
  multiple consumers is materialized.

Both operate on the same memo table as the cost-based optimizer; the
paper uses them as baselines (Gen-FA, Gen-FNR).
"""

from __future__ import annotations

from repro.codegen.cost import CostEstimator, OperatorPlan, assignment_mask
from repro.codegen.memo import MemoTable
from repro.codegen.partitions import PlanPartition


def fuse_all(estimator: CostEstimator, part: PlanPartition) -> dict[int, OperatorPlan]:
    """Maximal fusion: no materialization points, maximal covers."""
    record: dict[int, OperatorPlan] = {}
    estimator.cost_partition(part, record=record, prefer_max_fusion=True)
    return record


def fuse_no_redundancy(estimator: CostEstimator,
                       part: PlanPartition) -> dict[int, OperatorPlan]:
    """Materialize all intermediates with multiple consumers."""
    return no_redundancy_plan(estimator, part)[0]


def no_redundancy_plan(estimator: CostEstimator, part: PlanPartition
                       ) -> tuple[dict[int, OperatorPlan], float]:
    """fuse-no-redundancy's operators for ``part`` and their total cost."""
    q = assignment_mask(p.target_id in part.mat_points for p in part.points)
    record: dict[int, OperatorPlan] = {}
    cost = estimator.cost_partition(part, q, record=record, prefer_max_fusion=True)
    return record, cost
