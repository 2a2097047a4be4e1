"""MPSkipEnum: materialization-point skip enumeration (Algorithm 2).

The exponential search space of 2^|M'| boolean assignments is
linearized from negative (fuse) to positive (materialize) assignments,
so the fuse-all plan is costed first and yields a good upper bound.
Two pruning techniques skip entire areas of the search space:

* cost-based: a monotonically decreasing upper bound C̄ (best plan so
  far) against a lower bound of all unseen plans sharing the current
  positive prefix — on success we skip ``2^(|M'| - x - 1)`` plans where
  x is the last positive index;
* structural: cut sets over the reachability graph create independent
  sub-problems solved recursively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.codegen.cost import CostEstimator
from repro.codegen.memo import MemoTable
from repro.codegen.partitions import (
    CutSet,
    PlanPartition,
    find_cut_sets,
)
from repro.config import CodegenConfig
from repro.hops.hop import Hop

#: Safety cap on the plans enumerated per partition (or cut-set side).
_MAX_ENUM_PLANS = 1 << 22


def search_space(n_points: int) -> int:
    """Plans in the linearized space of ``n_points`` points, capped."""
    return min(1 << n_points, _MAX_ENUM_PLANS)


@dataclass
class EnumResult:
    """Best assignment found plus search statistics."""

    assignment: tuple[bool, ...]
    cost: float
    n_evaluated: int
    n_skipped: float


def _num_skip_plans(local_q: int, n: int) -> int:
    """Plans sharing the positive prefix of local_q (Algorithm 2, line
    14): those that differ only after its last positive position."""
    return ((local_q & -local_q) or 1 << n) - 1


def _point_mask(local_q: int, bits: list[int]) -> int:
    """Scatter a linearized assignment onto the partition's points;
    ``bits[k]`` is the point mask of bit k of local_q."""
    q = 0
    while local_q:
        low = local_q & -local_q
        q |= bits[low.bit_length() - 1]
        local_q ^= low
    return q


def mpskip_enum(estimator: CostEstimator, part: PlanPartition,
                config: CodegenConfig, memo: MemoTable,
                hop_by_id: dict[int, Hop], stats=None,
                point_indices: list[int] | None = None,
                use_structural: bool | None = None) -> EnumResult:
    """Enumerate assignments of the partition's interesting points.

    ``point_indices`` restricts enumeration to a subset of points (used
    by recursive cut-set sub-problems); the remaining points are fixed
    False inside this call and combined by the caller.

    The j-th (1-based) plan of the linearized space is the int
    ``local_q = j - 1`` read as n positions, position 0 the most
    significant bit: the space runs from all-False (fuse-all) to
    all-True (materialize-all), and plans sharing a positive prefix are
    contiguous.  ``bits[k]`` is the point mask (over ``part.points``, as
    ``cost_partition`` takes it) of bit k of ``local_q``.
    """
    points = part.points
    indices = list(range(len(points))) if point_indices is None else point_indices
    n = len(indices)
    if n == 0:
        cost = estimator.cost_partition(part)
        return EnumResult((), cost, 1, 0)

    if use_structural is None:
        use_structural = config.enable_structural_pruning

    # Structural pruning: pick the best valid cut set and lay out the
    # search space with its points first.
    cut: CutSet | None = None
    if use_structural and n >= 3 and point_indices is None:
        cuts = [
            c for c in find_cut_sets(part, memo, hop_by_id)
            if set(c.cut_points) | set(c.side1) | set(c.side2) <= set(indices)
        ]
        if cuts:
            cut = cuts[0]
            indices = (
                list(cut.cut_points)
                + [i for i in indices if i not in cut.cut_points]
            )
    bits = [1 << idx for idx in reversed(indices)]
    # The first plan of the cut's subspace: exactly the cut-set
    # positions (laid out first) positive, everything after negative.
    cut_boundary = None
    if cut is not None:
        n_cut = len(cut.cut_points)
        cut_boundary = ((1 << n_cut) - 1) << (n - n_cut)

    static_parts = estimator.static_partition_cost(part)
    write_time, read_time, compute_time = static_parts
    static_cost = write_time + max(read_time, compute_time)
    best_q: int | None = None
    best_cost = math.inf
    n_evaluated = 0
    n_skipped = 0.0
    total = search_space(n)

    j = 1
    while j <= total:
        local_q = j - 1
        q = _point_mask(local_q, bits)

        # Structural pruning via cut-set sub-problems: at the cut
        # boundary solve both sides independently and skip the subspace.
        if local_q == cut_boundary:
            sub_q, sub_cost, sub_eval = _solve_subproblems(
                estimator, part, cut, q
            )
            n_evaluated += sub_eval
            if sub_cost < best_cost:
                best_cost = sub_cost
                best_q = sub_q
            remaining = (1 << (n - n_cut)) - 1
            n_skipped += remaining
            j += remaining + 1
            continue

        # Cost-based pruning via lower bounds.
        if config.enable_cost_pruning and best_q is not None:
            lower = static_cost + estimator.materialization_cost(
                static_parts, q, points
            )
            if lower >= best_cost:
                skip = _num_skip_plans(local_q, n)
                n_skipped += skip
                j += skip + 1
                continue

        cost = estimator.cost_partition(part, q, bound=best_cost)
        n_evaluated += 1
        if cost < best_cost:
            best_cost = cost
            best_q = q
        j += 1

    if stats is not None:
        stats.n_plans_evaluated += n_evaluated
        stats.n_plans_skipped += n_skipped
    assert best_q is not None
    assignment = tuple(bool(best_q >> i & 1) for i in range(len(points)))
    return EnumResult(assignment, best_cost, n_evaluated, n_skipped)


def _solve_subproblems(estimator, part, cut: CutSet, q: int):
    """Solve the independent sub-problems created by a cut set."""
    n_evaluated = 0
    for side in (cut.side1, cut.side2):
        if not side:
            continue
        q, side_eval = _enumerate_subset(estimator, part, side, q)
        n_evaluated += side_eval
    cost = estimator.cost_partition(part, q)
    return q, cost, n_evaluated + 1


def _enumerate_subset(estimator, part, side: list[int], base_q: int):
    """Exhaustively enumerate a sub-problem's points with partial costing.

    Sub-problems are independent given the materialized cut set, so
    each side is optimized in isolation (other side fixed at its
    current values in ``base_q``).  Returns ``base_q`` with the side's
    points at their best values, and the number of plans costed.
    """
    n = len(side)
    bits = [1 << idx for idx in reversed(side)]
    base_q &= ~sum(bits)
    best_q = base_q
    best_cost = math.inf
    total = search_space(n)
    for local_q in range(total):
        q = base_q | _point_mask(local_q, bits)
        cost = estimator.cost_partition(part, q, bound=best_cost)
        if cost < best_cost:
            best_cost = cost
            best_q = q
    return best_q, total
