"""MPSkipEnum tests: optimality vs exhaustive search, pruning safety."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.codegen.cost import CostEstimator, assignment_mask
from repro.codegen.enumerate import (
    _num_skip_plans,
    _point_mask,
    mpskip_enum,
)
from repro.codegen.explore import explore
from repro.codegen.partitions import build_partitions
from repro.config import CodegenConfig
from repro.hops.hop import collect_dag
from repro.hops.rewrites import apply_rewrites
from repro.runtime.stats import RuntimeStats


def _setup(exprs, **config_kwargs):
    config = CodegenConfig(**config_kwargs)
    roots = apply_rewrites([e.hop for e in exprs])
    memo = explore(roots, config)
    hop_by_id = {h.id: h for h in collect_dag(roots)}
    estimator = CostEstimator(memo, config, hop_by_id)
    parts = build_partitions(memo, roots)
    return config, memo, hop_by_id, estimator, parts


def _brute_force(estimator, part):
    best_cost, best_q = math.inf, None
    n = len(part.points)
    for bits in itertools.product([False, True], repeat=n):
        cost = estimator.cost_partition(part, assignment_mask(bits))
        if cost < best_cost:
            best_cost, best_q = cost, bits
    return best_cost, best_q


def _shared_dag_exprs(rng, n_shared=2):
    x = api.matrix(rng.random((50, 20)), "X")
    shared1 = x * 2.0
    shared2 = shared1 + 1.0
    e1 = (shared2 * 3.0).sum()
    e2 = (shared2 * shared1).sum()
    e3 = (shared1 - 0.5).sum()
    return [e1, e2, e3]


def _enumeration_order(rng):
    """The assignments ``mpskip_enum`` hands to ``cost_partition``, in
    order, as position lists (position p is point p: no cut set), for
    the largest partition of the shared DAG with both prunings off."""
    config, memo, hop_by_id, estimator, parts = _setup(
        _shared_dag_exprs(rng),
        enable_cost_pruning=False,
        enable_structural_pruning=False,
    )
    part = max(parts, key=lambda p: len(p.points))
    n = len(part.points)
    assert n >= 3
    seen = []
    cost_partition = estimator.cost_partition

    def recording(part, q=0, **kwargs):
        seen.append([bool(q >> p & 1) for p in range(n)])
        return cost_partition(part, q, **kwargs)

    estimator.cost_partition = recording
    mpskip_enum(estimator, part, config, memo, hop_by_id)
    return n, seen


class TestCreateAssignment:
    def test_first_assignment_all_false(self, rng):
        n, seen = _enumeration_order(rng)
        assert seen[0] == [False] * n

    def test_last_assignment_all_true(self, rng):
        n, seen = _enumeration_order(rng)
        assert seen[-1] == [True] * n

    def test_linearization_negative_to_positive(self, rng):
        # Position 0 is the most significant bit: plan 2 flips the last
        # position, plan 2^(n-1) + 1 is the first with position 0 set.
        n, seen = _enumeration_order(rng)
        assert seen[1] == [False] * (n - 1) + [True]
        assert seen[1 << (n - 1)] == [True] + [False] * (n - 1)
        assert not any(q[0] for q in seen[:1 << (n - 1)])

    def test_all_assignments_distinct(self, rng):
        n, seen = _enumeration_order(rng)
        assert len(seen) == 1 << n
        assert len({tuple(q) for q in seen}) == 1 << n

    def test_num_skip_plans(self):
        # q = [F, T, F, F]: last positive index 1 -> skip 2^(4-2)-1 = 3.
        assert _num_skip_plans(0b0100, 4) == 3
        assert _num_skip_plans(0b0001, 4) == 0
        assert _num_skip_plans(0b1000, 4) == 7
        # Nothing positive: every other plan shares the empty prefix.
        assert _num_skip_plans(0b0000, 4) == 15

    def test_point_mask_scatters_positions_onto_points(self):
        # Positions laid out as points [2, 0, 1]: position 0 (the most
        # significant bit) is point 2.
        bits = [1 << idx for idx in reversed([2, 0, 1])]
        assert _point_mask(0b100, bits) == 0b100
        assert _point_mask(0b010, bits) == 0b001
        assert _point_mask(0b011, bits) == 0b011
        assert _point_mask(0b000, bits) == 0


class TestOptimality:
    def test_matches_brute_force_shared_dag(self, rng):
        config, memo, hop_by_id, estimator, parts = _setup(_shared_dag_exprs(rng))
        for part in parts:
            if not part.points:
                continue
            best_cost, _ = _brute_force(estimator, part)
            result = mpskip_enum(estimator, part, config, memo, hop_by_id)
            assert result.cost == pytest.approx(best_cost, rel=1e-12)

    def test_matches_brute_force_without_pruning(self, rng):
        config, memo, hop_by_id, estimator, parts = _setup(
            _shared_dag_exprs(rng),
            enable_cost_pruning=False,
            enable_structural_pruning=False,
        )
        for part in parts:
            if not part.points:
                continue
            best_cost, _ = _brute_force(estimator, part)
            result = mpskip_enum(estimator, part, config, memo, hop_by_id)
            assert result.cost == pytest.approx(best_cost, rel=1e-12)

    def test_pruning_reduces_evaluations(self, rng):
        exprs = _shared_dag_exprs(rng)
        config_np, memo, hop_by_id, estimator, parts = _setup(
            exprs, enable_cost_pruning=False, enable_structural_pruning=False
        )
        full_evals = sum(
            mpskip_enum(estimator, p, config_np, memo, hop_by_id).n_evaluated
            for p in parts
            if p.points
        )
        config_p = CodegenConfig()
        pruned_evals = sum(
            mpskip_enum(estimator, p, config_p, memo, hop_by_id).n_evaluated
            for p in parts
            if p.points
        )
        assert pruned_evals <= full_evals

    def test_fuse_all_costed_first(self, rng):
        """The all-False (fuse-all) plan is the first one costed, with
        pruning on and a cut set reordering the positions too."""
        config, memo, hop_by_id, estimator, parts = _setup(_shared_dag_exprs(rng))
        cost_partition = estimator.cost_partition
        for part in parts:
            if not part.points:
                continue
            seen = []
            estimator.cost_partition = lambda part, q=0, **kwargs: (
                seen.append(q), cost_partition(part, q, **kwargs))[1]
            mpskip_enum(estimator, part, config, memo, hop_by_id)
            assert seen[0] == 0


class TestLowerBound:
    def test_static_cost_is_lower_bound(self, rng):
        config, memo, hop_by_id, estimator, parts = _setup(_shared_dag_exprs(rng))
        for part in parts:
            static_parts = estimator.static_partition_cost(part)
            write, read, compute = static_parts
            n = len(part.points)
            for bits in itertools.product([False, True], repeat=min(n, 6)):
                q = assignment_mask(bits)
                cost = estimator.cost_partition(part, q)
                bound = write + max(read, compute) + estimator.materialization_cost(
                    static_parts, q, part.points
                )
                assert bound <= cost + 1e-9, (
                    f"lower bound {bound} exceeds true cost {cost}"
                )

    def test_bound_uses_the_partition_it_is_given(self, rng):
        """The static parts travel with the call: bounding partition A
        after B's static cost was computed still bounds A."""
        x = api.matrix(rng.random((50, 20)), "X")
        shared = x * 2.0
        small = [(shared + 1.0).sum(), (shared * shared).sum()]
        y = api.matrix(rng.random((4000, 300)), "Y")
        shared_y = y * 3.0
        large = [(shared_y - 1.0).row_sums(), (shared_y * shared_y).row_sums()]
        config, memo, hop_by_id, estimator, parts = _setup(small + large)
        parts = [p for p in parts if p.points]
        assert len(parts) == 2
        part_a, part_b = sorted(parts, key=lambda p: sum(
            hop_by_id[m].cells for m in p.members
        ))
        static_a = estimator.static_partition_cost(part_a)
        static_b = estimator.static_partition_cost(part_b)
        assert static_a != static_b
        for part, static_parts in ((part_a, static_a), (part_b, static_b)):
            write, read, compute = static_parts
            for q in range(1 << len(part.points)):
                bound = write + max(read, compute) + estimator.materialization_cost(
                    static_parts, q, part.points
                )
                assert bound <= estimator.cost_partition(part, q) + 1e-9


@given(seed=st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_optimality_property(seed):
    """MPSkipEnum equals exhaustive search on randomized shared DAGs."""
    rng = np.random.default_rng(seed)
    x = api.matrix(rng.random((30, 12)), "X")
    y = api.matrix(rng.random((30, 12)), "Y")
    shared = x * y
    layer = shared + float(rng.uniform(0.1, 2.0))
    exprs = [
        (layer * 2.0).sum(),
        (layer + shared).sum(),
    ]
    config = CodegenConfig()
    roots = apply_rewrites([e.hop for e in exprs])
    memo = explore(roots, config)
    hop_by_id = {h.id: h for h in collect_dag(roots)}
    estimator = CostEstimator(memo, config, hop_by_id)
    for part in build_partitions(memo, roots):
        if not part.points or len(part.points) > 10:
            continue
        best_cost, _ = _brute_force(estimator, part)
        result = mpskip_enum(estimator, part, config, memo, hop_by_id)
        assert result.cost <= best_cost + 1e-9
