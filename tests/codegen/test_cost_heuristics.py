"""Cost model properties, heuristic selectors, and optimizer behavior."""

import numpy as np
import pytest

from repro import api
from repro.codegen.cost import CostEstimator
from repro.codegen.explore import explore
from repro.codegen.heuristics import fuse_all, fuse_no_redundancy
from repro.codegen.optimizer import CodegenOptimizer
from repro.codegen.partitions import build_partitions
from repro.codegen.template import TemplateType
from repro.config import ClusterConfig, CodegenConfig
from repro.hops.hop import SpoofOp, collect_dag
from repro.hops.rewrites import apply_rewrites
from repro.runtime.matrix import MatrixBlock


def _setup(exprs, config=None):
    config = config or CodegenConfig()
    roots = apply_rewrites([e.hop for e in exprs])
    memo = explore(roots, config)
    hop_by_id = {h.id: h for h in collect_dag(roots)}
    estimator = CostEstimator(memo, config, hop_by_id)
    parts = build_partitions(memo, roots)
    return roots, memo, hop_by_id, estimator, parts, config


class TestCostModel:
    def test_fused_cheaper_than_unfused_chain(self, rng):
        """Fusing a cell chain saves intermediate writes."""
        x = api.matrix(rng.random((1000, 100)), "X")
        y = api.matrix(rng.random((1000, 100)), "Y")
        _, memo, hop_by_id, est, parts, _ = _setup([(x * y * 2.0 + 1.0).sum()])
        (part,) = parts
        fused_cost = est.cost_partition(part)
        # Every member executed as a basic operator of its own.  (An
        # assignment can only block the partition's interesting points,
        # so this is summed rather than costed as one plan.)
        unfused_cost = sum(est._basic_plan(hop_by_id[m]).time for m in part.members)
        assert fused_cost < unfused_cost
        # Materializing every point never beats fuse-all on a chain.
        all_points = (1 << len(part.points)) - 1
        assert est.cost_partition(part, all_points) >= fused_cost

    def test_materializing_shared_intermediate_costs_a_write(self, rng):
        """The public costing path under a fully materialized assignment:
        blocking the one shared point adds its write and read back."""
        x = api.matrix(rng.random((1000, 100)), "X")
        shared = x * 2.0 + 1.0
        _, memo, hop_by_id, est, parts, _ = _setup(
            [(shared * 3.0).sum(), (shared * shared).sum()]
        )
        (part,) = [p for p in parts if p.points]
        all_points = (1 << len(part.points)) - 1
        fused, materialized = {}, {}
        fused_cost = est.cost_partition(part, 0, record=fused)
        materialized_cost = est.cost_partition(part, all_points, record=materialized)
        assert materialized_cost > fused_cost
        # Fuse-all recomputes the shared chain in each consumer; with
        # the points blocked it becomes an operator of its own.
        assert len(materialized) > len(fused)

    def test_sparsity_scaling_reduces_outer_cost(self, rng):
        u = rng.random((500, 8))
        v = rng.random((400, 8))

        def cost_for(sparsity):
            s = api.matrix(MatrixBlock.rand(500, 400, sparsity=sparsity, seed=5), "S")
            um, vm = api.matrix(u, "U"), api.matrix(v, "V")
            expr = (s * api.log(um @ vm.T + 1e-15)).sum()
            _, memo, hop_by_id, est, parts, _ = _setup([expr])
            return min(est.cost_partition(p) for p in parts)

        assert cost_for(0.001) < cost_for(0.5)

    def test_intra_op_parallelism_scales_compute(self, rng):
        """More intra-op threads lower fused compute estimates, so plan
        enumeration can prefer fusion plans that parallelize well."""
        x = api.matrix(rng.random((2000, 200)), "X")

        def cost_for(threads):
            # Stacked expensive unaries make the operator compute-bound,
            # so dividing compute by the parallelism moves the
            # max(read, compute) term.
            expr = (api.exp(api.exp(api.exp(x * 0.01))) * x).sum()
            _, memo, hop_by_id, est, parts, _ = _setup(
                [expr], CodegenConfig(intra_op_threads=threads)
            )
            return min(est.cost_partition(p) for p in parts)

        assert cost_for(4) < cost_for(1)

    def test_small_inputs_keep_serial_compute_estimates(self, rng):
        """Below ``parallel.PARALLEL_MIN_CELLS`` an operator runs as one
        part, and the cost model must credit that count."""
        x = api.matrix(rng.random((40, 12)), "X")

        def cost_for(threads):
            expr = (api.exp(x * 0.5) * x).sum()
            _, memo, hop_by_id, est, parts, _ = _setup(
                [expr], CodegenConfig(intra_op_threads=threads)
            )
            return min(est.cost_partition(p) for p in parts)

        assert cost_for(4) == cost_for(1)

    def test_distributed_costing_charges_broadcasts(self, rng):
        x = api.matrix(rng.random((2000, 50)), "X")
        v = api.matrix(rng.random((2000, 1)), "v")
        expr = ((x * v) * 2.0).sum()
        local_cfg = CodegenConfig()
        dist_cfg = CodegenConfig(
            cluster=ClusterConfig(), local_mem_budget=1e5
        )
        _, _, _, est_l, parts_l, _ = _setup([expr], local_cfg)

        x2 = api.matrix(rng.random((2000, 50)), "X")
        v2 = api.matrix(rng.random((2000, 1)), "v")
        expr2 = ((x2 * v2) * 2.0).sum()
        _, _, _, est_d, parts_d, _ = _setup([expr2], dist_cfg)
        local = sum(est_l.cost_partition(p) for p in parts_l)
        dist = sum(est_d.cost_partition(p) for p in parts_d)
        assert dist > local  # network bandwidths are slower than memory

    def test_partial_costing_cutoff(self, rng):
        x = api.matrix(rng.random((100, 20)), "X")
        _, _, _, est, parts, _ = _setup([(x * 2.0 + 1.0).sum()])
        (part,) = parts
        full = est.cost_partition(part)
        assert est.cost_partition(part, bound=full / 2) == float("inf")


class TestHeuristics:
    def _as_setup(self, rng):
        """The ALS pattern where heuristics destroy the Outer template."""
        s = api.matrix(MatrixBlock.rand(300, 200, sparsity=0.02, seed=7), "S")
        u = api.matrix(rng.random((300, 6)), "U")
        v = api.matrix(rng.random((200, 6)), "V")
        expr = ((s != 0.0) * (u @ v.T)) @ v + u * 1e-6
        return _setup([expr])

    def test_fuse_all_maximal_cover(self, rng):
        _, memo, hop_by_id, est, parts, _ = self._as_setup(rng)
        plans = {}
        for part in parts:
            plans.update(fuse_all(est, part))
        total_covered = sum(p.n_covered for p in plans.values())
        assert total_covered >= 3

    def test_fnr_materializes_shared_intermediates(self, rng):
        x = api.matrix(rng.random((200, 30)), "X")
        shared = x * 2.0
        exprs = [(shared + 1.0).sum(), (shared * 3.0).sum()]
        _, memo, hop_by_id, est, parts, _ = _setup(exprs)
        for part in parts:
            plans = fuse_no_redundancy(est, part)
            for plan in plans.values():
                # No plan may cover the shared intermediate twice.
                covered_ids = [h.id for h in plan.covered]
                assert shared.hop.id not in covered_ids or plan.root is not None

    def test_cost_based_beats_heuristics_on_als(self, rng):
        """Gen keeps the sparsity-exploiting Outer; FA destroys it."""
        _, memo, hop_by_id, est, parts, config = self._as_setup(rng)
        from repro.codegen.enumerate import mpskip_enum

        gen_cost = 0.0
        fa_cost = 0.0
        for part in parts:
            result = mpskip_enum(est, part, config, memo, hop_by_id)
            gen_cost += result.cost
            fa_plans = fuse_all(est, part)
            fa_cost += est.cost_partition(part, prefer_max_fusion=True)
        assert gen_cost <= fa_cost


class TestOptimizerSplicing:
    def test_spoofs_share_materialized_outputs(self, rng):
        """An operator reading another operator's output must reference
        its SpoofOp, not a detached original hop (regression test)."""
        x = api.matrix(rng.random((500, 10)), "X")
        v = api.matrix(rng.random((500, 1)), "v")
        g = x.T @ (v * 2.0 + 1.0)
        exprs = [g, (g * g).sum()]
        roots = apply_rewrites([e.hop for e in exprs])
        optimizer = CodegenOptimizer(CodegenConfig())
        new_roots = optimizer.optimize(roots, policy="cost")
        dag = collect_dag(new_roots)
        spoofs = [h for h in dag if isinstance(h, SpoofOp)]
        if len(spoofs) >= 2:
            spoof_ids = {s.id for s in spoofs}
            for spoof in spoofs:
                for hop_in in spoof.inputs:
                    # No input may be a dead copy of a replaced root.
                    replaced = [
                        s for s in spoofs if s.covered_root.id == hop_in.id
                    ]
                    assert not replaced, "spoof wired to a replaced hop"

    def test_single_op_covers_not_generated(self, rng):
        x = api.matrix(rng.random((50, 10)), "X")
        roots = apply_rewrites([(x * 2.0).hop])
        optimizer = CodegenOptimizer(CodegenConfig())
        new_roots = optimizer.optimize(roots, policy="cost")
        assert not any(isinstance(h, SpoofOp) for h in collect_dag(new_roots))

    def test_multi_agg_grouping_caps_at_three(self, rng):
        x = api.matrix(rng.random((200, 50)), "X")
        mats = [api.matrix(rng.random((200, 50)), f"M{i}") for i in range(4)]
        exprs = [(x * m).sum() for m in mats]
        roots = apply_rewrites([e.hop for e in exprs])
        optimizer = CodegenOptimizer(CodegenConfig())
        new_roots = optimizer.optimize(roots, policy="cost")
        spoofs = {
            h.id: h for h in collect_dag(new_roots) if isinstance(h, SpoofOp)
        }
        for spoof in spoofs.values():
            assert len(spoof.operator.cplan.roots) <= 3

    def test_multi_agg_failure_falls_back_to_single_operators(self, rng, monkeypatch):
        """A group ``construct_multi_agg`` rejects is counted and each
        aggregate still gets a fused operator of its own; anything but a
        ``CodegenError`` is a bug and propagates."""
        from repro.codegen import optimizer as optimizer_mod
        from repro.compiler.execution import Engine
        from repro.errors import CodegenError

        def build():
            data = np.random.default_rng(3)
            x = api.matrix(data.random((200, 50)), "X")
            mats = [api.matrix(data.random((200, 50)), f"M{i}") for i in range(2)]
            return [(x * m).sum() for m in mats]

        engine = Engine(mode="gen")
        expected = api.eval_all(build(), engine=engine)
        assert engine.stats.n_magg_fallbacks == 0

        def refuse(group, config):
            raise CodegenError("forced")

        monkeypatch.setattr(optimizer_mod, "construct_multi_agg", refuse)
        engine = Engine(mode="gen")
        assert api.eval_all(build(), engine=engine) == pytest.approx(expected)
        assert engine.stats.n_magg_fallbacks == 1
        optimizer = CodegenOptimizer(CodegenConfig())
        new_roots = optimizer.optimize(
            apply_rewrites([e.hop for e in build()]), policy="cost"
        )
        spoofs = [h for h in collect_dag(new_roots) if isinstance(h, SpoofOp)]
        assert len(spoofs) == 2
        assert all(len(s.operator.cplan.roots) == 1 for s in spoofs)

        def broken(group, config):
            raise ValueError("a bug, not a rejected plan")

        monkeypatch.setattr(optimizer_mod, "construct_multi_agg", broken)
        with pytest.raises(ValueError):
            CodegenOptimizer(CodegenConfig()).optimize(
                apply_rewrites([e.hop for e in build()]), policy="cost"
            )

    def test_optimizer_counts_stats(self, rng):
        x = api.matrix(rng.random((100, 20)), "X")
        y = api.matrix(rng.random((100, 20)), "Y")
        optimizer = CodegenOptimizer(CodegenConfig())
        roots = apply_rewrites([((x * y) + 1.0).sum().hop])
        optimizer.optimize(roots, policy="cost")
        stats = optimizer.stats
        assert stats.n_dags_optimized == 1
        assert stats.n_cplans_constructed >= 1
        assert stats.n_classes_compiled >= 1
        assert stats.codegen_seconds > 0
