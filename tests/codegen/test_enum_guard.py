"""The cost policy's enumeration guard: a partition whose
fuse-no-redundancy plan costs less than its projected enumeration time
takes that plan without enumerating; any other partition is enumerated
by MPSkipEnum as before."""

import time

import numpy as np
import pytest

from repro import api
from repro.codegen import optimizer as optimizer_mod
from repro.codegen.cost import CostEstimator, assignment_mask
from repro.codegen.enumerate import mpskip_enum
from repro.codegen.explore import explore
from repro.codegen.heuristics import fuse_no_redundancy
from repro.codegen.optimizer import CodegenOptimizer
from repro.codegen.partitions import build_partitions
from repro.config import CodegenConfig
from repro.hops.hop import DataOp, collect_dag
from repro.hops.rewrites import apply_rewrites

#: dense-l2svm's X.
L2SVM_ROWS, L2SVM_COLS = 200_000, 100


class _ShapeOnly:
    """A dense input's shape, nnz and size without its cells: all the
    optimizer reads of a bound input (X itself would be 160 MB)."""

    def __init__(self, rows: int, cols: int):
        self.shape = (rows, cols)
        self.nnz = rows * cols
        self.size_bytes = 8.0 * rows * cols


def _roots(x):
    """Three sums over two shared intermediates: one partition, five
    interesting points."""
    shared1 = x * 2.0
    shared2 = shared1 + 1.0
    exprs = [(shared2 * 3.0).sum(), (shared2 * shared1).sum(),
             (shared1 - 0.5).sum()]
    return apply_rewrites([e.hop for e in exprs])


def _tiny_roots():
    return _roots(api.matrix(np.random.default_rng(3).random((50, 20)), "X"))


def _l2svm_roots():
    return _roots(api.Mat(DataOp(_ShapeOnly(L2SVM_ROWS, L2SVM_COLS), "X")))


def _signature(plans):
    """Selected operators by root: template and covered hops."""
    return {
        root_id: (plan.ttype, sorted(h.id for h in plan.covered))
        for root_id, plan in plans.items()
    }


def _expected(roots, select):
    """``select(estimator, part, memo, hop_by_id)``'s plans for the one
    partition of ``roots``, and that partition."""
    config = CodegenConfig()
    memo = explore(roots, config)
    hop_by_id = {h.id: h for h in collect_dag(roots)}
    (part,) = build_partitions(memo, roots)
    estimator = CostEstimator(memo, config, hop_by_id)
    return _signature(select(estimator, part, memo, hop_by_id)), part


def _fnr(estimator, part, memo, hop_by_id):
    return fuse_no_redundancy(estimator, part)


def _enumerated(estimator, part, memo, hop_by_id):
    result = mpskip_enum(estimator, part, CodegenConfig(), memo, hop_by_id)
    record = {}
    estimator.cost_partition(part, assignment_mask(result.assignment),
                             record=record)
    return record


def _optimize(roots, monkeypatch):
    """Run the cost policy on ``roots``: the plans it selected and the
    optimizer (for its stats and plan cache)."""
    selected = {}
    materialize = CodegenOptimizer._materialize_operators

    def recording(self, roots, chosen):
        selected.update(chosen)
        return materialize(self, roots, chosen)

    monkeypatch.setattr(CodegenOptimizer, "_materialize_operators", recording)
    optimizer = CodegenOptimizer(CodegenConfig())
    optimizer.optimize(roots)
    return _signature(selected), optimizer


def test_tiny_partition_takes_fnr_unenumerated(monkeypatch):
    roots = _tiny_roots()
    expected, part = _expected(roots, _fnr)
    assert len(part.points) == 5
    selected, optimizer = _optimize(roots, monkeypatch)
    assert expected and selected == expected
    assert optimizer.stats.n_plans_evaluated == 0
    assert optimizer.stats.n_plans_skipped == 2 ** len(part.points)


def test_tiny_partition_is_enumerated_at_zero_plan_cost(monkeypatch,
                                                        always_enumerate):
    roots = _tiny_roots()
    expected, _ = _expected(roots, _enumerated)
    selected, optimizer = _optimize(roots, monkeypatch)
    assert selected == expected
    assert optimizer.stats.n_plans_evaluated > 0


def test_full_size_partition_is_enumerated(monkeypatch):
    """At dense-l2svm's shapes the partition's no-redundancy plan runs
    for ~50 ms, far above 2^5 plans' projected enumeration time."""
    roots = _l2svm_roots()
    expected, part = _expected(roots, _enumerated)
    assert len(part.points) == 5
    selected, optimizer = _optimize(roots, monkeypatch)
    assert expected and selected == expected
    assert optimizer.stats.n_plans_evaluated > 0
    assert optimizer.stats.n_plans_skipped < 2 ** len(part.points)


def _no_clock(*args):
    raise AssertionError("the enumeration guard read a clock")


@pytest.mark.parametrize("build", [_tiny_roots, _l2svm_roots],
                         ids=["tiny", "l2svm-shapes"])
def test_guard_is_deterministic_and_reads_no_clock(monkeypatch, build):
    guard = optimizer_mod._unenumerated_plan
    decisions = []

    def clockless(estimator, part):
        with monkeypatch.context() as clocks:
            for name in ("perf_counter", "perf_counter_ns", "monotonic",
                         "time", "process_time"):
                clocks.setattr(time, name, _no_clock)
            plans = guard(estimator, part)
        decisions.append(plans is not None)
        return plans

    monkeypatch.setattr(optimizer_mod, "_unenumerated_plan", clockless)
    keys = []
    for _ in range(2):
        _, optimizer = _optimize(build(), monkeypatch)
        keys.append(sorted(optimizer.plan_cache._cache))
    assert keys[0] and keys[0] == keys[1]
    assert decisions == [build is _tiny_roots] * 2
