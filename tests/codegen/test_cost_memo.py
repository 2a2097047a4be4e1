"""The cost memos are exact: keyed on the points a hop can reach, they
return what costing every plan from scratch returns, bit for bit."""

import time

import numpy as np
import pytest
from hypothesis import given, settings

from repro import api
from repro.algorithms import (
    als_cg,
    autoencoder,
    glm_binomial_probit,
    kmeans,
    l2svm,
    mlogreg,
)
from repro.codegen import optimizer as optimizer_mod
from repro.codegen.cost import CostEstimator
from repro.codegen.explore import explore
from repro.codegen.partitions import build_partitions
from repro.compiler.execution import Engine
from repro.config import ClusterConfig, CodegenConfig
from repro.data import generators
from repro.hops.hop import collect_dag
from repro.hops.rewrites import apply_rewrites
from repro.runtime.matrix import MatrixBlock
from tests.compiler.test_deep_chain import CHAIN_OPS
from tests.compiler.test_property_random_exprs import _build, expression_dags

MAX_POINTS = 10


class _EveryPoint(dict):
    """A reach table under which every hop reaches every point."""

    def get(self, hop_id, default=None):
        return -1


class FreshEstimator(CostEstimator):
    """The memo-free reference: each plan is costed from scratch and,
    within it, keyed on the whole assignment."""

    def cost_partition(self, part, q=0, **kwargs):
        self._part = None
        return super().cost_partition(part, q, **kwargs)

    def _bind(self, part):
        super()._bind(part)
        self._reach = _EveryPoint()


def _plans(record):
    return {
        root_id: (
            plan.root.id, plan.ttype, [h.id for h in plan.covered],
            [h.id for h in plan.inputs], plan.entries, repr(plan.time),
        )
        for root_id, plan in record.items()
    }


def assert_memo_exact(memo, config, hop_by_id, parts):
    """Compare the memoized estimator with the reference on all 2^n
    assignments of every partition with n <= MAX_POINTS; returns how
    many assignments were compared."""
    memoized = CostEstimator(memo, config, hop_by_id)
    reference = FreshEstimator(memo, config, hop_by_id)
    compared = 0
    for part in parts:
        if len(part.points) > MAX_POINTS:
            continue
        for max_fusion in (False, True):
            for q in range(1 << len(part.points)):
                got, expected = {}, {}
                cost = memoized.cost_partition(
                    part, q, record=got, prefer_max_fusion=max_fusion
                )
                ref_cost = reference.cost_partition(
                    part, q, record=expected, prefer_max_fusion=max_fusion
                )
                assert repr(cost) == repr(ref_cost), (part.points, q)
                assert _plans(got) == _plans(expected), (part.points, q)
                compared += 1
    return compared


def _explored(exprs, config):
    roots = apply_rewrites([e.hop for e in exprs])
    memo = explore(roots, config)
    hop_by_id = {h.id: h for h in collect_dag(roots)}
    return memo, hop_by_id, build_partitions(memo, roots)


# ----------------------------------------------------------------------
# (a) memoized == memo-free, on the algorithms' DAGs and random DAGs
# ----------------------------------------------------------------------
def _run_algorithm(name, engine):
    if name == "l2svm":
        x, y = generators.classification_data(300, 12, n_classes=2, seed=1)
        l2svm(x, y, engine=engine, max_iter=2)
    elif name == "mlogreg":
        x, labels = generators.classification_data(300, 10, n_classes=3, seed=2)
        mlogreg(x, labels, 3, engine=engine, max_iter=1)
    elif name == "glm":
        x, y = generators.classification_data(300, 8, n_classes=2, seed=4)
        y01 = MatrixBlock((y.to_dense() + 1) / 2)
        glm_binomial_probit(x, y01, engine=engine, max_iter=1, max_inner=2)
    elif name == "kmeans":
        data = generators.clustering_data(400, 6, n_centers=4, seed=6)
        kmeans(data, 4, engine=engine, max_iter=2, seed=9)
    elif name == "als":
        data = generators.factorization_data(150, 120, rank=4, sparsity=0.08, seed=7)
        als_cg(data, 4, engine=engine, max_iter=1, seed=2)
    else:
        data = generators.rand_dense(256, 50, seed=8)
        autoencoder(data, engine=engine, h1=10, h2=2, batch_size=128,
                    n_epochs=1, seed=2)


@pytest.mark.parametrize(
    "name", ["l2svm", "mlogreg", "glm", "kmeans", "als", "autoencoder"]
)
def test_memo_matches_fresh_costing_on_algorithm_dags(name, monkeypatch):
    """Every partition the optimizer enumerates while the algorithm runs
    is first costed exhaustively both ways."""
    real_enum = optimizer_mod.mpskip_enum
    seen = set()
    compared = 0

    def checking_enum(estimator, part, config, memo, hop_by_id, stats=None):
        nonlocal compared
        # Iterations rebuild the same DAGs: compare each shape once.
        shape = (
            tuple(sorted((hop_by_id[m].opcode(), hop_by_id[m].dims)
                         for m in part.members)),
            len(part.points),
        )
        if shape not in seen:
            seen.add(shape)
            compared += assert_memo_exact(memo, config, hop_by_id, [part])
        return real_enum(estimator, part, config, memo, hop_by_id, stats)

    monkeypatch.setattr(optimizer_mod, "mpskip_enum", checking_enum)
    _run_algorithm(name, Engine(mode="gen"))
    assert compared > 0


@pytest.mark.parametrize("config", [
    CodegenConfig(),
    CodegenConfig(cluster=ClusterConfig(), local_mem_budget=1e4),
], ids=["local", "cluster"])
def test_memo_matches_fresh_costing_on_random_dags(config):
    @given(expression_dags())
    @settings(max_examples=25, deadline=None)
    def check(dag):
        memo, hop_by_id, parts = _explored(_build(*dag), config)
        assert_memo_exact(memo, config, hop_by_id, parts)

    check()


# ----------------------------------------------------------------------
# (b) what one cold GLM compile costs, in counts
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("always_enumerate")
def test_cold_glm_compile_plan_and_cover_counts(monkeypatch):
    """The ``compile-glm`` workload's op with every partition
    enumerated: the plans enumerated are what they were before the
    memos were re-keyed, the covers built to cost them are a thirtieth
    (12,954 with whole-assignment keys).

    491, not the 492 of ``BENCH_18.json``: the second CG iteration
    rebuilds three DAG shapes the first one compiled, and the engine's
    program cache now serves them (12 -> 9 compiles); the one of them
    with a partition to enumerate evaluated a single plan.  Pinned in
    ``BENCH_23.json`` (``ci_pinned_counts``) from a traced run; CI now
    pins the guarded counts of the test below."""
    engine, estimators = _cold_glm_compile(monkeypatch)
    assert engine.stats.n_plans_evaluated == 491
    assert engine.stats.n_plans_skipped == 191
    assert engine.stats.n_programs_compiled == 9
    assert 0 < sum(e.n_covers_built for e in estimators) <= 450


def test_cold_glm_compile_takes_fnr_where_enumerating_costs_more(monkeypatch):
    """The same op under the enumeration guard: the no-redundancy plans
    of its three partitions with points (22 members / 10 points and two
    with one point) cost 3-6 us, below their projected enumeration
    time, so none is enumerated and their 2^10 + 2 + 2 plans all count
    as skipped; costing the no-redundancy plans builds 49 covers.  Pinned in
    ``BENCH_34.json`` (``ci_pinned_counts``)."""
    engine, estimators = _cold_glm_compile(monkeypatch)
    assert engine.stats.n_plans_evaluated == 0
    assert engine.stats.n_plans_skipped == 1028
    assert engine.stats.n_programs_compiled == 9
    assert sum(e.n_covers_built for e in estimators) == 49


def _cold_glm_compile(monkeypatch):
    """One ``compile-glm`` op on a new engine, and every cost estimator
    the optimizer made for it."""
    estimators = []

    class Recorded(CostEstimator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            estimators.append(self)

    monkeypatch.setattr(optimizer_mod, "CostEstimator", Recorded)
    rng = np.random.default_rng(1)
    x = rng.random((500, 20))
    scores = x @ rng.normal(size=(20, 1)) + 0.1 * rng.normal(size=(500, 1))
    y = np.where(scores > np.median(scores), 1.0, 0.0)
    engine = Engine("gen")
    glm_binomial_probit(MatrixBlock(x), MatrixBlock(y), engine=engine,
                        lam=1e-3, tol=0.0, max_iter=1, max_inner=2)
    return engine, estimators


# ----------------------------------------------------------------------
# (c) reach masks are one int per hop, built in one pass
# ----------------------------------------------------------------------
def test_reach_masks_stay_linear_on_a_deep_chain():
    """A point at the bottom of a ~5k-operator chain is reachable from
    every operator above it: that is one int per hop, not a set."""
    x = api.matrix(np.random.default_rng(21).random((40, 15)), "X")
    shared = x * 2.0
    e = shared
    for _ in range(CHAIN_OPS // 2):
        e = e * 1.0001 + 0.0001
    config = CodegenConfig()
    memo, hop_by_id, parts = _explored([(e + shared).sum()], config)
    (part,) = [p for p in parts if p.points]
    estimator = CostEstimator(memo, config, hop_by_id)
    start = time.perf_counter()
    estimator._bind(part)
    elapsed = time.perf_counter() - start
    # About 5 ms on a 2-CPU VM; the bound only catches a table that
    # is no longer built in one pass, never host drift.
    assert elapsed < 10.0
    reach = estimator._reach
    assert CHAIN_OPS <= len(reach) <= len(hop_by_id)
    assert all(type(mask) is int for mask in reach.values())
    bottom = min(p.consumer_id for p in part.points)
    assert all(mask & reach[bottom] for mask in reach.values())
    # Hops that reach no point are left out altogether.
    memo, hop_by_id, parts = _explored([(e * 1.5).sum()], config)
    estimator = CostEstimator(memo, config, hop_by_id)
    for part in parts:
        estimator._bind(part)
        assert estimator._reach == {}
