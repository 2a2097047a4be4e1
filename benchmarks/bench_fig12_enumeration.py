"""Figure 12: Plan enumeration and pruning.

For each algorithm we report the number of evaluated plans under three
configurations:

* **all**: no partitioning — the analytic search-space size
  2^(total interesting points per DAG), summed over DAGs (the paper
  likewise reports infeasible analytic counts, e.g. 2^71 for
  AutoEncoder's largest DAG),
* **partition**: independent partitions, exhaustive per partition
  (sum of 2^|M'_i|, analytic),
* **partition+prune**: the measured number of plans actually costed by
  MPSkipEnum with cost-based and structural pruning.

Expected shape: partitioning cuts plans by orders of magnitude and
pruning cuts them again — no algorithm needs more than a few thousand
costed plans.

Every partition is enumerated (the ``always_enumerate`` fixture sets
``optimizer._PLAN_COST_S`` to 0): on these 1500 x 30 inputs the cost
policy's guard would send every partition with points to
fuse-no-redundancy unenumerated, and the counts would compare 0 with 0.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.algorithms import (
    als_cg,
    autoencoder,
    glm_binomial_probit,
    kmeans,
    l2svm,
    mlogreg,
)
from repro.codegen import explore as explore_mod
from repro.codegen.partitions import build_partitions
from repro.compiler.execution import Engine
from repro.data import generators

pytestmark = pytest.mark.usefixtures("always_enumerate")

_CACHE: dict = {}


def _data():
    if not _CACHE:
        x, y = generators.classification_data(1500, 30, n_classes=2, seed=51)
        _CACHE["x"], _CACHE["y"] = x, y
        xm, labels = generators.classification_data(1500, 30, n_classes=4, seed=52)
        _CACHE["xm"], _CACHE["labels"] = xm, labels
        _CACHE["y01"] = (y.to_dense() + 1) / 2
        _CACHE["fact"] = generators.factorization_data(400, 300, rank=3,
                                                       sparsity=0.03, seed=53)
        _CACHE["dense"] = generators.rand_dense(1024, 30, seed=54)
    return _CACHE


ALGOS = {
    "L2SVM": lambda d, e: l2svm(d["x"], d["y"], engine=e, max_iter=4),
    "MLogreg": lambda d, e: mlogreg(d["xm"], d["labels"], 4, engine=e,
                                    max_iter=2, max_inner=3),
    "GLM": lambda d, e: glm_binomial_probit(d["x"], d["y01"], engine=e,
                                            max_iter=2, max_inner=3),
    "KMeans": lambda d, e: kmeans(d["x"], n_centroids=4, engine=e, max_iter=4),
    "ALS-CG": lambda d, e: als_cg(d["fact"], rank=3, engine=e, max_iter=2),
    "AutoEncoder": lambda d, e: autoencoder(
        d["dense"], h1=20, h2=2, engine=e, batch_size=256, n_epochs=1
    ),
}


class _SearchSpaceProbe:
    """Wraps exploration to also record analytic search-space sizes."""

    def __init__(self):
        self.all_plans = 0.0
        self.partition_plans = 0.0
        self.original_explore = explore_mod.explore

    def __enter__(self):
        probe = self

        def wrapped(roots, config, prune_dominated=False):
            memo = probe.original_explore(roots, config, prune_dominated)
            if memo.group_ids():
                parts = build_partitions(memo, roots)
                total_points = sum(len(p.points) for p in parts)
                probe.all_plans += float(2 ** min(total_points, 1023))
                probe.partition_plans += float(
                    sum(2 ** min(len(p.points), 1023) for p in parts)
                )
            return memo

        explore_mod.explore = wrapped
        # The optimizer module imported the symbol directly.
        import repro.codegen.optimizer as opt

        self._opt_original = opt.explore
        opt.explore = wrapped
        return self

    def __exit__(self, *exc):
        explore_mod.explore = self.original_explore
        import repro.codegen.optimizer as opt

        opt.explore = self._opt_original


@pytest.mark.bench
@pytest.mark.parametrize("algo", list(ALGOS))
def test_fig12_enumeration_counts(benchmark, algo):
    data = _data()
    holder = {}

    def run():
        with _SearchSpaceProbe() as probe:
            engine = Engine(mode="gen")
            ALGOS[algo](data, engine)
            holder["evaluated"] = engine.stats.n_plans_evaluated
            holder["skipped"] = engine.stats.n_plans_skipped
            holder["all"] = probe.all_plans
            holder["partition"] = probe.partition_plans

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "all_plans": f"{holder['all']:.3g}",
            "partition_plans": f"{holder['partition']:.3g}",
            "evaluated_with_pruning": holder["evaluated"],
            "skipped_by_pruning": f"{holder['skipped']:.3g}",
        }
    )
    # The paper's claims: pruned enumeration needs at most a few
    # thousand plans, far below the partitioned analytic space.
    assert holder["evaluated"] <= holder["partition"] or holder["partition"] == 0
    assert holder["evaluated"] < 100_000
