"""Ablation: the optimizer's design choices (beyond the paper's plots).

DESIGN.md calls out three levers of the cost-based optimizer; this
bench isolates each on the algorithm set:

* cost-based pruning (the skip-ahead lower bound of Algorithm 2),
* structural pruning (cut sets over the reachability graph),
* the plan cache (operator reuse across recompiled DAGs).

Reported per configuration: end-to-end runtime, plans costed, operators
compiled.  Expected: disabling cost pruning inflates costed plans;
disabling the plan cache inflates compilations; results stay identical
(asserted).

Every partition is enumerated (the ``always_enumerate`` fixture sets
``optimizer._PLAN_COST_S`` to 0): on these 5000 x 30 inputs the cost
policy's guard would send every partition with points to
fuse-no-redundancy unenumerated, and the pruning counts would compare 0
with 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import kmeans, l2svm
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.data import generators

pytestmark = pytest.mark.usefixtures("always_enumerate")

_CACHE: dict = {}


def _data():
    if not _CACHE:
        x, y = generators.classification_data(5000, 30, n_classes=2, seed=101)
        _CACHE["x"], _CACHE["y"] = x, y
    return _CACHE


CONFIGS = {
    "full": dict(),
    "no-cost-prune": dict(enable_cost_pruning=False),
    "no-structural": dict(enable_structural_pruning=False),
    "no-plan-cache": dict(plan_cache_enabled=False),
    "no-pruning": dict(enable_cost_pruning=False, enable_structural_pruning=False),
}


@pytest.mark.bench
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_ablation_l2svm(benchmark, config_name):
    data = _data()
    holder = {}

    def run():
        engine = Engine(mode="gen", config=CodegenConfig(**CONFIGS[config_name]))
        result = l2svm(data["x"], data["y"], engine=engine, max_iter=5)
        holder["stats"] = engine.stats
        holder["loss"] = result.final_loss

    benchmark.pedantic(run, rounds=1, iterations=1)
    stats = holder["stats"]
    benchmark.extra_info.update(
        {
            "plans_evaluated": stats.n_plans_evaluated,
            "plans_skipped": f"{stats.n_plans_skipped:.0f}",
            "classes_compiled": stats.n_classes_compiled,
        }
    )


@pytest.mark.bench
def test_ablation_invariants(benchmark):
    """Pruning must not change results; it must change search effort."""

    def run():
        data = _data()
        outcomes = {}
        for name, kwargs in CONFIGS.items():
            engine = Engine(mode="gen", config=CodegenConfig(**kwargs))
            result = kmeans(data["x"], n_centroids=4, engine=engine,
                            max_iter=4, seed=3)
            outcomes[name] = (
                result.losses[-1],
                engine.stats.n_plans_evaluated,
                engine.stats.n_classes_compiled,
            )
        losses = {round(v[0], 6) for v in outcomes.values()}
        assert len(losses) == 1, "pruning changed the selected plans' results"
        # Cost pruning reduces (or equals) the number of costed plans.
        assert outcomes["no-cost-prune"][1] >= outcomes["full"][1]
        # Disabling the plan cache compiles at least as many operators.
        assert outcomes["no-plan-cache"][2] >= outcomes["full"][2]

    benchmark.pedantic(run, rounds=1, iterations=1)
