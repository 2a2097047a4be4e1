"""Table 6: Runtime of distributed algorithms (simulated cluster).

Substitution: the simulated Spark backend executes operators partition-
wise on one machine and charges analytical network/IO costs (broadcast,
shuffle, distributed reads) as *simulated seconds*; the reported metric
is measured compute + simulated network time.  The driver memory budget
is scaled down so the scaled datasets exceed it, forcing distributed
operators exactly like the paper's 160-200 GB inputs exceed the 35 GB
driver.

Expected shape (the paper's key distributed finding): the fuse-all
heuristic eagerly fuses driver-side vector operations into distributed
operators, broadcasting large vector side-inputs to all workers — so
Gen-FA can be *slower than Base/Fused*, while cost-based Gen reasons
about template switches and broadcast costs and wins.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import QUICK, quick_trim

from repro import api
from repro.algorithms import glm_binomial_probit, kmeans, l2svm, mlogreg
from repro.compiler.execution import Engine
from repro.config import ClusterConfig, CodegenConfig
from repro.data import generators

MODES = ["base", "fused", "gen", "gen-fa", "gen-fnr"]
_CACHE: dict = {}

# 2e5 x 10 dense is 16 MB; an 8 MB driver budget forces SPARK operators
# for anything touching X (1/4000 of the paper's 35 GB / 160 GB setup).
_DRIVER_BUDGET = 8e6


def _config() -> CodegenConfig:
    # Aggregate executor memory scaled by the same factor as the driver
    # budget (the paper: 216 GB aggregate for 160 GB inputs).
    return CodegenConfig(
        cluster=ClusterConfig(n_workers=6, executor_mem=10e6),
        local_mem_budget=_DRIVER_BUDGET,
    )


def _dataset(name: str):
    if name in _CACHE:
        return _CACHE[name]
    if name == "D200k":
        x, y = generators.classification_data(200_000, 10, n_classes=2, seed=91)
    elif name == "S200k":
        x, y = generators.classification_data(
            200_000, 100, n_classes=2, seed=92, sparsity=0.05
        )
    else:  # mnist-like
        x = generators.mnist_like(rows=20_000, seed=93)
        import numpy as np

        from repro.runtime.matrix import MatrixBlock

        sums = x.to_dense().sum(axis=1, keepdims=True)
        y = MatrixBlock((sums > np.median(sums)) * 2.0 - 1.0)
    _CACHE[name] = (x, y)
    return _CACHE[name]


ALGOS = {
    "L2SVM": lambda x, y, e: l2svm(x, y, engine=e, max_iter=3),
    "MLogreg": lambda x, y, e: mlogreg(
        x, (y.to_dense() + 3) / 2, 2, engine=e, max_iter=2, max_inner=3
    ),
    "GLM": lambda x, y, e: glm_binomial_probit(
        x, (y.to_dense() + 1) / 2, engine=e, max_iter=2, max_inner=3
    ),
    "KMeans": lambda x, y, e: kmeans(x, n_centroids=5, engine=e, max_iter=3),
}

#: Quick mode trims the dataset/algorithm grids (sizes stay unchanged,
#: so the distributed path is still forced past the driver budget).
DATASETS = quick_trim(["D200k", "S200k", "Mnist20k"])
TABLE6_ALGOS = quick_trim(["L2SVM", "KMeans"])
ADDITIONAL_ALGOS = quick_trim(["MLogreg", "GLM"])


@pytest.mark.bench
@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("algo", TABLE6_ALGOS)
@pytest.mark.parametrize("mode", MODES)
def test_table6(benchmark, dataset, algo, mode):
    x, y = _dataset(dataset)
    holder = {}

    def run():
        engine = Engine(mode=mode, config=_config())
        ALGOS[algo](x, y, engine)
        holder["stats"] = engine.stats

    benchmark.pedantic(run, rounds=1, iterations=1)
    stats = holder["stats"]
    benchmark.extra_info.update(
        {
            "dataset": dataset,
            "sim_seconds": round(stats.sim_seconds, 3),
            "sim_broadcast_mb": round(stats.sim_broadcast_bytes / 1e6, 1),
            "n_distributed_ops": stats.n_distributed_ops,
            "n_blocked_passthrough": stats.n_blocked_passthrough,
            "n_collects": stats.n_collects,
        }
    )


@pytest.mark.bench
@pytest.mark.parametrize("algo", ADDITIONAL_ALGOS)
@pytest.mark.parametrize("mode", ["base", "fused", "gen", "gen-fa"])
def test_table6_additional_algos(benchmark, algo, mode):
    x, y = _dataset("D200k")
    holder = {}

    def run():
        engine = Engine(mode=mode, config=_config())
        ALGOS[algo](x, y, engine)
        holder["stats"] = engine.stats

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["sim_seconds"] = round(holder["stats"].sim_seconds, 3)


@pytest.mark.bench
def test_table6_fa_broadcast_penalty(benchmark):
    """The key Table 6 claim: eager fuse-all drags driver-side vector
    operations into distributed operators and pays broadcast overhead.

    At reproduction scale, Python wall-clock dwarfs the modeled network
    time, so the claim is asserted on the *simulated* network component
    — the quantity that dominates at the paper's 160 GB scale.
    """

    def run():
        x, y = _dataset("D200k")
        sim = {}
        broadcast = {}
        for mode in ("gen", "gen-fa"):
            engine = Engine(mode=mode, config=_config())
            ALGOS["L2SVM"](x, y, engine)
            sim[mode] = engine.stats.sim_seconds
            broadcast[mode] = engine.stats.sim_broadcast_bytes
        assert broadcast["gen-fa"] >= broadcast["gen"]
        assert sim["gen"] <= sim["gen-fa"]
        benchmark.extra_info["gen_sim_s"] = round(sim["gen"], 3)
        benchmark.extra_info["fa_sim_s"] = round(sim["gen-fa"], 3)
        benchmark.extra_info["fa_broadcast_mb"] = round(broadcast["gen-fa"] / 1e6, 1)
        benchmark.extra_info["gen_broadcast_mb"] = round(broadcast["gen"] / 1e6, 1)

    benchmark.pedantic(run, rounds=1, iterations=1)


# ----------------------------------------------------------------------
# Real parallelism: the multiprocess backend scales past one GIL
# ----------------------------------------------------------------------
#: Compute-bound fused operator: sigmoid+exp cellwise chain over a
#: large dense X, fully aggregated to a scalar — partition partials are
#: 8 bytes, so wall-clock is dominated by per-cell compute, the regime
#: where process parallelism must pay off.
_PAR_ROWS = 200_000 if QUICK else 1_200_000
_PAR_COLS = 16
_PAR_ITERS = 3
_PAR_WORKERS = 4


def _parallel_config(backend: str) -> CodegenConfig:
    return CodegenConfig(
        cluster=ClusterConfig(n_workers=_PAR_WORKERS, executor_mem=1e9),
        local_mem_budget=_DRIVER_BUDGET,
        distributed_backend=backend,
        mp_workers=_PAR_WORKERS,
    )


@pytest.mark.bench
def test_real_parallelism_speedup(benchmark):
    """`distributed_backend=multiprocess` must beat the in-process
    (GIL-bound) backend by >1.5x wall-clock at 4 workers on a
    compute-bound fused operator.  The speedup is always reported
    (`extra_info`, the skip reason); it is asserted only on hosts with
    at least two CPUs per worker."""
    import numpy as np

    from repro.runtime.matrix import MatrixBlock

    rng = np.random.default_rng(17)
    x_block = MatrixBlock(rng.random((_PAR_ROWS, _PAR_COLS)))

    def expr():
        x = api.matrix(x_block, "X")
        return (api.sigmoid(x * 1.5 + 0.25) * api.exp(x * -0.5)).sum()

    def timed(backend):
        engine = Engine(mode="gen", config=_parallel_config(backend))
        warm = api.eval(expr(), engine=engine)  # compile + pool spawn
        start = time.perf_counter()
        values = [api.eval(expr(), engine=engine) for _ in range(_PAR_ITERS)]
        wall = time.perf_counter() - start
        return warm, values, wall, engine.stats

    def run():
        sim_warm, sim_vals, sim_wall, _ = timed("simulated")
        mp_warm, mp_vals, mp_wall, mp_stats = timed("multiprocess")
        assert mp_warm == sim_warm and mp_vals == sim_vals
        speedup = sim_wall / mp_wall
        benchmark.extra_info.update(
            {
                "rows": _PAR_ROWS,
                "workers": _PAR_WORKERS,
                "cpus": os.cpu_count(),
                "sim_wall_s": round(sim_wall, 3),
                "mp_wall_s": round(mp_wall, 3),
                "speedup": round(speedup, 2),
                "mp_shm_mb": mp_stats.mp_shm_bytes / 1e6,
                "mp_locality_hits": mp_stats.n_mp_locality_hits,
            }
        )
        return speedup

    # Skip or assert only once the round is recorded: a skip inside it
    # leaves no timing, and the --benchmark-json writer then fails.
    speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    if (os.cpu_count() or 1) < 2 * _PAR_WORKERS:
        # With fewer than two CPUs per worker the measurement is the
        # host's scheduler, not the backend (0.41x on 2 CPUs): report
        # the number, assert it only where it can hold.
        pytest.skip(
            f"{os.cpu_count()} CPUs for {_PAR_WORKERS} workers: they "
            f"cannot all run at once (measured {speedup:.2f}x)"
        )
    assert speedup > 1.5, (
        f"multiprocess speedup {speedup:.2f}x at {_PAR_WORKERS} workers "
        f"({benchmark.extra_info['sim_wall_s']}s simulated vs "
        f"{benchmark.extra_info['mp_wall_s']}s multiprocess)"
    )
