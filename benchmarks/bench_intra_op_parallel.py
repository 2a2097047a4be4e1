"""Intra-operator parallel fused execution: 1/2/4-thread scaling.

One workload per template (Cell, MAgg, Row, Outer), each dominated by a
single large fused operator, so the measured scaling is the intra-op
row partitioning's (instructions always run one at a time, in program
order).

On a multicore host the Row template must reach >= 1.3x at 4 threads
over 1 thread; single-core hosts still execute (and verify) every
configuration but skip the speedup assertion.

Every operator splits, quick mode's small inputs included: the
parallelism threshold (``repro.runtime.parallel.PARALLEL_MIN_CELLS``)
is 1 here, through the root ``conftest.py``'s ``parallel_tiny_ops``
fixture under pytest and the same patch in ``main``.

Run directly (writes JSON when ``REPRO_BENCH_JSON`` is set)::

    PYTHONPATH=src python benchmarks/bench_intra_op_parallel.py

or via pytest: ``pytest benchmarks/bench_intra_op_parallel.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import api
from repro.bench.harness import (
    BenchResult,
    maybe_export_json,
    print_table,
    time_best,
)
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.runtime import parallel

try:
    from conftest import QUICK
except ImportError:  # direct `python benchmarks/...` invocation
    QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

THREADS = [1, 2, 4]
ROWS = 2_000 if QUICK else 400_000
COLS = 20
OUTER_DIM = (500, 400) if QUICK else (8_000, 6_000)
RANK = 8
_CACHE: dict = {}
#: ``RuntimeStats`` intra-operator counters reported per thread count.
_STAT_FIELDS = ("n_intra_op_parallel", "n_intra_op_partitions",
                "intra_op_combine_levels", "intra_op_max_threads",
                "n_serial_runs")


def _data():
    if not _CACHE:
        rng = np.random.default_rng(17)
        _CACHE["X"] = rng.random((ROWS, COLS))
        _CACHE["Y"] = rng.random((ROWS, COLS))
        _CACHE["v"] = rng.random((COLS, 1))
        from repro.runtime.matrix import MatrixBlock

        n, m = OUTER_DIM
        _CACHE["S"] = MatrixBlock.rand(n, m, sparsity=0.05, seed=5)
        _CACHE["U"] = rng.random((n, RANK))
        _CACHE["V"] = rng.random((m, RANK))
    return _CACHE


def _workloads():
    data = _data()

    def cell():
        x, y = api.matrix(data["X"], "X"), api.matrix(data["Y"], "Y")
        return [(api.exp(x * 0.5) * y + x).sum()]

    def magg():
        x, y = api.matrix(data["X"], "X"), api.matrix(data["Y"], "Y")
        return [(x * y).sum(), (x * x).sum()]

    def row():
        x = api.matrix(data["X"], "X")
        v = api.matrix(data["v"], "v")
        return [x.T @ (x @ v)]

    def outer():
        s = api.matrix(data["S"], "S")
        u, v = api.matrix(data["U"], "U"), api.matrix(data["V"], "V")
        return [(s * api.log(u @ v.T + 1e-15)).sum()]

    return [("cell", cell), ("magg", magg), ("row", row), ("outer", outer)]


def _engine(threads: int) -> Engine:
    config = CodegenConfig(intra_op_threads=threads)
    return Engine(mode="gen", config=config)


def run(repeats: int = 3) -> list[BenchResult]:
    results = []
    for name, build in _workloads():
        result = BenchResult(label=f"{name} template")
        for threads in THREADS:
            engine = _engine(threads)

            def evaluate():
                return api.eval_all(build(), engine=engine)

            evaluate()  # warmup: compile + plan-cache fill
            result.seconds[f"{threads}t"] = time_best(evaluate, repeats)
            result.stats[f"{threads}t"] = {
                name: getattr(engine.stats, name) for name in _STAT_FIELDS
            }
        results.append(result)
    return results


@pytest.mark.bench
@pytest.mark.usefixtures("parallel_tiny_ops")
def test_intra_op_scaling(benchmark):
    results = run()
    by_label = {r.label: r for r in results}

    def evaluate():
        engine = _engine(4)
        return api.eval_all(_workloads()[2][1](), engine=engine)

    evaluate()
    benchmark.pedantic(evaluate, rounds=1, iterations=1, warmup_rounds=0)

    for result in results:
        # Multi-threaded configurations actually partitioned, and every
        # thread count computed allclose-equal results (the engines all
        # ran the same expressions; numeric equality is asserted by the
        # differential tests — here we assert the mechanism engaged).
        assert result.stats["4t"]["n_intra_op_parallel"] >= 1, result.label
        assert result.stats["1t"]["n_intra_op_parallel"] == 0, result.label
    if (os.cpu_count() or 1) >= 4 and not QUICK:
        # Acceptance: >= 1.3x at 4 threads for the row template on a
        # large dense input.  Retry to ride out transient machine load;
        # each attempt is already best-of-3.
        row = by_label["row template"]
        for _ in range(2):
            if row.seconds["1t"] / row.seconds["4t"] >= 1.3:
                break
            row = {r.label: r for r in run()}["row template"]
        assert row.seconds["1t"] / row.seconds["4t"] >= 1.3


def main() -> None:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "PARALLEL_MIN_CELLS", 1)
        results = run()
    modes = [f"{t}t" for t in THREADS]
    print_table("Intra-operator parallel fused execution", modes, results)
    for result in results:
        speedup = result.seconds["1t"] / max(result.seconds["4t"], 1e-12)
        summary = result.stats["4t"]
        print(f"\n{result.label}: 4-thread speedup {speedup:.2f}x "
              f"on {os.cpu_count()} cpu(s)")
        print(f"  partitions={summary['n_intra_op_partitions']} "
              f"combine_levels={summary['intra_op_combine_levels']} "
              f"max_threads={summary['intra_op_max_threads']}")
    path = maybe_export_json(
        "intra_op_parallel", results, extra={"cpus": os.cpu_count()}
    )
    if path:
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
