"""Executor microbenchmark: parallel task-graph scheduling vs serial.

A multi-root ``eval_all`` with independent per-root chains is exactly
the shape the dependency-readiness scheduler exploits: every branch is
a separate connected component of the lowered Program, so the thread
pool overlaps their NumPy kernels (which release the GIL).

On a multicore host the parallel executor must beat the serial
fallback wall-clock; on a single-core host (where threads cannot
overlap compute) the benchmark still reports both timings and the
scheduling stats, and the speedup assertion is skipped.

Run directly (writes JSON when ``REPRO_BENCH_JSON`` is set)::

    PYTHONPATH=src python benchmarks/bench_executor_parallel.py

or via pytest: ``pytest benchmarks/bench_executor_parallel.py``.
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

N_BRANCHES = 4
SIZE = 700
_CACHE: dict = {}
#: ``RuntimeStats`` scheduling counters reported per schedule.
_STAT_FIELDS = ("n_instructions_executed", "n_parallel_tasks",
                "executor_max_concurrency", "n_freed_early",
                "n_serial_runs", "n_parallel_runs")


def _inputs():
    if "mats" not in _CACHE:
        rng = np.random.default_rng(11)
        _CACHE["mats"] = [
            rng.random((SIZE, SIZE)) for _ in range(N_BRANCHES)
        ]
    return _CACHE["mats"]


def _build_branches():
    """Independent compute-heavy branches (ufuncs release the GIL)."""
    exprs = []
    for idx, arr in enumerate(_inputs()):
        m = api.matrix(arr, f"M{idx}")
        e = api.exp(m * 0.5) + api.log(m + 1.5)
        e = api.sqrt(e * e + 1.0)
        exprs.append((e * m).sum())
    return exprs


def _engine(schedule: str) -> Engine:
    # One executor thread is the serial interpreter.  Pin the pool to
    # >= 2 workers so the parallel row exercises the dependency
    # scheduler even on single-core hosts (where the executor's
    # auto-sizing would otherwise fall back to serial).
    threads = max(2, os.cpu_count() or 1) if schedule == "parallel" else 1
    return Engine(mode="base", config=CodegenConfig(executor_threads=threads))


def run(repeats: int = 3) -> list[BenchResult]:
    result = BenchResult(label=f"{N_BRANCHES}x independent chains")
    for schedule in ("serial", "parallel"):
        engine = _engine(schedule)

        def evaluate():
            return api.eval_all(_build_branches(), engine=engine)

        evaluate()  # warmup
        result.seconds[schedule] = time_best(evaluate, repeats)
        result.stats[schedule] = {
            name: getattr(engine.stats, name) for name in _STAT_FIELDS
        }
    return [result]


@pytest.mark.bench
def test_parallel_executor_beats_serial(benchmark):
    results = run()
    stats = results[0].stats

    def evaluate():
        engine = _engine("parallel")
        return api.eval_all(_build_branches(), engine=engine)

    benchmark.pedantic(evaluate, rounds=1, iterations=1, warmup_rounds=1)
    assert stats["parallel"]["n_parallel_runs"] >= 1
    assert stats["parallel"]["executor_max_concurrency"] >= 2
    if (os.cpu_count() or 1) >= 2:
        # Threads can only overlap compute on a multicore host.  Retry
        # a few times so a transiently loaded machine doesn't flake the
        # comparison; each attempt is already best-of-3.
        seconds = results[0].seconds
        for _ in range(2):
            if seconds["parallel"] < seconds["serial"]:
                break
            seconds = run()[0].seconds
        assert seconds["parallel"] < seconds["serial"]


def main() -> None:
    results = run()
    print_table(
        "Executor: parallel task graph vs serial",
        ["serial", "parallel"],
        results,
    )
    seconds = results[0].seconds
    speedup = seconds["serial"] / max(seconds["parallel"], 1e-12)
    print(f"\nspeedup (serial/parallel): {speedup:.2f}x "
          f"on {os.cpu_count()} cpu(s)")
    for mode, stats in results[0].stats.items():
        print(f"  {mode:<9} {stats}")
    path = maybe_export_json(
        "executor_parallel", results, extra={"cpus": os.cpu_count()}
    )
    if path:
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
