"""Adaptive recompilation: sparse workloads under unknown metadata.

A program is compiled over an input whose nnz is *unknown* at compile
time (``api.matrix(..., nnz_unknown=True)``), so every estimate assumes
dense.  The estimate-frozen configuration (``adaptive_recompile=False``)
executes that dense plan as compiled; the adaptive configuration
observes the actual sparsity at the first recompilation segment
boundary, recompiles the program remainder to a sparse (and, under
``gen``, fused sparse-safe) plan, and keeps the data CSR end-to-end.

Asserted per the acceptance criteria: on a <= 1%-dense input the
adaptive run is faster than the frozen run, ``n_recompiles > 0``, and
the results are bit-identical to the serial dense path.

Run directly (writes JSON when ``REPRO_BENCH_JSON`` is set)::

    PYTHONPATH=src python benchmarks/bench_recompile_adaptive.py

or via pytest: ``pytest benchmarks/bench_recompile_adaptive.py``.
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
from repro.runtime.matrix import MatrixBlock

try:
    from conftest import QUICK
except ImportError:  # direct `python benchmarks/...` invocation
    QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

ROWS, COLS = (1_000, 800) if QUICK else (6_000, 4_000)
DENSITY = 0.005  # 0.5% non-zeros: well under the acceptance's 1% bar
MODES = ["base", "gen"]
_CACHE: dict = {}
#: ``RuntimeStats`` adaptive-recompilation counters reported per engine.
_STAT_FIELDS = ("n_marked_instructions", "n_meta_checks",
                "n_estimate_misses", "n_recompiles", "n_format_conversions",
                "recompile_divergence_hist")


def _data() -> MatrixBlock:
    if not _CACHE:
        rng = np.random.default_rng(29)
        arr = np.zeros((ROWS, COLS))
        mask = rng.random((ROWS, COLS)) < DENSITY
        arr[mask] = rng.random(int(mask.sum())) + 0.5
        # Dense-stored on purpose: the frozen plan never discovers the
        # sparsity, the adaptive plan reformats at the segment boundary.
        _CACHE["X"] = MatrixBlock(arr)
    return _CACHE["X"]


def _build():
    x = api.matrix(_data(), name="X", nnz_unknown=True)
    return [(x * 3.0) * api.abs_(x) * 0.5]


def _engine(mode: str, adaptive: bool) -> Engine:
    return Engine(mode=mode,
                  config=CodegenConfig(adaptive_recompile=adaptive))


def run(repeats: int = 3):
    results = []
    summaries: dict = {}
    for mode in MODES:
        result = BenchResult(label=f"{mode} ({ROWS}x{COLS} @ {DENSITY:.1%})")
        outputs = {}
        for label, adaptive in (("frozen", False), ("adaptive", True)):
            engine = _engine(mode, adaptive)

            def evaluate():
                return api.eval_all(_build(), engine=engine)

            outputs[label] = evaluate()[0]  # warmup: compile (+ codegen)
            result.seconds[label] = time_best(evaluate, repeats)
            result.stats[label] = {
                name: getattr(engine.stats, name) for name in _STAT_FIELDS
            }
            if adaptive:
                assert engine.stats.n_recompiles > 0, (
                    "adaptive run never recompiled"
                )
        # Bit-identical vs the serial dense (estimate-frozen) path:
        # sparse-safe cell ops apply identical float ops per non-zero.
        assert np.array_equal(
            outputs["adaptive"].to_dense(), outputs["frozen"].to_dense()
        ), "adaptive result differs from the dense path"
        summaries[result.label] = result.stats["adaptive"]
        results.append(result)
    return results, summaries


def _assert_speedup(results) -> None:
    for result in results:
        assert result.seconds["adaptive"] < result.seconds["frozen"], (
            f"{result.label}: adaptive "
            f"{result.seconds['adaptive'] * 1e3:.1f}ms not faster than "
            f"frozen {result.seconds['frozen'] * 1e3:.1f}ms"
        )


@pytest.mark.bench
def test_adaptive_recompile_speedup(benchmark):
    results, _ = run()
    _assert_speedup(results)

    def evaluate():
        engine = _engine("base", True)
        return api.eval_all(_build(), engine=engine)

    benchmark.pedantic(evaluate, rounds=1, iterations=1, warmup_rounds=0)


def main() -> None:
    results, summaries = run()
    print_table("Adaptive recompilation vs estimate-frozen plans",
                ["frozen", "adaptive"], results)
    for label, summary in summaries.items():
        print(f"  {label}: {summary}")
    _assert_speedup(results)
    for result in results:
        speedup = result.seconds["frozen"] / max(result.seconds["adaptive"],
                                                 1e-12)
        print(f"  {result.label}: {speedup:.2f}x from recompilation")
    maybe_export_json("bench_recompile_adaptive", results,
                      extra={"adaptive": summaries})


if __name__ == "__main__":
    main()
