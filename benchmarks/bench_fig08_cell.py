"""Figure 8(a,b): Cell operations — sum(X ⊙ Y ⊙ Z), dense and sparse.

Paper setup: inputs of x * 10^3 cells, x in {1e3..1e6} (up to 1G cells),
sparse inputs at sparsity 0.1.  Reproduction scale: up to 4M cells per
input (1/250 of the paper's largest), single-threaded NumPy kernels.
Expected shape: Fused and Gen beat Base by an order of magnitude at
large sizes (no materialized intermediates); the eager-NumPy reference
(standing in for Julia) tracks Base.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import quick_trim

from repro import api
from repro.bench.harness import (
    BenchResult,
    maybe_export_json,
    phase_summary,
    print_table,
    run_modes,
    time_best,
)
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.runtime.matrix import MatrixBlock

MODES = ["numpy", "base", "fused", "gen"]
SIZES = quick_trim([100_000, 1_000_000, 4_000_000])
_CACHE: dict = {}


def _dense_inputs(cells: int):
    key = ("dense", cells)
    if key not in _CACHE:
        rows = cells // 1000
        _CACHE[key] = tuple(
            MatrixBlock.rand(rows, 1000, seed=seed) for seed in (1, 2, 3)
        )
    return _CACHE[key]


def _sparse_inputs(cells: int):
    key = ("sparse", cells)
    if key not in _CACHE:
        rows = cells // 1000
        _CACHE[key] = tuple(
            MatrixBlock.rand(rows, 1000, sparsity=0.1, seed=seed, low=0.1, high=1.0)
            for seed in (1, 2, 3)
        )
    return _CACHE[key]


def _build(blocks):
    x, y, z = (api.matrix(b, n) for b, n in zip(blocks, "XYZ"))
    return [(x * y * z).sum()]


@pytest.mark.bench
@pytest.mark.parametrize("cells", SIZES)
@pytest.mark.parametrize("mode", MODES)
def test_fig08a_cell_dense(benchmark, cells, mode):
    blocks = _dense_inputs(cells)
    engine = Engine(mode=mode)

    def evaluate():
        return api.eval_all(_build(blocks), engine=engine)

    evaluate()  # warmup: codegen + plan cache
    result = benchmark.pedantic(evaluate, rounds=3, iterations=1)
    benchmark.extra_info["cells"] = cells
    assert result[0] == pytest.approx(result[0])


@pytest.mark.bench
@pytest.mark.parametrize("cells", SIZES)
@pytest.mark.parametrize("mode", ["numpy", "base", "fused", "gen"])
def test_fig08b_cell_sparse(benchmark, cells, mode):
    blocks = _sparse_inputs(cells)
    engine = Engine(mode=mode)

    def evaluate():
        return api.eval_all(_build(blocks), engine=engine)

    evaluate()
    benchmark.pedantic(evaluate, rounds=3, iterations=1)
    benchmark.extra_info["cells"] = cells
    benchmark.extra_info["sparsity"] = 0.1


@pytest.mark.bench
def test_fig08_verify_overhead(benchmark):
    """``verify_level="boundaries"`` stays under 10% end-to-end.

    Each evaluate builds a fresh DAG and runs the full compile pipeline
    (the plan cache only absorbs operator compilation), so the measured
    ratio covers exactly what the verifier adds per compile+run: one
    post-optimization DAG check plus one post-lowering program check.

    The size is pinned at 1M cells even in quick mode — at the trimmed
    100K size one evaluate is ~1.5ms and a 10% bound is scheduler
    noise, not verifier cost — and the two levels are timed
    *interleaved* so clock drift hits both equally.
    """
    cells = 1_000_000
    blocks = _dense_inputs(cells)

    def run():
        engines = {
            level: Engine(
                mode="gen", config=CodegenConfig(verify_level=level)
            )
            for level in ("off", "boundaries")
        }

        def evaluate(level):
            return api.eval_all(_build(blocks), engine=engines[level])

        seconds = {level: float("inf") for level in engines}
        for level in engines:
            evaluate(level)  # warmup: codegen + plan cache
        for _ in range(7):
            for level in engines:
                seconds[level] = min(
                    seconds[level], time_best(lambda: evaluate(level), 1)
                )
        ratio = seconds["boundaries"] / seconds["off"]
        result = BenchResult(f"cell_dense_{cells}_verify", seconds=seconds)
        print_table("Fig 8 cell: verifier overhead",
                    ["off", "boundaries"], [result])
        print(f"verify overhead: {ratio:.3f}x")
        maybe_export_json("fig08_cell_verify_overhead", [result],
                          extra={"overhead_ratio": ratio})
        assert ratio < 1.10, (
            f"boundaries verification adds {(ratio - 1) * 100:.1f}% "
            "to compile+run (budget: 10%)"
        )

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.bench
def test_fig08_trace_overhead(benchmark):
    """Tracing overhead bounds at 1M cells (repro.obs acceptance).

    ``trace_level="instructions"`` must add <5% to compile+run, timed
    interleaved against an ``off`` engine (same discipline as the
    verifier-overhead bench: pinned 1M cells, min-of-7 rounds, so clock
    drift hits both engines equally).

    The ``off`` bound (<1%) is not measurable as off-vs-off wall time —
    at ~ms scale two identical engines differ by scheduler noise alone
    — so it is operationalized as a microbenchmark of the exact hook
    the off level pays: one ``tracer.enabled()`` call per instruction
    plus one no-op span per request/compile.  That per-run hook cost,
    divided by the measured off runtime, must stay under 1%.
    """
    cells = 1_000_000
    blocks = _dense_inputs(cells)

    def run():
        engines = {
            level: Engine(
                mode="gen", config=CodegenConfig(trace_level=level)
            )
            for level in ("off", "instructions", "full")
        }

        def evaluate(level):
            return api.eval_all(_build(blocks), engine=engines[level])

        seconds = {level: float("inf") for level in engines}
        for level in engines:
            evaluate(level)  # warmup: codegen + plan cache
        for _ in range(7):
            for level in engines:
                seconds[level] = min(
                    seconds[level], time_best(lambda: evaluate(level), 1)
                )
        ratio = seconds["instructions"] / seconds["off"]

        # Null-hook microbenchmark: the off level's entire per-run cost
        # is NULL_TRACER method calls.  Bound hooks-per-run generously
        # (spans + enabled checks + instants) and scale by call cost.
        program = engines["off"].compile(
            [expr.hop for expr in _build(blocks)]
        )
        hooks_per_run = 4 * program.n_instructions + 16
        tracer = engines["off"].tracer
        reps = 100_000
        start = time.perf_counter()
        for _ in range(reps):
            tracer.enabled(2)
        hook_seconds = (time.perf_counter() - start) / reps
        off_overhead = (hook_seconds * hooks_per_run) / seconds["off"]

        result = BenchResult(f"cell_dense_{cells}_trace",
                             seconds=dict(seconds),
                             phases={"full": phase_summary(engines["full"])})
        print_table("Fig 8 cell: trace overhead",
                    ["off", "instructions", "full"], [result])
        print(f"instructions overhead: {ratio:.3f}x; "
              f"off hook overhead: {off_overhead * 100:.4f}%")
        trace_path = os.environ.get("REPRO_TRACE_JSON")
        if trace_path:
            engines["full"].export_trace(trace_path)
            print(f"full trace exported to {trace_path}")
        maybe_export_json("fig08_cell_trace_overhead", [result],
                          extra={"overhead_ratio_instructions": ratio,
                                 "overhead_fraction_off": off_overhead})
        assert ratio < 1.05, (
            f"instructions tracing adds {(ratio - 1) * 100:.1f}% "
            "to compile+run (budget: 5%)"
        )
        assert off_overhead < 0.01, (
            f"off-level hook cost is {off_overhead * 100:.2f}% of the "
            "off runtime (budget: 1%)"
        )

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.bench
def test_fig08_cell_shape_summary(benchmark):
    """The paper's qualitative claim: Gen >= Fused > Base at scale."""

    def run():
        blocks = _dense_inputs(1_000_000)
        seconds = run_modes(lambda: _build(blocks), ["base", "fused", "gen"], repeats=3)
        assert seconds["gen"] < seconds["base"]
        assert seconds["fused"] < seconds["base"]

    benchmark.pedantic(run, rounds=1, iterations=1)
