"""Figure 8(e,f,g): Row operations — t(X)(Xv) and t(X)(XV).

t(X) %*% (X %*% v) requires a single pass over X with fused operators
(temporal row locality); the hand-coded mmchain operator of Fused only
applies to matrix-*vector* chains, so for V with 2 columns (Fig 8(g))
Base and Fused coincide while Gen keeps its single-pass advantage.
"""

from __future__ import annotations

import pytest

from conftest import quick_trim

from repro import api
from repro.compiler.execution import Engine
from repro.runtime.matrix import MatrixBlock

MODES = ["numpy", "base", "fused", "gen"]
SIZES = quick_trim([100_000, 1_000_000, 4_000_000])
_CACHE: dict = {}


def _x(cells: int, sparse: bool) -> MatrixBlock:
    key = (cells, sparse)
    if key not in _CACHE:
        rows = cells // 1000
        if sparse:
            _CACHE[key] = MatrixBlock.rand(rows, 1000, sparsity=0.1, seed=7,
                                           low=0.1, high=1.0)
        else:
            _CACHE[key] = MatrixBlock.rand(rows, 1000, seed=7)
    return _CACHE[key]


def _v(cols: int) -> MatrixBlock:
    key = ("v", cols)
    if key not in _CACHE:
        _CACHE[key] = MatrixBlock.rand(1000, cols, seed=8)
    return _CACHE[key]


def _build(x_block, v_block):
    x = api.matrix(x_block, "X")
    v = api.matrix(v_block, "v")
    return [x.T @ (x @ v)]


@pytest.mark.bench
@pytest.mark.parametrize("cells", SIZES)
@pytest.mark.parametrize("mode", MODES)
def test_fig08e_mv_chain_dense(benchmark, cells, mode):
    x_block, v_block = _x(cells, False), _v(1)
    engine = Engine(mode=mode)

    def evaluate():
        return api.eval_all(_build(x_block, v_block), engine=engine)

    evaluate()
    benchmark.pedantic(evaluate, rounds=3, iterations=1)
    benchmark.extra_info["cells"] = cells


@pytest.mark.bench
@pytest.mark.parametrize("cells", SIZES)
@pytest.mark.parametrize("mode", MODES)
def test_fig08f_mv_chain_sparse(benchmark, cells, mode):
    x_block, v_block = _x(cells, True), _v(1)
    engine = Engine(mode=mode)

    def evaluate():
        return api.eval_all(_build(x_block, v_block), engine=engine)

    evaluate()
    benchmark.pedantic(evaluate, rounds=3, iterations=1)
    benchmark.extra_info["cells"] = cells


@pytest.mark.bench
@pytest.mark.parametrize("cells", SIZES)
@pytest.mark.parametrize("mode", MODES)
def test_fig08g_mm_chain_dense(benchmark, cells, mode):
    """V has 2 columns: the hand-coded mmchain does NOT apply."""
    x_block, v_block = _x(cells, False), _v(2)
    engine = Engine(mode=mode)

    def evaluate():
        return api.eval_all(_build(x_block, v_block), engine=engine)

    evaluate()
    benchmark.pedantic(evaluate, rounds=3, iterations=1)
    benchmark.extra_info["cells"] = cells


@pytest.mark.bench
def test_fig08g_fused_equals_base_for_mm_chain(benchmark):
    """The paper's limitation check: mmchain is vector-only, so Fused
    must *not* produce a fused operator for t(X)(XV)."""

    def run():
        x_block, v_block = _x(100_000, False), _v(2)
        engine = Engine(mode="fused")
        api.eval_all(_build(x_block, v_block), engine=engine)
        assert engine.stats.spoof_executions.get("Fused", 0) == 0

        engine_v = Engine(mode="fused")
        api.eval_all(_build(x_block, _v(1)), engine=engine_v)
        assert engine_v.stats.spoof_executions.get("Fused", 0) == 1

    benchmark.pedantic(run, rounds=1, iterations=1)
