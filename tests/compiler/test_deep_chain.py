"""Deep-chain regression: no compiler pass recurses over the DAG.

Every DAG pass — signatures, CPlan construction, code generation,
sparse-safety evaluation, lowering, recompile markers and the adaptive
recompile clone — walks with :func:`repro.hops.hop.topological_order`,
which keeps its own stack.  These tests build element-wise chains far
deeper than the recursion limit and require every layer (rewrites,
exploration, costing, construction of Cell and Row operators, code
generation, lowering, adaptive recompilation, execution) to handle them
with the interpreter's default limit untouched.
"""

import sys

import numpy as np
import pytest

from repro import api
from repro.runtime.matrix import MatrixBlock
from tests.conftest import make_engine

CHAIN_OPS = 5000
# Costing builds one greedy cover per hop of the chain, each as deep as
# the chain below it, so the Row case uses a shorter chain — still
# deeper than the recursion limit.
ROW_CHAIN_OPS = 1200
ROWS, COLS = 40, 15


def _chain(e, n_ops=CHAIN_OPS):
    for _ in range(n_ops // 2):
        e = e * 1.0001 + 0.0001
    return e


def _input():
    return np.random.default_rng(21).random((ROWS, COLS))


def _deep_chain():
    return _chain(api.matrix(_input(), "X")).sum()


def _reference():
    return float(_chain(_input()).sum())


class TestDeepChain:
    @pytest.mark.parametrize("mode", ["fused", "gen"])
    def test_deep_chain_compiles_and_runs(self, mode):
        limit = sys.getrecursionlimit()
        engine = make_engine(mode)
        result = api.eval(_deep_chain(), engine=engine)
        assert result == pytest.approx(_reference(), rel=1e-9)
        # The old workaround mutated the limit; lowering must not.
        assert sys.getrecursionlimit() == limit

    def test_gen_fuses_chain_into_one_operator(self):
        engine = make_engine("gen")
        result = api.eval(_deep_chain(), engine=engine)
        assert result == pytest.approx(_reference(), rel=1e-9)
        # The whole chain collapses into a single Cell operator; the
        # program is a handful of instructions, not thousands.
        assert engine.stats.spoof_executions.get("Cell") == 1
        assert engine.stats.n_instructions_lowered < 10

    def test_gen_fuses_chain_and_matmult_into_one_row_operator(self):
        limit = sys.getrecursionlimit()
        assert ROW_CHAIN_OPS > limit
        v = np.random.default_rng(22).random((COLS, 1))
        engine = make_engine("gen")
        expr = _chain(api.matrix(_input(), "X"), ROW_CHAIN_OPS) @ api.matrix(v, "v")
        result = api.eval(expr, engine=engine)
        expected = _chain(_input(), ROW_CHAIN_OPS) @ v
        np.testing.assert_allclose(result.to_dense(), expected, rtol=1e-9)
        assert engine.stats.spoof_executions.get("Row") == 1
        assert sys.getrecursionlimit() == limit

    def test_adaptive_recompile_clones_the_chain(self):
        # A dense-stored, mostly zero input with hidden nnz: the observed
        # sparsity diverges from the dense estimate, and the remainder
        # recompiled from the observation is the whole chain.
        limit = sys.getrecursionlimit()
        arr = _input() * (np.random.default_rng(23).random((ROWS, COLS)) < 0.05)
        x = api.matrix(MatrixBlock(arr), "X", nnz_unknown=True)
        engine = make_engine("gen", adaptive_recompile=True)
        result = api.eval(_chain(x).sum(), engine=engine)
        assert engine.stats.n_recompiles >= 1
        assert result == pytest.approx(float(_chain(arr).sum()), rel=1e-9)
        assert sys.getrecursionlimit() == limit

    def test_base_matches_reference(self):
        engine = make_engine("base")
        result = api.eval(_deep_chain(), engine=engine)
        assert result == pytest.approx(_reference(), rel=1e-9)

    def test_no_recursion_limit_workaround_in_tree(self):
        # Regression guard: the workaround must not come back.
        import pathlib

        import repro

        src_root = pathlib.Path(repro.__file__).parent
        offenders = [
            path
            for path in src_root.rglob("*.py")
            if "setrecursionlimit" in path.read_text()
        ]
        assert offenders == []
