"""Adaptive recompilation: observed metadata corrects frozen estimates.

A program compiled over an input with unknown nnz assumes dense; at the
first recompilation segment boundary the executor observes the actual
sparsity, recompiles the remainder to a sparse (and, under ``gen``,
fused sparse-safe) plan, and produces bit-identical results measurably
faster than the estimate-frozen plan.
"""

import threading
import time

import numpy as np
import pytest

from repro import api
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.runtime import executor as executor_mod
from repro.runtime.matrix import MatrixBlock

RNG = np.random.default_rng(11)


def _sparse_as_dense_block(rows, cols, density, seed=5) -> MatrixBlock:
    """A dense-STORED block whose values are mostly zero."""
    rng = np.random.default_rng(seed)
    arr = np.zeros((rows, cols))
    mask = rng.random((rows, cols)) < density
    arr[mask] = rng.random(int(mask.sum())) + 0.5
    return MatrixBlock(arr)


def _chain(block: MatrixBlock):
    X = api.matrix(block, name="X", nnz_unknown=True)
    return (X * 3.0) * api.abs_(X)


def _chain_reference(block: MatrixBlock) -> np.ndarray:
    arr = block.to_dense()
    return (arr * 3.0) * np.abs(arr)


def _engine(mode: str, adaptive: bool, **overrides) -> Engine:
    config = CodegenConfig(adaptive_recompile=adaptive, **overrides)
    return Engine(mode=mode, config=config)


class TestMarkersAndSegments:
    def test_unknown_input_marks_instructions_and_segments(self):
        block = _sparse_as_dense_block(50, 40, 0.01)
        engine = _engine("base", adaptive=True)
        program = engine.compile([_chain(block).hop])
        assert program.has_recompile_markers
        marked = [i for i in program.instructions if i.meta_checks]
        assert marked, "instructions consuming unknown metadata are marked"
        segments = program.recompile_segments()
        assert segments[0][0] == 0
        assert segments[-1][1] == program.n_instructions

    def test_known_inputs_produce_no_markers(self):
        block = _sparse_as_dense_block(50, 40, 0.01)
        X = api.matrix(block, name="X")  # nnz known
        engine = _engine("base", adaptive=True)
        program = engine.compile([((X * 3.0) * api.abs_(X)).hop])
        assert not program.has_recompile_markers
        assert all(not i.meta_checks for i in program.instructions)

    def test_mid_program_segment_boundary(self):
        """The first marked instruction need not be instruction 0."""
        a = api.matrix(RNG.random((30, 20)), name="A")
        b = api.matrix(RNG.random((20, 30)), name="B")
        x = api.matrix(_sparse_as_dense_block(30, 30, 0.01), name="X",
                       nnz_unknown=True)
        engine = _engine("base", adaptive=True)
        program = engine.compile([((a @ b) * x).hop])
        marked = [i.index for i in program.instructions if i.meta_checks]
        assert marked == [1]  # the multiply, not the known matmult
        assert program.recompile_segments() == [(0, 1), (1, 2)]


class TestRecompilation:
    def test_recompiles_to_sparse_plan_bit_identical(self):
        block = _sparse_as_dense_block(400, 300, 0.01)
        frozen_engine = _engine("base", adaptive=False)
        frozen = api.eval(_chain(block), engine=frozen_engine)
        assert frozen_engine.stats.n_recompiles == 0

        adaptive_engine = _engine("base", adaptive=True)
        result = api.eval(_chain(block), engine=adaptive_engine)
        stats = adaptive_engine.stats
        assert stats.n_recompiles > 0
        assert stats.n_estimate_misses > 0
        assert stats.n_format_conversions > 0
        assert stats.recompile_divergence_hist  # ratios were bucketed
        # The recompiled plan kept the data sparse end-to-end.
        assert result.is_sparse
        # Bit-identical vs the serial dense path (sparse-safe cell ops
        # apply the same float ops per non-zero; zeros stay exact).
        assert np.array_equal(result.to_dense(), frozen.to_dense())
        assert np.array_equal(result.to_dense(), _chain_reference(block))

    @pytest.mark.parametrize("mode", ["gen", "fused", "gen-fa"])
    def test_all_modes_recompile_and_agree(self, mode):
        block = _sparse_as_dense_block(300, 200, 0.01)
        engine = _engine(mode, adaptive=True)
        result = api.eval(_chain(block), engine=engine)
        assert engine.stats.n_recompiles > 0
        assert np.array_equal(result.to_dense(), _chain_reference(block))

    def test_gen_mode_recompiles_into_fused_sparse_operator(self):
        block = _sparse_as_dense_block(400, 300, 0.01)
        engine = _engine("gen", adaptive=True)
        result = api.eval(_chain(block), engine=engine)
        assert engine.stats.n_recompiles > 0
        # The regenerated plan still fuses (Cell template executions).
        assert engine.stats.spoof_executions.get("Cell", 0) > 0
        assert np.array_equal(result.to_dense(), _chain_reference(block))

    def test_mid_program_recompile_uses_observed_intermediate(self):
        a_arr = RNG.random((40, 30))
        b_arr = RNG.random((30, 40))
        x_block = _sparse_as_dense_block(40, 40, 0.01)
        a = api.matrix(a_arr, name="A")
        b = api.matrix(b_arr, name="B")
        x = api.matrix(x_block, name="X", nnz_unknown=True)
        engine = _engine("base", adaptive=True)
        result = api.eval((a @ b) * x, engine=engine)
        assert engine.stats.n_recompiles == 1
        expected = (a_arr @ b_arr) * x_block.to_dense()
        np.testing.assert_allclose(result.to_dense(), expected, rtol=1e-12)

    def test_recompile_counts_as_one_run(self):
        block = _sparse_as_dense_block(150, 100, 0.01)
        engine = _engine("base", adaptive=True)
        api.eval(_chain(block), engine=engine)
        assert engine.stats.n_recompiles == 1
        # The recompiled remainder continues the same logical run.
        assert engine.stats.n_serial_runs == 1

    @pytest.mark.usefixtures("parallel_tiny_ops")
    def test_recompiled_remainder_runs_on_the_calling_thread(self,
                                                             monkeypatch):
        """A recompiled remainder continues in the same loop: every
        instruction of both programs runs on the caller's thread."""
        block = _sparse_as_dense_block(120, 90, 0.01)
        X = api.matrix(block, name="X", nnz_unknown=True)
        roots = [X * 2.0, api.abs_(X) * X, X * 0.5 * X]  # wide remainder
        engine = _engine("base", adaptive=True)
        threads = set()
        real = executor_mod.execute_instruction

        def spy(instr, *args, **kwargs):
            threads.add(threading.get_ident())
            return real(instr, *args, **kwargs)

        monkeypatch.setattr(executor_mod, "execute_instruction", spy)
        results = api.eval_all(roots, engine=engine)
        stats = engine.stats
        assert stats.n_recompiles == 1
        assert stats.n_serial_runs == 1
        assert threads == {threading.get_ident()}
        arr = block.to_dense()
        for result, expected in zip(results, [
            arr * 2.0, np.abs(arr) * arr, arr * 0.5 * arr,
        ]):
            assert np.array_equal(result.to_dense(), expected)

    def test_multi_root_remainder_mapping(self):
        block = _sparse_as_dense_block(200, 150, 0.01)
        X = api.matrix(block, name="X", nnz_unknown=True)
        y1 = X * 2.0
        y2 = api.abs_(X) * X
        engine = _engine("base", adaptive=True)
        r1, r2 = api.eval_all([y1, y2], engine=engine)
        assert engine.stats.n_recompiles >= 1
        arr = block.to_dense()
        assert np.array_equal(r1.to_dense(), arr * 2.0)
        assert np.array_equal(r2.to_dense(), np.abs(arr) * arr)


class TestTriggerPolicy:
    def test_no_recompile_when_observation_matches_estimate(self):
        dense = MatrixBlock(RNG.random((100, 80)))  # actually dense
        engine = _engine("base", adaptive=True)
        result = api.eval(_chain(dense), engine=engine)
        stats = engine.stats
        assert stats.n_meta_checks > 0  # boundary was checked...
        assert stats.n_recompiles == 0  # ...but estimates held
        assert np.array_equal(result.to_dense(), _chain_reference(dense))

    def test_divergence_ratio_is_configurable(self, monkeypatch):
        block = _sparse_as_dense_block(100, 80, 0.2)  # 5x off, not 100x
        monkeypatch.setattr(executor_mod, "_RECOMPILE_DIVERGENCE_RATIO", 50.0)
        loose = _engine("base", adaptive=True)
        api.eval(_chain(block), engine=loose)
        assert loose.stats.n_recompiles == 0
        monkeypatch.setattr(executor_mod, "_RECOMPILE_DIVERGENCE_RATIO", 3.0)
        tight = _engine("base", adaptive=True)
        api.eval(_chain(block), engine=tight)
        assert tight.stats.n_recompiles > 0

    def test_max_recompiles_bounds_the_loop(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "_MAX_RECOMPILES_PER_RUN", 0)
        block = _sparse_as_dense_block(100, 80, 0.01)
        engine = _engine("base", adaptive=True)
        result = api.eval(_chain(block), engine=engine)
        assert engine.stats.n_recompiles == 0
        assert np.array_equal(result.to_dense(), _chain_reference(block))

    def test_adaptive_disabled_is_fully_frozen(self):
        block = _sparse_as_dense_block(100, 80, 0.01)
        engine = _engine("base", adaptive=False)
        result = api.eval(_chain(block), engine=engine)
        stats = engine.stats
        assert stats.n_recompiles == 0
        assert stats.n_meta_checks == 0
        assert stats.n_format_conversions == 0
        assert np.array_equal(result.to_dense(), _chain_reference(block))


class TestSpeedup:
    def test_recompiled_sparse_plan_is_measurably_faster(self):
        """Acceptance: unknown-nnz program on a <=1%-dense input beats
        the estimate-frozen dense plan after its segment recompile."""
        block = _sparse_as_dense_block(2000, 1500, 0.005)

        def best_of(engine, repeats=3):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                result = api.eval(_chain(block), engine=engine)
                times.append(time.perf_counter() - start)
            return min(times), result

        frozen_engine = _engine("base", adaptive=False)
        adaptive_engine = _engine("base", adaptive=True)
        api.eval(_chain(block), engine=frozen_engine)  # warmup both
        api.eval(_chain(block), engine=adaptive_engine)
        frozen_time, frozen = best_of(frozen_engine)
        adaptive_time, adapted = best_of(adaptive_engine)
        assert adaptive_engine.stats.n_recompiles > 0
        assert np.array_equal(adapted.to_dense(), frozen.to_dense())
        assert adaptive_time < frozen_time, (
            f"adaptive {adaptive_time * 1e3:.1f}ms not faster than "
            f"frozen {frozen_time * 1e3:.1f}ms"
        )
