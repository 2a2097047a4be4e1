"""Runtime executor: program order, eager freeing, error propagation."""

import threading

import numpy as np
import pytest

from repro import api
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.runtime import executor as executor_mod
from repro.runtime.matrix import MatrixBlock
from tests.conftest import ALL_MODES


def _engine(mode="base", **kwargs):
    return Engine(mode=mode, config=CodegenConfig(**kwargs))


def _substitute(program, instr, compute):
    """Swap ``instr`` for a fused instruction whose match runs ``compute``."""
    from repro.compiler.program import Instruction

    match = type("M", (), {"compute": staticmethod(compute)})()
    program.instructions[instr.index] = Instruction(
        index=instr.index,
        opcode="fused",
        hop=instr.hop,
        input_slots=instr.input_slots,
        output_slot=instr.output_slot,
        fused_match=match,
    )


@pytest.mark.usefixtures("parallel_tiny_ops")
class TestParallelSerialParity:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_identical_results_all_modes(self, mode, rng):
        """Operators split into intra-op parts give the serial skeletons'
        results, and the executor runs the same instructions either way."""
        seed_data = rng.random((40, 20))
        branch_data = [rng.random((12, 12)) for _ in range(16)]

        def three_roots():
            x = api.matrix(seed_data, "X")
            y = api.matrix(seed_data * 0.5, "Y")
            return [
                (x * y).sum(),
                (x + y).row_sums(),
                x.T @ (x @ api.matrix(seed_data[:20, :1], "v")),
            ]

        def sixteen_branches():
            mats = [api.matrix(d, f"M{i}") for i, d in enumerate(branch_data)]
            return [((m * 2.0 + 1.0) * (m - 0.5)).sum() for m in mats]

        for build in (three_roots, sixteen_branches):
            serial_engine = _engine(mode, intra_op_threads=1)
            parallel_engine = _engine(mode, intra_op_threads=4)
            serial = api.eval_all(build(), engine=serial_engine)
            parallel = api.eval_all(build(), engine=parallel_engine)
            for s, p in zip(serial, parallel):
                s_arr = s.to_dense() if isinstance(s, MatrixBlock) else s
                p_arr = p.to_dense() if isinstance(p, MatrixBlock) else p
                np.testing.assert_allclose(p_arr, s_arr, rtol=1e-12)
            assert serial_engine.stats.n_intra_op_parallel == 0
            if mode.startswith("gen"):
                assert parallel_engine.stats.n_intra_op_parallel > 0
            for name in ("n_instructions_executed", "n_intermediates",
                         "n_freed_early", "n_serial_runs"):
                assert (getattr(parallel_engine.stats, name)
                        == getattr(serial_engine.stats, name)), name


class TestProgramOrder:
    @pytest.mark.usefixtures("parallel_tiny_ops")
    def test_independent_heavy_branches_run_in_program_order(
            self, rng, monkeypatch):
        """Two independent branches that each touch at least the
        parallelism threshold still run one instruction at a time, on
        the calling thread, in ``program.instructions`` order."""
        engine = _engine()
        x = api.matrix(rng.random((30, 30)), "X")
        y = api.matrix(rng.random((30, 30)), "Y")
        program = engine.compile([(api.exp(x) * 2.0).sum().hop,
                                  (api.exp(y) * 3.0).sum().hop])
        ran = []
        real = executor_mod.execute_instruction

        def spy(instr, *args, **kwargs):
            ran.append((threading.get_ident(), instr.index))
            return real(instr, *args, **kwargs)

        monkeypatch.setattr(executor_mod, "execute_instruction", spy)
        engine.executor.run(program)
        caller = threading.get_ident()
        assert ran == [(caller, i.index) for i in program.instructions]
        assert engine.stats.n_serial_runs == 1


class TestEagerFreeing:
    def test_intermediates_freed_early(self, rng):
        engine = _engine()
        x = api.matrix(rng.random((20, 20)), "X")
        chain = ((x * 2.0 + 1.0) * 0.5).sum()
        api.eval(chain, engine=engine)
        # Every non-root intermediate dies as soon as its consumer ran.
        assert engine.stats.n_freed_early == engine.stats.n_instructions_executed - 1

    def test_roots_never_freed(self, rng):
        engine = _engine()
        x = api.matrix(rng.random((10, 10)), "X")
        shared = x * 2.0
        results = api.eval_all([shared, shared.sum()], engine=engine)
        assert isinstance(results[0], MatrixBlock)
        assert results[1] == pytest.approx(results[0].to_dense().sum())


class TestErrorPropagation:
    def test_executor_propagates_kernel_errors(self, rng):
        engine = _engine()
        x = api.matrix(np.full((200, 200), -1.0), "X")
        y = api.matrix(rng.random((200, 200)), "Y")

        class Boom(RuntimeError):
            pass

        program = engine.compile([(api.sqrt(x) * y).sum().hop])

        def exploding_compute(inputs):
            raise Boom("kernel failure")

        _substitute(program, program.instructions[0], exploding_compute)
        with pytest.raises(Boom):
            engine.executor.run(program)
