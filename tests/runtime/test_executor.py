"""Runtime executor: scheduling, eager freeing, serial/parallel parity."""

import numpy as np
import pytest

from repro import api
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.runtime.executor import ProgramExecutor
from repro.runtime.matrix import MatrixBlock
from tests.conftest import ALL_MODES


def _parallel_engine(mode="base", threads=4, **kwargs):
    config = CodegenConfig(executor_threads=threads, **kwargs)
    return Engine(mode=mode, config=config)


def _serial_engine(mode="base", **kwargs):
    return Engine(mode=mode, config=CodegenConfig(executor_threads=1, **kwargs))


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
        dep_indices=instr.dep_indices,
        dependent_indices=instr.dependent_indices,
    )


def _branches(rng, n=3, size=30):
    mats = [api.matrix(rng.random((size, size)), f"M{i}") for i in range(n)]
    return [(api.exp(m * 0.5) + m * 2.0).sum() for m in mats]


@pytest.mark.usefixtures("parallel_tiny_ops")
class TestParallelSerialParity:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_identical_results_all_modes(self, mode, rng):
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
            serial_engine = _serial_engine(mode)
            parallel_engine = _parallel_engine(mode)
            serial = api.eval_all(build(), engine=serial_engine)
            parallel = api.eval_all(build(), engine=parallel_engine)
            for s, p in zip(serial, parallel):
                s_arr = s.to_dense() if isinstance(s, MatrixBlock) else s
                p_arr = p.to_dense() if isinstance(p, MatrixBlock) else p
                np.testing.assert_allclose(p_arr, s_arr, rtol=1e-12)
            # Same instructions, intermediates and early frees on both
            # schedules.
            assert parallel_engine.stats.n_parallel_runs == 1
            for name in ("n_instructions_executed", "n_intermediates",
                         "n_freed_early"):
                assert (getattr(parallel_engine.stats, name)
                        == getattr(serial_engine.stats, name)), name

    def test_repeated_execution_reuses_pool(self, rng):
        engine = _parallel_engine()
        for _ in range(3):
            api.eval_all(_branches(rng), engine=engine)
        assert engine.stats.n_parallel_runs == 3


@pytest.mark.usefixtures("parallel_tiny_ops")
class TestSchedulingStats:
    def test_parallel_stats_recorded(self, rng):
        engine = _parallel_engine()
        api.eval_all(_branches(rng, n=4), engine=engine)
        stats = engine.stats
        assert stats.n_parallel_runs == 1
        assert stats.n_serial_runs == 0
        assert stats.n_parallel_tasks == stats.n_instructions_executed
        assert stats.executor_max_concurrency >= 1

    def test_independent_instructions_overlap(self, rng):
        """Two barrier-synchronized instructions must be in flight
        together — deterministic proof of concurrent scheduling."""
        import threading

        engine = _parallel_engine(threads=2)
        x = api.matrix(rng.random((8, 8)), "X")
        y = api.matrix(rng.random((8, 8)), "Y")
        program = engine.compile([(x * 2.0).sum().hop, (y * 3.0).sum().hop])
        barrier = threading.Barrier(2, timeout=10)
        initial = [i for i in program.instructions if not i.dep_indices]
        assert len(initial) >= 2

        class Blocking:
            def __init__(self, inner):
                self.inner = inner

            def compute(self, inputs):
                barrier.wait()  # both sides must arrive: true overlap
                return self.inner

        from repro.compiler.program import Instruction

        blocked_indices = {i.index for i in initial[:2]}
        for pos, instr in enumerate(program.instructions):
            if instr.index in blocked_indices:
                program.instructions[pos] = Instruction(
                    index=instr.index,
                    opcode="fused",
                    hop=instr.hop,
                    input_slots=instr.input_slots,
                    output_slot=instr.output_slot,
                    fused_match=Blocking(MatrixBlock(np.ones((8, 8)))),
                    dep_indices=instr.dep_indices,
                    dependent_indices=instr.dependent_indices,
                )
        engine.executor.run(program)
        assert engine.stats.executor_max_concurrency >= 2

    def test_in_flight_capped_at_granted_tokens(self, rng, monkeypatch):
        """Four ready instructions, four executor threads, two budget
        tokens: never more than two instructions run at once."""
        import threading

        from repro.runtime import parallel

        monkeypatch.setattr(parallel, "_BUDGET", parallel.ThreadBudget(total=2))
        engine = _parallel_engine(threads=4)
        mats = [api.matrix(rng.random((8, 8)), f"M{i}") for i in range(4)]
        program = engine.compile([(m * 2.0).sum().hop for m in mats])
        initial = [i for i in program.instructions if not i.dep_indices]
        assert len(initial) == 4
        lock = threading.Lock()
        running = [0]
        peak = [0]
        # Pairs rendezvous here, so two in flight always overlap.
        barrier = threading.Barrier(2, timeout=10)

        def counting(inputs):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            barrier.wait()
            with lock:
                running[0] -= 1
            return MatrixBlock(np.ones((8, 8)))

        for instr in initial:
            _substitute(program, instr, counting)
        results = engine.executor.run(program)
        assert results == [pytest.approx(64.0)] * 4
        assert peak[0] == 2
        assert engine.stats.executor_max_concurrency == 2
        assert engine.stats.n_parallel_runs == 1

    def test_serial_fallback_stats(self, rng):
        engine = _serial_engine()
        api.eval_all(_branches(rng), engine=engine)
        stats = engine.stats
        assert stats.n_serial_runs == 1
        assert stats.n_parallel_tasks == 0
        assert stats.executor_max_concurrency == 1


class TestHeuristicFallback:
    def test_tiny_programs_run_serially(self, rng):
        # The parallel cell floor keeps thread dispatch away from tiny
        # operators even with several executor threads.
        config = CodegenConfig(executor_threads=4)
        engine = Engine(mode="base", config=config)
        x = api.matrix(rng.random((4, 4)), "X")
        api.eval((x * 2.0).sum(), engine=engine)
        assert engine.stats.n_serial_runs == 1
        assert engine.stats.n_parallel_runs == 0

    def test_single_thread_forces_serial(self, rng, parallel_tiny_ops):
        config = CodegenConfig(executor_threads=1)
        engine = Engine(mode="base", config=config)
        api.eval_all(_branches(rng), engine=engine)
        assert engine.stats.n_parallel_runs == 0


@pytest.mark.usefixtures("parallel_tiny_ops")
class TestEagerFreeing:
    def test_intermediates_freed_early(self, rng):
        engine = _serial_engine()
        x = api.matrix(rng.random((20, 20)), "X")
        chain = ((x * 2.0 + 1.0) * 0.5).sum()
        api.eval(chain, engine=engine)
        # Every non-root intermediate dies as soon as its consumer ran.
        assert engine.stats.n_freed_early == engine.stats.n_instructions_executed - 1

    def test_parallel_freeing_matches_serial(self, rng):
        data = rng.random((30, 30))

        def build():
            x = api.matrix(data, "X")
            return [((x * 2.0 + 1.0) * (x - 0.5)).sum(), (x + 3.0).row_sums()]

        serial = _serial_engine()
        api.eval_all(build(), engine=serial)
        parallel = _parallel_engine()
        api.eval_all(build(), engine=parallel)
        assert parallel.stats.n_freed_early == serial.stats.n_freed_early

    def test_roots_never_freed(self, rng):
        engine = _serial_engine()
        x = api.matrix(rng.random((10, 10)), "X")
        shared = x * 2.0
        results = api.eval_all([shared, shared.sum()], engine=engine)
        assert isinstance(results[0], MatrixBlock)
        assert results[1] == pytest.approx(results[0].to_dense().sum())


@pytest.mark.usefixtures("parallel_tiny_ops")
class TestErrorPropagation:
    def test_parallel_executor_propagates_kernel_errors(self, rng):
        engine = _parallel_engine()
        x = api.matrix(np.full((200, 200), -1.0), "X")
        y = api.matrix(rng.random((200, 200)), "Y")

        class Boom(RuntimeError):
            pass

        # Inject a failing instruction by monkey-patching its hop kernel.
        program = engine.compile([(api.sqrt(x) * y).sum().hop])
        broken = program.instructions[0]

        def exploding_compute(inputs):
            raise Boom("kernel failure")

        from repro.compiler.program import Instruction

        program.instructions[0] = Instruction(
            index=broken.index,
            opcode="fused",
            hop=broken.hop,
            input_slots=broken.input_slots,
            output_slot=broken.output_slot,
            fused_match=type(
                "M", (), {"compute": staticmethod(exploding_compute)}
            )(),
            dep_indices=broken.dep_indices,
            dependent_indices=broken.dependent_indices,
        )
        with pytest.raises(Boom):
            engine.executor.run(program)

    def test_failed_run_waits_for_instructions_in_flight(self, rng):
        """The first error is raised only after every instruction still
        running has finished, and the run's budget tokens are back."""
        import threading
        import time

        from repro.runtime.parallel import shared_budget

        engine = _parallel_engine(threads=2)
        x = api.matrix(rng.random((8, 8)), "X")
        y = api.matrix(rng.random((8, 8)), "Y")
        program = engine.compile([(x * 2.0).sum().hop, (y * 3.0).sum().hop])
        slow, failing = [i for i in program.instructions if not i.dep_indices][:2]
        started = threading.Event()
        finished = threading.Event()

        class Boom(RuntimeError):
            pass

        def slow_compute(inputs):
            started.set()
            time.sleep(0.3)
            finished.set()
            return MatrixBlock(np.ones((8, 8)))

        def failing_compute(inputs):
            assert started.wait(10)
            raise Boom("kernel failure")

        _substitute(program, slow, slow_compute)
        _substitute(program, failing, failing_compute)
        active_before = shared_budget().active
        with pytest.raises(Boom):
            engine.executor.run(program)
        assert finished.is_set()
        assert shared_budget().active == active_before


class TestExecutorConfig:
    def test_thread_autosizing(self):
        config = CodegenConfig(executor_threads=0)
        executor = ProgramExecutor(config, Engine(mode="base").stats)
        import os

        assert executor.n_threads == min(8, os.cpu_count() or 1)

    def test_explicit_threads(self):
        config = CodegenConfig(executor_threads=3)
        executor = ProgramExecutor(config, Engine(mode="base").stats)
        assert executor.n_threads == 3
