"""PlanCache.get_or_compile hit/miss behavior and multi-root CSE.

Simulates iterative algorithms: DAGs rebuilt per iteration while
generated operators are reused through the plan cache (Section 2.1's
dynamic recompilation story).
"""

import threading
import time

import numpy as np
import pytest

from repro import api
from repro.codegen.plan_cache import PlanCache
from repro.config import CodegenConfig
from repro.runtime.stats import RuntimeStats
from tests.conftest import GEN_MODES, make_engine

RNG = np.random.default_rng(31)
XD = RNG.random((60, 25))
YD = RNG.random((60, 25))
ZD = RNG.random((60, 25))


def _sum_expr():
    x = api.matrix(XD, "X")
    y = api.matrix(YD, "Y")
    return (x * y * 2.0).sum()


class TestGetOrCompile:
    def _cplan(self, engine):
        """Compile once through the engine to obtain a realistic CPlan."""
        api.eval(_sum_expr(), engine=engine)
        (operator,) = list(engine.plan_cache._cache.values())
        return operator.cplan

    def test_miss_compiles_then_hits(self):
        cplan = self._cplan(make_engine("gen"))
        cache = PlanCache()
        config = CodegenConfig()
        stats = RuntimeStats()
        first = cache.get_or_compile(cplan, config, stats)
        assert stats.plan_cache_lookups == 1 and stats.plan_cache_hits == 0
        second = cache.get_or_compile(cplan, config, stats)
        assert stats.plan_cache_lookups == 2 and stats.plan_cache_hits == 1
        assert second is first
        assert stats.n_classes_compiled == 1

    def test_disabled_cache_always_builds(self):
        """``plan_cache_enabled=False``: no cache at any level — every
        lookup generates and compiles its source again."""
        cplan = self._cplan(make_engine("gen"))
        cache = PlanCache()
        config = CodegenConfig(plan_cache_enabled=False)
        stats = RuntimeStats()
        first = cache.get_or_compile(cplan, config, stats)
        second = cache.get_or_compile(cplan, config, stats)
        assert first is not second
        assert first.genbody is not second.genbody
        assert first.source == second.source
        assert stats.plan_cache_lookups == 2 and stats.plan_cache_hits == 0
        assert stats.n_classes_compiled == 2
        assert stats.n_source_cache_hits == 0
        assert stats.class_compile_seconds > 0.0
        assert cache.size == 0

    def test_key_carries_the_compiler_backend(self):
        cplan = self._cplan(make_engine("gen"))
        cache = PlanCache()
        by_exec = cache.get_or_compile(cplan, CodegenConfig())
        by_file = cache.get_or_compile(cplan, CodegenConfig(compiler="file"))
        assert by_exec is not by_file
        assert cache.size == 2

    def test_engines_read_the_module_cache_when_built(self, fresh_plan_cache):
        """Every engine, the shared ones included, looks operators up in
        ``plan_cache.PLAN_CACHE`` as it was when the engine was built."""
        from repro.compiler.execution import shared_engine

        first, second = make_engine("gen"), make_engine("gen")
        assert first.plan_cache is fresh_plan_cache
        assert shared_engine().plan_cache is fresh_plan_cache
        api.eval(_sum_expr(), engine=first)
        api.eval(_sum_expr(), engine=second)
        assert fresh_plan_cache.size == first.stats.n_classes_compiled >= 1
        assert second.stats.n_classes_compiled == 0
        assert second.stats.plan_cache_hits == fresh_plan_cache.size

    def test_failed_build_is_retried(self, monkeypatch):
        """A build that raises caches nothing; the next lookup builds."""
        from repro.codegen import plan_cache

        cplan = self._cplan(make_engine("gen"))
        cache = PlanCache()
        build = plan_cache.build_operator

        def failing(*args, **kwargs):
            monkeypatch.setattr(plan_cache, "build_operator", build)
            raise RuntimeError("build failed")

        monkeypatch.setattr(plan_cache, "build_operator", failing)
        with pytest.raises(RuntimeError, match="build failed"):
            cache.get_or_compile(cplan, CodegenConfig())
        assert cache.size == 0
        assert cache.get_or_compile(cplan, CodegenConfig()) is not None
        assert cache.size == 1


class TestConcurrentAccess:
    def test_concurrent_miss_compiles_exactly_once(self):
        """Threads racing on the same key share one compilation."""
        engine = make_engine("gen")
        api.eval(_sum_expr(), engine=engine)
        (operator,) = list(engine.plan_cache._cache.values())
        cplan = operator.cplan

        cache = PlanCache()
        config = CodegenConfig()
        stats = RuntimeStats()
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        compiled: dict[int, object] = {}
        errors: list[BaseException] = []

        def worker(index):
            try:
                barrier.wait()
                compiled[index] = cache.get_or_compile(cplan, config, stats)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        operators = set(map(id, compiled.values()))
        assert len(operators) == 1  # everyone got the same object
        assert stats.n_classes_compiled == 1  # no double-compile
        assert stats.plan_cache_lookups == n_threads
        assert stats.plan_cache_hits == n_threads - 1
        assert cache.size == 1

    def test_two_engines_racing_build_once(self, monkeypatch):
        """Two engines compiling one operator on two threads: the
        process-wide cache builds it once, and the engine that lost the
        race waits for that build instead of starting its own."""
        from repro.codegen import plan_cache

        build = plan_cache.build_operator
        builds = []

        def slow_build(*args, **kwargs):
            builds.append(args[0].semantic_hash())
            time.sleep(0.2)  # hold the build open while the rival looks up
            return build(*args, **kwargs)

        monkeypatch.setattr(plan_cache, "build_operator", slow_build)
        engines = [make_engine("gen"), make_engine("gen")]
        barrier = threading.Barrier(len(engines))
        values: dict[int, float] = {}
        errors: list[BaseException] = []

        def run(index):
            try:
                barrier.wait()
                values[index] = api.eval(_sum_expr(), engine=engines[index])
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(engines))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert values[0] == values[1]
        assert len(builds) == 1
        assert sum(e.stats.n_classes_compiled for e in engines) == 1
        assert sum(e.stats.plan_cache_hits for e in engines) == 1
        assert plan_cache.PLAN_CACHE.size == 1


class TestIterativeExecution:
    @pytest.mark.parametrize("mode", GEN_MODES)
    def test_iterations_compile_once(self, mode):
        """Ten rebuilt DAGs (one per 'iteration') compile one operator."""
        engine = make_engine(mode)
        results = [api.eval(_sum_expr(), engine=engine) for _ in range(10)]
        assert all(r == pytest.approx(results[0]) for r in results)
        compiled = engine.stats.n_classes_compiled
        assert compiled >= 1
        # Every iteration after the first runs the first one's program.
        assert engine.stats.n_specialization_hits == 9
        assert engine.stats.n_programs_compiled == 1
        assert engine.stats.plan_cache_lookups == engine.stats.plan_cache_hits + compiled

    def test_changed_shape_reuses_operator(self):
        """Plan-cache keys ignore absolute sizes (shape classes only)."""
        engine = make_engine("gen")
        api.eval(_sum_expr(), engine=engine)
        compiled = engine.stats.n_classes_compiled
        x2 = api.matrix(RNG.random((90, 40)), "X2")
        y2 = api.matrix(RNG.random((90, 40)), "Y2")
        api.eval((x2 * y2 * 2.0).sum(), engine=engine)
        assert engine.stats.n_classes_compiled == compiled
        assert engine.stats.plan_cache_hits >= 1

    def test_different_pattern_compiles_new_operator(self):
        engine = make_engine("gen")
        api.eval(_sum_expr(), engine=engine)
        compiled = engine.stats.n_classes_compiled
        x = api.matrix(XD, "X")
        z = api.matrix(ZD, "Z")
        api.eval((api.exp(x) * z).sum(), engine=engine)
        assert engine.stats.n_classes_compiled > compiled


class TestMultiRootCSE:
    def test_shared_intermediate_computed_once(self):
        engine = make_engine("base")
        x = api.matrix(XD, "X")
        shared = x * 2.0
        program = engine.compile([shared.sum().hop, (shared + 1.0).sum().hop])
        multiplies = [
            i for i in program.instructions if i.hop.opcode() == "b(*)"
        ]
        assert len(multiplies) == 1

    def test_structurally_equal_roots_share(self):
        """CSE merges structurally identical subtrees across roots."""
        engine = make_engine("base")
        x = api.matrix(XD, "X")
        y = api.matrix(YD, "Y")
        r1 = (x * y).sum()
        r2 = (x * y).row_sums()  # distinct hop objects, same structure
        program = engine.compile([r1.hop, r2.hop])
        multiplies = [
            i for i in program.instructions if i.hop.opcode() == "b(*)"
        ]
        assert len(multiplies) == 1

    def test_eval_all_values_match_separate_eval(self):
        def build():
            x = api.matrix(XD, "X")
            y = api.matrix(YD, "Y")
            shared = x * y
            return [shared.sum(), (shared + 1.0).sum(), shared.col_sums()]

        together = api.eval_all(build(), engine=make_engine("gen"))
        separate = [
            api.eval(e, engine=make_engine("gen")) for e in build()
        ]
        assert together[0] == pytest.approx(separate[0])
        assert together[1] == pytest.approx(separate[1])
        np.testing.assert_allclose(
            together[2].to_dense(), separate[2].to_dense(), rtol=1e-10
        )

    def test_multi_root_cse_with_gen_plan_cache(self):
        """Multi-root CSE plus plan cache across repeated eval_all."""
        engine = make_engine("gen")

        def build():
            x = api.matrix(XD, "X")
            y = api.matrix(YD, "Y")
            z = api.matrix(ZD, "Z")
            return [(x * y).sum(), (x * z).sum()]

        first = api.eval_all(build(), engine=engine)
        compiled = engine.stats.n_classes_compiled
        second = api.eval_all(build(), engine=engine)
        assert first == pytest.approx(second)
        assert engine.stats.n_classes_compiled == compiled
