"""PlanCache.get_or_compile hit/miss behavior and multi-root CSE.

Simulates iterative algorithms: DAGs rebuilt per iteration while
generated operators are reused through the plan cache (Section 2.1's
dynamic recompilation story).
"""

import numpy as np
import pytest

from repro import api
from repro.codegen.plan_cache import PlanCache
from repro.config import CodegenConfig
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
        engine = make_engine("gen")
        cplan = self._cplan(engine)
        cache = PlanCache(enabled=True)
        config = CodegenConfig()
        first = cache.get_or_compile(cplan, config)
        assert cache.lookups == 1 and cache.hits == 0
        second = cache.get_or_compile(cplan, config)
        assert cache.lookups == 2 and cache.hits == 1
        assert second is first

    def test_disabled_cache_always_misses(self):
        engine = make_engine("gen")
        cplan = self._cplan(engine)
        cache = PlanCache(enabled=False)
        config = CodegenConfig()
        first = cache.get_or_compile(cplan, config)
        second = cache.get_or_compile(cplan, config)
        assert first is not second
        assert cache.hits == 0

    def test_clear_resets_counters_and_entries(self):
        engine = make_engine("gen")
        cplan = self._cplan(engine)
        cache = PlanCache(enabled=True)
        cache.get_or_compile(cplan, CodegenConfig())
        cache.clear()
        assert cache.lookups == 0 and cache.hits == 0
        cache.get_or_compile(cplan, CodegenConfig())
        assert cache.hits == 0  # recompiled after clear


class TestConcurrentAccess:
    def test_concurrent_miss_compiles_exactly_once(self):
        """Threads racing on the same key share one compilation."""
        import threading

        from repro.runtime.stats import RuntimeStats

        engine = make_engine("gen")
        api.eval(_sum_expr(), engine=engine)
        (operator,) = list(engine.plan_cache._cache.values())
        cplan = operator.cplan

        cache = PlanCache(enabled=True)
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
        assert cache.lookups == n_threads
        assert cache.hits == n_threads - 1
        assert cache.size == 1


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
