"""Compiler pipeline: pass composition and single-run guarantees."""

import numpy as np
import pytest

from repro import api
from repro.compiler.execution import Engine
from repro.compiler.pipeline import (
    CompilationContext,
    CodegenPass,
    ExecTypeSelectionPass,
    RewritePass,
    build_pipeline,
    compile_program,
)
from repro.config import ClusterConfig, CodegenConfig
from repro.hops.types import ExecType
from tests.conftest import ALL_MODES, make_engine


def _expr(rng):
    x = api.matrix(rng.random((30, 20)), "X")
    y = api.matrix(rng.random((30, 20)), "Y")
    return (x * y).sum()


class TestPipelineShape:
    def test_base_modes_have_no_codegen_pass(self):
        for mode in ("base", "numpy", "fused"):
            names = [p.name for p in build_pipeline(mode)]
            assert names == ["rewrites", "exec-type-selection"]

    def test_gen_modes_have_codegen_pass(self):
        for mode in ("gen", "gen-fa", "gen-fnr"):
            names = [p.name for p in build_pipeline(mode)]
            assert names == ["rewrites", "codegen", "exec-type-selection"]

    def test_codegen_policy_per_mode(self):
        policies = {
            mode: next(
                p.policy for p in build_pipeline(mode)
                if isinstance(p, CodegenPass)
            )
            for mode in ("gen", "gen-fa", "gen-fnr")
        }
        assert policies == {"gen": "cost", "gen-fa": "fa", "gen-fnr": "fnr"}


class TestExecTypeSelectionRunsOnce:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_one_selection_per_compile(self, mode, rng):
        engine = make_engine(mode)
        api.eval(_expr(rng), engine=engine)
        assert engine.stats.n_exec_type_selections == 1
        assert engine.stats.n_programs_compiled == 1
        # The same DAG shape again runs the cached program: no compile,
        # so no selection either.
        api.eval(_expr(rng), engine=engine)
        assert engine.stats.n_exec_type_selections == 1
        assert engine.stats.n_programs_compiled == 1
        api.eval(_expr(rng).T, engine=engine)
        assert engine.stats.n_exec_type_selections == 2
        assert engine.stats.n_programs_compiled == 2

    def test_selection_types_spliced_spoofs(self, rng):
        config = CodegenConfig(cluster=ClusterConfig(), local_mem_budget=1.0)
        engine = Engine(mode="gen", config=config)
        program = engine.compile([_expr(rng).hop])
        assert engine.stats.n_exec_type_selections == 1
        spoofs = [i for i in program.instructions if i.opcode == "spoof"]
        assert spoofs, "codegen should have spliced a fused operator"
        # A 1-byte budget forces every computed operator distributed.
        assert all(i.hop.exec_type is ExecType.SPARK for i in spoofs)

    def test_cp_selection_under_local_config(self, rng):
        engine = make_engine("gen")
        program = engine.compile([_expr(rng).hop])
        assert all(
            i.hop.exec_type is ExecType.CP for i in program.instructions
        )


class TestPassTiming:
    def test_pass_seconds_recorded(self, rng):
        engine = make_engine("gen")
        api.eval(_expr(rng), engine=engine)
        seconds = engine.stats.pipeline_pass_seconds
        assert set(seconds) == {
            "rewrites", "codegen", "exec-type-selection", "lowering"
        }
        assert all(v >= 0.0 for v in seconds.values())


class TestRewritePass:
    def test_cse_disabled_for_numpy_mode(self, rng):
        xd = rng.random((10, 10))

        def roots():
            x = api.matrix(xd, "X")
            a = (x * 2.0).sum()
            b = (x * 2.0).sum()
            return [a.hop, b.hop]

        ctx = CompilationContext("base", CodegenConfig())
        shared = RewritePass().run(roots(), ctx)
        assert shared[0] is shared[1]

        ctx_np = CompilationContext("numpy", CodegenConfig())
        unshared = RewritePass().run(roots(), ctx_np)
        assert unshared[0] is not unshared[1]

    def test_numpy_mode_duplicates_instructions(self, rng):
        xd = rng.random((10, 10))

        def build():
            x = api.matrix(xd, "X")
            return [(x * 2.0).sum(), (x * 2.0).sum()]

        cse = make_engine("base").compile([e.hop for e in build()])
        nocse = make_engine("numpy").compile([e.hop for e in build()])
        assert nocse.n_instructions > cse.n_instructions


class TestCompileProgramFacade:
    def test_engine_compile_returns_program(self, rng):
        engine = make_engine("base")
        program = engine.compile([_expr(rng).hop])
        assert program.n_instructions >= 2
        assert len(program.root_slots) == 1

    def test_compile_program_default_pipeline(self, rng):
        ctx = CompilationContext("base", CodegenConfig())
        program = compile_program([_expr(rng).hop], ctx)
        assert program.n_instructions >= 2
        assert ctx.stats.n_programs_compiled == 1
