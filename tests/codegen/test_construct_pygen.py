"""CPlan construction, code generation, and the plan cache."""

import numpy as np
import pytest

from repro import api
from repro.codegen.cost import CostEstimator
from repro.codegen.cplan import Access, CNode, CPlan, InputSpec, OutType
from repro.codegen.construct import _sparse_safe, construct_cplan, eval_cnode
from repro.codegen.explore import explore
from repro.codegen.partitions import build_partitions
from repro.codegen.plan_cache import PlanCache, compile_operator
from repro.codegen.pygen import generate_source
from repro.codegen.template import TemplateType
from repro.config import CodegenConfig
from repro.hops.hop import collect_dag
from repro.hops.rewrites import apply_rewrites
from repro.runtime.matrix import MatrixBlock
from repro.runtime.stats import RuntimeStats


def _select_plan(exprs, want_type=None):
    """Explore + cost-select; return the first chosen plan (of a type)."""
    config = CodegenConfig()
    roots = apply_rewrites([e.hop for e in exprs])
    memo = explore(roots, config)
    hop_by_id = {h.id: h for h in collect_dag(roots)}
    estimator = CostEstimator(memo, config, hop_by_id)
    chosen = {}
    for part in build_partitions(memo, roots):
        estimator.cost_partition(part, record=chosen)
    plans = list(chosen.values())
    if want_type is not None:
        plans = [p for p in plans if p.ttype is want_type]
    assert plans, f"no plan of type {want_type}"
    return plans[0], config


class TestConstruction:
    def test_cell_plan_binding(self, rng):
        x = api.matrix(rng.random((30, 10)), "X")
        y = api.matrix(rng.random((30, 10)), "Y")
        plan, config = _select_plan([(x * y + 1.0).sum()])
        cplan, input_hops = construct_cplan(plan, config)
        assert cplan.out_type in (OutType.FULL_AGG, OutType.MULTI_AGG)
        assert cplan.main_index >= 0
        assert len(input_hops) == len(cplan.inputs)

    def test_cell_sparse_driver_selection(self, rng):
        sparse = api.matrix(MatrixBlock.rand(40, 20, sparsity=0.05, seed=1), "S")
        dense = api.matrix(rng.random((40, 20)), "D")
        plan, config = _select_plan([(sparse * dense).sum()])
        cplan, input_hops = construct_cplan(plan, config)
        # The sparser aligned input becomes the main driver.
        main_hop = input_hops[cplan.main_index]
        assert main_hop.sparsity < 0.5
        assert cplan.sparse_safe

    def test_cell_plus_not_sparse_safe(self, rng):
        sparse = api.matrix(MatrixBlock.rand(40, 20, sparsity=0.05, seed=2), "S")
        dense = api.matrix(rng.random((40, 20)), "D")
        plan, config = _select_plan([(sparse + dense).sum()])
        cplan, _ = construct_cplan(plan, config)
        assert not cplan.sparse_safe

    def test_row_plan_binding(self, rng):
        x = api.matrix(rng.random((50, 8)), "X")
        v = api.matrix(rng.random((8, 1)), "v")
        plan, config = _select_plan([x.T @ (x @ v)], TemplateType.ROW)
        cplan, input_hops = construct_cplan(plan, config)
        assert cplan.out_type is OutType.COL_AGG_T
        assert cplan.inputs[cplan.main_index].cols == 8
        # v is read in full per row (SIDE_FULL).
        accesses = {s.access for i, s in enumerate(cplan.inputs) if i != cplan.main_index}
        assert Access.SIDE_FULL in accesses

    def test_outer_plan_binding(self, rng):
        s = api.matrix(MatrixBlock.rand(60, 50, sparsity=0.05, seed=3), "S")
        u = api.matrix(rng.random((60, 4)), "U")
        v = api.matrix(rng.random((50, 4)), "V")
        plan, config = _select_plan(
            [(s * api.log(u @ v.T + 1e-15)).sum()], TemplateType.OUTER
        )
        cplan, input_hops = construct_cplan(plan, config)
        # Depending on cost ties the aggregation may live in a separate
        # MAgg operator; the outer-product operator itself must bind
        # the factors and the sparse driver either way.
        assert cplan.out_type.value.startswith("outer")
        assert cplan.u_index >= 0 and cplan.v_index >= 0
        assert cplan.sparse_safe
        # The transpose hop must not remain an operator input.
        assert all(h.opcode() != "r(t)" for h in input_hops)


class TestCNodeProbing:
    def test_eval_cnode_matches_python(self):
        body = CNode("b:*", [CNode("data", input_index=0), CNode("lit", value=3.0)])
        assert eval_cnode(body, {"in0": 2.0}) == 6.0

    def test_probe_detects_unsafe_plan(self):
        specs = [InputSpec(1, 5, 5, Access.MAIN), InputSpec(2, 5, 5, Access.SIDE_ROW)]
        safe = CNode("b:*", [CNode("data", input_index=0), CNode("data", input_index=1)])
        unsafe = CNode("b:+", [CNode("data", input_index=0), CNode("data", input_index=1)])
        assert _sparse_safe([safe], specs, 0)
        assert not _sparse_safe([unsafe], specs, 0)

    def test_sparse_safety_is_proven_not_sampled(self):
        """``max(y * z, x)`` at ``x = 0`` is non-zero whenever ``y`` and
        ``z`` share a sign, and ``max((0.25 - y) * y, x)`` only for ``y``
        in (0, 0.25): sampled side values miss both."""
        specs = [InputSpec(1, 5, 5, Access.MAIN),
                 InputSpec(2, 5, 5, Access.SIDE_ROW),
                 InputSpec(3, 5, 5, Access.SIDE_ROW),
                 InputSpec(4, 0, 0, Access.SCALAR)]
        product = CNode("b:*", [CNode("data", input_index=1),
                                CNode("data", input_index=3)])
        body = CNode("b:max", [product, CNode("data", input_index=0)])
        assert not _sparse_safe([body], specs, 0)
        y = CNode("data", input_index=1)
        narrow = CNode("b:*", [CNode("b:-", [CNode("lit", value=0.25), y]), y])
        body = CNode("b:max", [narrow, CNode("data", input_index=0)])
        assert not _sparse_safe([body], specs, 0)

    def test_sparse_safety_keeps_what_the_known_zero_decides(self):
        x, y = CNode("data", input_index=0), CNode("data", input_index=1)
        specs = [InputSpec(1, 5, 5, Access.MAIN),
                 InputSpec(2, 5, 5, Access.SIDE_ROW)]
        safe_bodies = [
            CNode("b:>", [x, CNode("lit", value=0.5)]),
            CNode("b:/", [CNode("u:abs", [x]), y]),
            CNode("t:ifelse", [CNode("b:!=", [x, CNode("lit", value=0.0)]),
                               y, x]),
            CNode("mm", [y, CNode("b:*", [x, CNode("u:exp", [y])])]),
        ]
        for body in safe_bodies:
            assert _sparse_safe([body], specs, 0), body.signature({})
        assert not _sparse_safe([CNode("b:>=", [x, y])], specs, 0)


class TestPygen:
    def _compile(self, exprs, want_type=None):
        plan, config = _select_plan(exprs, want_type)
        cplan, input_hops = construct_cplan(plan, config)
        name, source = generate_source(cplan)
        func = compile_operator(name, source)
        return cplan, source, func

    def test_source_uses_vector_primitives(self, rng):
        x = api.matrix(rng.random((30, 10)), "X")
        y = api.matrix(rng.random((30, 10)), "Y")
        _, source, _ = self._compile([(x * y).sum()])
        assert "vp.BINARY['*'](" in source
        assert "np." not in source  # every cell op goes through the table
        assert "def genbody" in source

    def test_generated_cell_executes(self, rng):
        xd, yd = rng.random((30, 10)), rng.random((30, 10))
        x, y = api.matrix(xd, "X"), api.matrix(yd, "Y")
        cplan, _, func = self._compile([(x * y).sum()])
        result = func(xd, [yd], [])
        np.testing.assert_allclose(result, xd * yd)

    def test_deterministic_operator_names(self):
        """Equivalent CPlans name identically (semantic-hash derived).

        Deterministic names make regenerated source byte-identical, so a
        multiprocess worker can check the operator it rebuilds against
        the driver's source.
        """
        def make_cplan():
            return CPlan(
                ttype=TemplateType.CELL,
                out_type=OutType.NO_AGG,
                roots=[CNode("u:abs", [CNode("data", input_index=0)])],
                inputs=[InputSpec(1, 4, 4, Access.MAIN)],
                main_index=0,
            )

        name1, source1 = generate_source(make_cplan())
        name2, source2 = generate_source(make_cplan())
        assert name1 == name2
        assert source1 == source2
        assert name1 == f"TMP_{make_cplan().semantic_hash()[:10]}"

    def test_semantic_hash_stable_across_sizes(self, rng):
        """Operators are size-generic: equal structure, equal hash."""

        def cplan_for(rows):
            x = api.matrix(rng.random((rows, 10)), "X")
            y = api.matrix(rng.random((rows, 10)), "Y")
            plan, config = _select_plan([(x * y).sum()])
            return construct_cplan(plan, config)[0]

        assert cplan_for(30).semantic_hash() == cplan_for(60).semantic_hash()

    def test_semantic_hash_differs_across_ops(self, rng):
        def cplan_for(op):
            x = api.matrix(rng.random((30, 10)), "X")
            y = api.matrix(rng.random((30, 10)), "Y")
            expr = (x * y) if op == "*" else (x - y)
            plan, config = _select_plan([expr.sum()])
            return construct_cplan(plan, config)[0]

        assert cplan_for("*").semantic_hash() != cplan_for("-").semantic_hash()


class TestPlanCache:
    def test_hit_on_equivalent_plan(self, rng):
        cache = PlanCache()
        config = CodegenConfig()
        stats = RuntimeStats()

        def build(rows):
            x = api.matrix(rng.random((rows, 10)), "X")
            y = api.matrix(rng.random((rows, 10)), "Y")
            plan, _ = _select_plan([(x * y).sum()])
            return construct_cplan(plan, config)[0]

        op1 = cache.get_or_compile(build(30), config, stats)
        op2 = cache.get_or_compile(build(90), config, stats)
        assert op1 is op2
        assert stats.plan_cache_hits == 1

    def test_disabled_cache_recompiles(self, rng):
        cache = PlanCache()
        config = CodegenConfig(plan_cache_enabled=False)
        x = api.matrix(rng.random((30, 10)), "X")
        y = api.matrix(rng.random((30, 10)), "Y")
        plan, _ = _select_plan([(x * y).sum()])
        cplan, _ = construct_cplan(plan, config)
        op1 = cache.get_or_compile(cplan, config)
        op2 = cache.get_or_compile(cplan, config)
        assert op1 is not op2
        assert op1.genbody is not op2.genbody  # compiled twice
        assert cache.size == 0

    def test_file_backend_produces_working_operator(self):
        source = (
            "import numpy as np\n"
            "def genbody(a, b, s):\n"
            "    return a * 2.0\n"
        )
        func = compile_operator("TMPX", source, backend="file")
        np.testing.assert_array_equal(func(np.ones((2, 2)), [], []), 2.0 * np.ones((2, 2)))

    def test_file_backend_compiles_every_template(self, rng):
        """``compiler="file"`` reaches every operator: the ``genbody`` of
        a Cell, a Row and an Outer operator each come from a real file
        (removed once imported), not from the exec backend's
        ``<generated …>`` code objects."""
        from repro.compiler.execution import Engine

        engine = Engine(mode="gen", config=CodegenConfig(compiler="file"))
        x = api.matrix(rng.random((60, 8)), "X")
        v = api.matrix(rng.random((8, 1)), "v")
        s = api.matrix(MatrixBlock.rand(60, 50, sparsity=0.05, seed=3), "S")
        u = api.matrix(rng.random((60, 4)), "U")
        w = api.matrix(rng.random((50, 4)), "W")
        for expr in [(x * x + 1.0).row_sums(), x.T @ (x @ v), s * (u @ w.T)]:
            api.eval(expr, engine=engine)
        operators = list(engine.plan_cache._cache.values())
        assert {op.cplan.ttype for op in operators} == {
            TemplateType.CELL, TemplateType.ROW, TemplateType.OUTER
        }
        for op in operators:
            filename = op.genbody.__code__.co_filename
            assert filename.endswith(f"/{op.name.lower()}.py")

    def test_file_backend_leaves_no_directory(self, rng, tmp_path,
                                              monkeypatch):
        """Each file-backend build writes its module into a temporary
        directory and removes it once the module is imported."""
        import tempfile

        from repro.compiler.execution import Engine

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        engine = Engine(mode="gen", config=CodegenConfig(
            compiler="file", plan_cache_enabled=False))
        x = api.matrix(rng.random((30, 10)), "X")
        for _ in range(5):
            api.eval((x * x + 1.0).row_sums(), engine=engine)
        assert engine.stats.n_classes_compiled == 5
        genbody = compile_operator(
            "TMPX", "def genbody(a, b, s):\n    return a\n", backend="file")
        assert genbody.__code__.co_filename.startswith(str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_unknown_backend_rejected(self):
        from repro.errors import CodegenError

        with pytest.raises(CodegenError):
            compile_operator("T", "def genbody(a,b,s):\n    return a\n", backend="llvm")
