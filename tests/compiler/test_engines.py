"""Cross-engine equivalence: every mode must compute identical results.

These tests execute the paper's expression patterns (and more) under
base / numpy / fused / gen / gen-fa / gen-fnr and compare numerically.
"""

import numpy as np
import pytest

from repro import api
from repro.hops.hop import AggUnaryOp
from repro.hops.types import AggDir, AggOp
from repro.runtime.matrix import MatrixBlock
from tests.conftest import ALL_MODES, as_array, assert_engines_agree, make_engine


RNG = np.random.default_rng(99)
N, M, K = 120, 30, 6
XD = RNG.random((N, M))
YD = RNG.random((N, M))
ZD = RNG.random((N, M))
VD = RNG.random((M, 1))
WD = RNG.random((M, K))
PD = RNG.random((N, K + 1))
UD = RNG.random((N, K))
VFD = RNG.random((M, K))
SD = MatrixBlock.rand(N, M, sparsity=0.08, seed=17)
CVD = RNG.random((N, 1))
RVD = RNG.random((1, M))


def _mats():
    return {
        "X": api.matrix(XD, "X"),
        "Y": api.matrix(YD, "Y"),
        "Z": api.matrix(ZD, "Z"),
        "v": api.matrix(VD, "v"),
        "W": api.matrix(WD, "W"),
        "P": api.matrix(PD, "P"),
        "U": api.matrix(UD, "U"),
        "Vf": api.matrix(VFD, "Vf"),
        "S": api.matrix(SD, "S"),
        "c": api.matrix(CVD, "c"),
        "r": api.matrix(RVD, "r"),
    }


class TestPaperPatterns:
    def test_cell_sum_xyz(self):
        assert_engines_agree(lambda: [(lambda m: (m["X"] * m["Y"] * m["Z"]).sum())(_mats())])

    def test_cell_sum_xyz_sparse(self):
        def build():
            m = _mats()
            return [(m["S"] * m["Y"] * m["Z"]).sum()]

        assert_engines_agree(build)

    def test_multi_aggregates(self):
        def build():
            m = _mats()
            return [(m["X"] * m["Y"]).sum(), (m["X"] * m["Z"]).sum()]

        assert_engines_agree(build)

    def test_row_mv_chain(self):
        def build():
            m = _mats()
            return [m["X"].T @ (m["X"] @ m["v"])]

        assert_engines_agree(build)

    def test_row_mm_chain(self):
        def build():
            m = _mats()
            return [m["X"].T @ (m["X"] @ m["W"])]

        assert_engines_agree(build)

    def test_outer_wce(self):
        def build():
            m = _mats()
            return [(m["S"] * api.log(m["U"] @ m["Vf"].T + 1e-15)).sum()]

        assert_engines_agree(build)

    def test_als_update_rule(self):
        """Expression (1): O = ((X != 0) * (U V^T)) V + 1e-6 * U * r."""

        def build():
            m = _mats()
            guard = m["S"] != 0.0
            return [
                (guard * (m["U"] @ m["Vf"].T)) @ m["Vf"] + m["U"] * 1e-6
            ]

        assert_engines_agree(build)

    def test_mlogreg_inner(self):
        """Expression (2): the Figure 5 pattern."""

        def build():
            m = _mats()
            q = m["P"][:, 0:K] * (m["X"] @ m["W"])
            return [m["X"].T @ (q - m["P"][:, 0:K] * q.row_sums())]

        assert_engines_agree(build)

    def test_fig10_row_chain(self):
        def build():
            m = _mats()
            f = m["X"] / m["X"].row_sums()
            for i in range(5):
                f = f * float(i + 1)
            return [f.sum()]

        assert_engines_agree(build)


class TestBroadcastAndVectors:
    def test_col_vector_side(self):
        def build():
            m = _mats()
            return [((m["X"] - m["c"]) * m["Y"]).sum()]

        assert_engines_agree(build)

    def test_row_vector_side(self):
        def build():
            m = _mats()
            return [((m["X"] * m["r"]) + m["Y"]).sum()]

        assert_engines_agree(build)

    def test_row_and_col_agg_outputs(self):
        def build():
            m = _mats()
            e = m["X"] * m["Y"] + 1.5
            return [e.row_sums(), e.col_sums()]

        assert_engines_agree(build)

    def test_no_agg_cell_output(self):
        def build():
            m = _mats()
            return [m["X"] * m["Y"] * 2.0 + m["Z"]]

        assert_engines_agree(build)

    def test_min_max_aggregates(self):
        def build():
            m = _mats()
            return [(m["X"] * m["Y"]).max(), (m["X"] + m["Z"]).min()]

        assert_engines_agree(build)

    def test_comparison_chain(self):
        def build():
            m = _mats()
            return [((m["X"] > 0.5) * m["Y"]).sum()]

        assert_engines_agree(build)

    def test_ternary_ifelse(self):
        def build():
            m = _mats()
            return [api.ifelse(m["X"] > 0.5, m["Y"], m["Z"]).sum()]

        assert_engines_agree(build)

    def test_sigmoid_sprop_chain(self):
        def build():
            m = _mats()
            return [(api.sigmoid(m["X"]) * api.sprop(api.sigmoid(m["Y"]))).sum()]

        assert_engines_agree(build)


class TestMeanOverRowBodies:
    """Column and full means over a Row body: the Row template computes
    a mean only within a row, so the outer mean stays a basic op."""

    @staticmethod
    def _build():
        m = _mats()
        x, v, w = m["X"], m["v"], m["W"]
        return [
            (x @ v).mean(),
            api.exp(x).row_sums().mean(),
            (api.exp(x) @ v).mean(),
            api.Mat(AggUnaryOp(AggOp.MEAN, AggDir.COL, (api.exp(x) * (x @ v)).hop)),
            api.Mat(AggUnaryOp(AggOp.MEAN, AggDir.ROW, (x @ w).hop)).sum(),
        ]

    @pytest.mark.parametrize("mode,config", [
        ("gen", {}),
        ("gen-fa", {}),
        ("gen-fnr", {}),
        ("gen", {"intra_op_threads": 2}),
    ], ids=["gen", "gen-fa", "gen-fnr", "gen-intra-op-2"])
    def test_mean_matches_base(self, mode, config, request):
        reference = [as_array(r) for r in api.eval_all(self._build(),
                                                       engine=make_engine("base"))]
        if config:
            # The inputs here are below the parallelism threshold.
            request.getfixturevalue("parallel_tiny_ops")
        engine = make_engine(mode, **config)
        results = [as_array(r) for r in api.eval_all(self._build(), engine=engine)]
        for idx, (expected, actual) in enumerate(zip(reference, results)):
            np.testing.assert_allclose(actual, expected, rtol=1e-8, atol=1e-10,
                                       err_msg=f"output={idx}")
        assert engine.stats.n_compiled_runs > 0


class TestSharedIntermediates:
    def test_diamond_dag(self):
        def build():
            m = _mats()
            shared = m["X"] * m["Y"]
            return [((shared + 1.0) * (shared - 1.0)).sum()]

        assert_engines_agree(build)

    def test_multi_root_share(self):
        def build():
            m = _mats()
            shared = m["X"] * 2.0
            return [(shared * m["Y"]).sum(), shared.row_sums(), (shared + m["Z"]).col_sums()]

        assert_engines_agree(build)

    def test_deep_chain(self):
        def build():
            m = _mats()
            e = m["X"]
            for i in range(8):
                e = e * (0.9 + 0.01 * i) + 0.01
            return [e.sum()]

        assert_engines_agree(build)

    def test_rowsums_shared_between_roots(self):
        def build():
            m = _mats()
            sums = (m["X"] * m["Y"]).row_sums()
            return [(m["X"] * sums).sum(), (m["Z"] / (sums + 1.0)).sum()]

        assert_engines_agree(build)


class TestSparseInputs:
    def test_sparse_row_agg(self):
        def build():
            m = _mats()
            return [(m["S"] * m["Y"]).row_sums()]

        assert_engines_agree(build)

    def test_sparse_col_agg(self):
        def build():
            m = _mats()
            return [(m["S"] * m["S"]).col_sums()]

        assert_engines_agree(build)

    def test_sparse_no_agg_preserves_values(self):
        def build():
            m = _mats()
            return [m["S"] * m["Y"] * 3.0]

        assert_engines_agree(build)

    def test_sparse_mv_chain(self):
        def build():
            m = _mats()
            return [m["S"].T @ (m["S"] @ m["v"])]

        assert_engines_agree(build)

    def test_two_sparse_inputs(self):
        s2 = MatrixBlock.rand(N, M, sparsity=0.15, seed=23)

        def build():
            m = _mats()
            return [(m["S"] * api.matrix(s2, "S2")).sum()]

        assert_engines_agree(build)


class TestPlanCacheBehavior:
    def test_repeated_execution_hits_cache(self):
        engine = make_engine("gen")

        def run():
            m = _mats()
            return api.eval((m["X"] * m["Y"] * m["Z"]).sum(), engine=engine)

        first = run()
        compiled_after_first = engine.stats.n_classes_compiled
        second = run()
        assert first == pytest.approx(second)
        assert engine.stats.n_classes_compiled == compiled_after_first
        # The rebuilt DAG has the first one's shape: the engine's
        # program cache serves it before the plan cache is ever asked.
        assert engine.stats.n_specialization_hits == 1
        assert engine.stats.n_programs_compiled == 1

    def test_cache_disabled_recompiles(self):
        engine = make_engine("gen", plan_cache_enabled=False)

        def run():
            m = _mats()
            return api.eval((m["X"] * m["Y"]).sum(), engine=engine)

        run()
        first_count = engine.stats.n_classes_compiled
        run()
        assert engine.stats.n_classes_compiled > first_count

    def test_file_compiler_backend(self):
        engine = make_engine("gen", compiler="file")

        def run():
            m = _mats()
            return api.eval((m["X"] * m["Y"]).sum(), engine=engine)

        expected = float(np.sum(XD * YD))
        assert run() == pytest.approx(expected)
