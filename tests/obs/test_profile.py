"""Per-operator profiler: engine.profile_report() shapes and content."""

import numpy as np
import pytest

from repro import api
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.runtime.matrix import MatrixBlock


def _run(trace_level: str, mode: str = "gen") -> Engine:
    engine = Engine(
        mode=mode, config=CodegenConfig(trace_level=trace_level)
    )
    x = api.matrix(MatrixBlock.rand(60, 40, seed=1), name="X")
    y = api.matrix(MatrixBlock.rand(60, 40, seed=2), name="Y")
    api.eval_all([(x * y * x).sum(), (x + y).row_sums()], engine=engine)
    return engine


class TestProfileReport:
    def test_instructions_level_populates_operators(self):
        engine = _run("instructions")
        report = engine.profile_report()
        assert report.per_operator, "no per-operator rows at instructions"
        for name, entry in report.per_operator.items():
            assert entry["executions"] >= 1
            assert entry["seconds"] >= 0.0
            assert entry["mean_seconds"] == pytest.approx(
                entry["seconds"] / entry["executions"]
            )
        # Executed bytes were attributed from the instruction spans.
        assert any(
            entry["bytes"] > 0 for entry in report.per_operator.values()
        )
        engine.close()

    def test_full_level_reports_tier_and_format(self):
        engine = _run("full")
        report = engine.profile_report()
        spoof_rows = {
            name: entry for name, entry in report.per_operator.items()
            if name.startswith("spoof:") or name.startswith("fused:")
        }
        assert spoof_rows, "gen mode produced no fused-operator rows"
        assert any(
            "dense" in entry["formats"] for entry in spoof_rows.values()
        )
        # Table rendering includes each operator label and the footer.
        text = str(report)
        for name in report.per_operator:
            assert name in text
        assert "operator(s)" in text
        engine.close()

    def test_totals_cover_compile_phases(self):
        engine = _run("instructions")
        report = engine.profile_report()
        phases = report.totals["phases"]
        assert "compile" in phases
        assert phases["compile"]["count"] >= 1
        assert report.totals["n_requests"] >= 1
        assert "pipeline_pass_seconds" in report.totals
        engine.close()

    def test_off_level_reports_disabled(self):
        engine = _run("off")
        report = engine.profile_report()
        assert report.per_operator == {}
        assert "profiling disabled" in str(report)
        engine.close()

    def test_phases_level_hints_at_missing_instructions(self):
        engine = _run("phases")
        report = engine.profile_report()
        assert report.per_operator == {}
        assert "instructions" in str(report)
        engine.close()

    def test_recompile_run_reports_triggers_and_nnz(self):
        rng = np.random.default_rng(5)
        arr = np.zeros((400, 300))
        mask = rng.random((400, 300)) < 0.01
        arr[mask] = rng.random(int(mask.sum())) + 0.5
        engine = Engine(
            mode="base",
            config=CodegenConfig(trace_level="instructions"),
        )
        x = api.matrix(MatrixBlock(arr), name="X", nnz_unknown=True)
        api.eval_all([(x * 3.0) * api.abs_(x)], engine=engine)
        assert engine.stats.n_recompiles > 0
        report = engine.profile_report()
        triggered = [
            entry for entry in report.per_operator.values()
            if entry["recompile_triggers"] > 0
        ]
        assert triggered, "no operator attributed a recompile trigger"
        observed = [
            entry for entry in report.per_operator.values()
            if entry["nnz_observed"] is not None
        ]
        assert observed, "no operator recorded observed-vs-estimated nnz"
        for entry in observed:
            assert entry["nnz_observed"] != entry["nnz_estimated"]
        assert report.totals["n_recompiles"] == engine.stats.n_recompiles
        engine.close()
