"""Generated-kernel lint: real sources pass, contract violations fail."""

import numpy as np
import pytest

from repro import api
from repro.analysis.kernel_lint import check_source, lint_source
from repro.codegen.plan_cache import compile_source
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.errors import CodegenError, KernelLintError
from repro.runtime.stats import RuntimeStats

CLEAN = """\
import numpy as np
from repro.runtime import vector as vp

def genbody(a, b, s):
    t0 = np.abs(a)
    t1 = t0 * s[0]
    return float(t1.sum())
"""


def _codes(findings):
    return {f.rule for f in findings}


class TestCleanSources:
    def test_handwritten_template_shape_passes(self):
        assert lint_source("ok", CLEAN) == []

    def test_real_engine_kernels_pass_lint(self):
        """Every source the gen engine emits under full verification."""
        engine = Engine(
            mode="gen", config=CodegenConfig(verify_level="full")
        )
        rng = np.random.default_rng(11)
        x = api.matrix(rng.random((40, 12)), "X")
        v = api.matrix(rng.random((12, 1)), "v")
        roots = [
            api.exp(x * 0.5).sum().hop,
            (x.T @ (x @ v)).hop,
            api.sigmoid(x + 1.0).row_sums().hop,
        ]
        for root in roots:
            engine.execute([root])
        assert engine.stats.n_lint_rejects == 0
        assert engine.plan_cache.size > 0


class TestLintAtEveryLevel:
    """The plan cache is process-wide, so an operator one engine built
    runs in every other: the lint cannot depend on ``verify_level``."""

    def _roots(self):
        rng = np.random.default_rng(5)
        x = api.matrix(rng.random((40, 12)), "X")
        v = api.matrix(rng.random((12, 1)), "v")
        return [api.exp(x * 0.5).sum().hop, (x.T @ (x @ v)).hop]

    def test_operator_built_unverified_was_linted(self, monkeypatch):
        from repro.codegen import npgen

        linted = []

        def counting(name, source, **kwargs):
            linted.append(name)
            return check_source(name, source, **kwargs)

        monkeypatch.setattr(npgen, "check_source", counting)
        off = Engine(mode="gen", config=CodegenConfig(verify_level="off"))
        off.execute(self._roots())
        built = off.stats.n_classes_compiled
        assert built > 0 and len(linted) == built
        assert sorted(linted) == sorted(
            op.name for op in off.plan_cache._cache.values())

        checked = Engine(mode="gen",
                         config=CodegenConfig(verify_level="boundaries"))
        checked.execute(self._roots())
        assert checked.stats.n_classes_compiled == 0
        assert checked.stats.plan_cache_hits == built
        assert len(linted) == built  # reused, not linted or built again
        assert checked.stats.n_verified_programs == 1

    def test_lint_rejects_at_verify_level_off(self, monkeypatch):
        from repro.codegen import npgen

        generate = npgen.generate_kernel_source

        def hostile(cplan):
            name, source, *csr = generate(cplan)
            return (name, "import os\n" + source, *csr)

        monkeypatch.setattr(npgen, "generate_kernel_source", hostile)
        engine = Engine(mode="gen", config=CodegenConfig(verify_level="off"))
        with pytest.raises(KernelLintError):
            engine.execute(self._roots())
        assert engine.stats.n_lint_rejects == 1
        assert engine.stats.n_kernel_compiles == 0
        assert engine.plan_cache.size == 0


class TestViolations:
    def test_disallowed_import(self):
        assert _codes(lint_source("bad", "import os\n" + CLEAN)) == {"import"}
        assert _codes(
            lint_source("bad", "from os import path\n" + CLEAN)
        ) == {"import"}

    def test_forbidden_builtin(self):
        src = CLEAN.replace("return float(t1.sum())",
                            "open('x')\n    return float(t1.sum())")
        assert "forbidden-call" in _codes(lint_source("bad", src))

    def test_nondeterminism(self):
        src = CLEAN.replace("np.abs(a)", "np.random.rand(3, 3)")
        assert "nondeterminism" in _codes(lint_source("bad", src))

    def test_unknown_name(self):
        src = CLEAN.replace("np.abs(a)", "mystery(a)")
        assert _codes(lint_source("bad", src)) == {"unknown-name"}

    def test_loop_in_vectorized_tier(self):
        src = CLEAN + "\ndef loop(n):\n    for i in range(n):\n        pass\n"
        assert _codes(lint_source("bad", src)) == {
            "python-loop"
        }

    def test_densification_in_csr_safe_kernel(self):
        src = CLEAN.replace("np.abs(a)", "a.toarray()")
        assert _codes(
            lint_source("bad", src, csr_main_safe=True)
        ) == {"densification"}
        # The same access is legal in a kernel not claiming CSR safety.
        assert lint_source("ok", src, csr_main_safe=False) == []

    def test_densifying_call_on_main_input(self):
        src = CLEAN.replace("np.abs(a)", "np.asarray(a, dtype=np.float64)")
        assert _codes(
            lint_source("bad", src, csr_main_safe=True)
        ) == {"densification"}

    def test_densification_of_a_csr_side_input(self):
        """A Row kernel that takes ``b[1]`` as CSR may multiply it and
        nothing else; ``b[0]`` (a dense side) is nobody's business."""
        src = CLEAN.replace("np.abs(a)", "np.asarray(b[1]) @ b[0]")
        assert _codes(lint_source("bad", src, csr_sides=(1,))) == {
            "densification"
        }
        src = CLEAN.replace("np.abs(a)", "b[1].todense() @ b[0]")
        assert _codes(lint_source("bad", src, csr_sides=(1,))) == {
            "densification"
        }
        clean = CLEAN.replace("np.abs(a)", "b[1] @ np.asarray(b[0])")
        assert lint_source("ok", clean, csr_sides=(1,)) == []
        assert lint_source("ok", src) == []  # no CSR input claimed

    def test_syntax_error(self):
        assert _codes(lint_source("bad", "def genbody(:\n")) == {"syntax"}

    def test_check_source_raises_and_counts(self):
        stats = RuntimeStats()
        with pytest.raises(KernelLintError, match="import"):
            check_source("bad", "import os\n" + CLEAN, stats=stats)
        assert stats.n_lint_rejects == 1


class TestRestrictedExecNamespace:
    def test_disallowed_import_blocked_at_exec_time(self):
        with pytest.raises(CodegenError, match="may not import 'os'"):
            compile_source("evil_import", "import os\n")

    def test_allowed_surface_still_imports(self):
        namespace = compile_source(
            "good_import",
            "import numpy as np\nVALUE = float(np.float64(2.0))\n",
        )
        assert namespace["VALUE"] == 2.0

    def test_builtins_surface_is_allowlisted(self):
        namespace = compile_source(
            "late_open", "def f():\n    return open('x')\n"
        )
        with pytest.raises(NameError):
            namespace["f"]()
