"""The one generated source per operator, and the CPlan analyses the
drivers read instead of generated text (npgen)."""

import numpy as np
import pytest

from repro import api
from repro.codegen.construct import construct_cplan
from repro.codegen.npgen import (
    compile_kernel,
    csr_safe_inputs,
    einsum_operands,
    generate_kernel_source,
)
from repro.codegen.pygen import generate_source, operator_name
from repro.codegen.template import TemplateType
from repro.config import CodegenConfig
from repro.runtime import npexec
from repro.runtime.matrix import MatrixBlock
from repro.runtime.stats import RuntimeStats
from tests.codegen.test_construct_pygen import _select_plan


def _cplan(exprs, want_type=None):
    plan, config = _select_plan(exprs, want_type)
    return construct_cplan(plan, config)[0]


def _blocks(*arrays):
    """Driver inputs: ``cplan.inputs`` holds the matrices in the order
    the expression names them."""
    return [MatrixBlock(arr) for arr in arrays]


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestKernelEmission:
    def test_cell_kernel_emits_and_names_deterministically(self, rng):
        x = api.matrix(rng.random((30, 10)), "X")
        y = api.matrix(rng.random((30, 10)), "Y")
        cplan = _cplan([(x * y).sum()])
        name1, source1, _, _ = generate_kernel_source(cplan)
        name2, source2, _, _ = generate_kernel_source(cplan)
        assert name1 == name2 == operator_name(cplan)
        assert source1 == source2
        assert source1.count("def ") == 1
        assert "def genbody(a, b, s):" in source1

    def test_cell_sum_of_products_uses_einsum(self, rng):
        x = api.matrix(rng.random((30, 10)), "X")
        y = api.matrix(rng.random((30, 10)), "Y")
        z = api.matrix(rng.random((30, 10)), "Z")
        cplan = _cplan([(x * y * z).sum()])
        (operands,) = einsum_operands(cplan)
        assert sorted(operands) == [0, 1, 2]  # a, b[0], b[1]
        _, source, _, _ = generate_kernel_source(cplan)
        assert "einsum" not in source

    def test_einsum_kernel_matches_plain_sum(self, rng):
        xd, yd, zd = (rng.random((64, 12)) for _ in range(3))
        x, y, z = (api.matrix(d, n) for d, n in
                   [(xd, "X"), (yd, "Y"), (zd, "Z")])
        cplan = _cplan([(x * y * z).sum()])
        operator = compile_kernel(cplan, CodegenConfig())
        result = npexec.execute_kernel(operator, _blocks(xd, yd, zd))
        # ``(a, *b)``: the main first, then the sides in spec order.
        main = cplan.main_index
        args = [[xd, yd, zd][main]] + [d for i, d in enumerate([xd, yd, zd])
                                       if i != main]
        (operands,) = operator.einsum
        expected = np.einsum("ij,ij,ij->", *(args[i] for i in operands))
        assert result == float(expected)
        np.testing.assert_allclose(result, float(np.sum(xd * yd * zd)),
                                   rtol=1e-12)

    def test_mixed_shape_product_keeps_generic_body(self, rng):
        # A column-vector factor cannot join a whole-array einsum
        # contraction (einsum does not broadcast).
        x = api.matrix(rng.random((30, 10)), "X")
        c = api.matrix(rng.random((30, 1)), "c")
        cplan = _cplan([(x * c).sum()])
        assert einsum_operands(cplan) == (None,)

    def test_row_kernel_csr_main_safe_for_matmul_chain(self, rng):
        x = api.matrix(rng.random((50, 8)), "X")
        v = api.matrix(rng.random((8, 1)), "v")
        cplan = _cplan([x.T @ (x @ v)], TemplateType.ROW)
        _, _, csr_main_safe, _ = generate_kernel_source(cplan)
        assert csr_main_safe
        assert compile_kernel(cplan, CodegenConfig()).csr_main_safe

    def test_row_kernel_not_csr_safe_with_elementwise_main(self, rng):
        # The main input feeds an element-wise multiply, so the kernel
        # cannot run on a CSR main directly.
        x = api.matrix(rng.random((50, 8)), "X")
        v = api.matrix(rng.random((8, 1)), "v")
        cplan = _cplan([(x * api.sigmoid(x @ v)).row_sums()],
                       TemplateType.ROW)
        _, _, csr_main_safe, _ = generate_kernel_source(cplan)
        assert not csr_main_safe

    def test_row_side_left_multiplied_only_stays_csr(self, rng):
        """ALS-CG's gradient: ``A @ F - X @ F`` reads the side ``X``
        only as the left operand of a matrix multiply."""
        a = api.matrix(rng.random((50, 8)), "A")
        x = api.matrix(rng.random((50, 8)), "X")
        f = api.matrix(rng.random((8, 3)), "F")
        cplan = _cplan([a @ f - x @ f], TemplateType.ROW)
        sides = [idx for idx in csr_safe_inputs(cplan)
                 if idx != cplan.main_index]
        assert len(sides) == 1 and cplan.main_index in csr_safe_inputs(cplan)
        _, _, _, csr_sides = generate_kernel_source(cplan)
        assert csr_sides == (1,)
        operator = compile_kernel(cplan, CodegenConfig(verify_level="full"))
        assert operator.csr_sides == (1,)

    def test_row_side_read_cellwise_is_densified(self, rng):
        a = api.matrix(rng.random((50, 8)), "A")
        x = api.matrix(rng.random((50, 8)), "X")
        f = api.matrix(rng.random((8, 3)), "F")
        cplan = _cplan([(a @ f - x @ f) * x.row_sums()], TemplateType.ROW)
        assert csr_safe_inputs(cplan) <= {cplan.main_index}
        _, _, _, csr_sides = generate_kernel_source(cplan)
        assert csr_sides == ()


class TestKernelCompilation:
    def test_every_kernel_build_compiles(self, rng):
        """``compile_kernel`` has no cache of its own: the plan cache is
        the one place operators are reused."""
        x = api.matrix(rng.random((30, 10)), "X")
        y = api.matrix(rng.random((30, 10)), "Y")
        cplan = _cplan([api.sqrt(api.abs_(x - y)).row_sums()])
        stats = RuntimeStats()
        first = compile_kernel(cplan, CodegenConfig(), stats=stats)
        second = compile_kernel(cplan, CodegenConfig(), stats=stats)
        assert first.source == second.source
        assert first.genbody is not second.genbody
        assert stats.n_kernel_compiles == 2
        assert stats.n_source_cache_hits == 0

    def test_kernel_source_is_the_generated_source(self, rng):
        x = api.matrix(rng.random((30, 10)), "X")
        y = api.matrix(rng.random((30, 10)), "Y")
        cplan = _cplan([(x * y).sum()])
        name, source = generate_source(cplan)
        assert generate_kernel_source(cplan)[:2] == (name, source)
        operator = compile_kernel(cplan, CodegenConfig())
        assert (operator.name, operator.source) == (name, source)


class TestMatrixBlockHelpers:
    def test_kernel_output_round_trips_matrix_block(self, rng):
        # The NO_AGG driver returns a contiguous block.
        x = api.matrix(rng.random((20, 6)), "X")
        y = api.matrix(rng.random((20, 6)), "Y")
        cplan = _cplan([x * y * 2.0])
        operator = compile_kernel(cplan, CodegenConfig())
        xd = rng.random((20, 6))
        yd = rng.random((20, 6))
        block = npexec.execute_kernel(operator, _blocks(xd, yd))
        np.testing.assert_array_equal(block.to_dense(), xd * yd * 2.0)
