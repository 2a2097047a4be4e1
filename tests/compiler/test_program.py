"""Program lowering: slots, instruction order, refcounts, fused matching."""

import numpy as np
import pytest

from repro import api
from repro.compiler.program import lower_program
from repro.hops.rewrites import apply_rewrites
from tests.conftest import make_engine


def _lower(exprs, mode="base"):
    roots = apply_rewrites([e.hop for e in exprs])
    return lower_program(roots, mode)


class TestLoweringStructure:
    def test_constants_are_not_instructions(self, rng):
        x = api.matrix(rng.random((5, 5)), "X")
        program = _lower([(x * 2.0).sum()])
        # X and the literal 2.0 preload into slots; b(*) and ua(+) are
        # the only scheduled instructions.
        assert len(program.constants) == 2
        assert program.n_instructions == 2
        assert program.n_slots == 4

    def test_topological_instruction_order(self, rng):
        x = api.matrix(rng.random((6, 6)), "X")
        y = api.matrix(rng.random((6, 6)), "Y")
        program = _lower([((x * y) + x).row_sums(), (x * y).sum()])
        produced = set(slot for slot, _ in program.constants)
        for instr in program.instructions:
            assert all(slot in produced for slot in instr.input_slots)
            produced.add(instr.output_slot)

    def test_shared_subexpression_lowered_once(self, rng):
        x = api.matrix(rng.random((8, 8)), "X")
        shared = x * 2.0
        program = _lower([shared.sum(), (shared + 1.0).sum()])
        multiplies = [
            i for i in program.instructions if i.hop.opcode() == "b(*)"
        ]
        assert len(multiplies) == 1

    def test_root_slots_pinned(self, rng):
        x = api.matrix(rng.random((4, 4)), "X")
        program = _lower([x.sum(), (x + 1.0).sum()])
        assert len(program.root_slots) == 2
        assert set(program.root_slots) <= program.pinned

    def test_duplicate_roots_share_slot(self, rng):
        x = api.matrix(rng.random((4, 4)), "X")
        e = x.sum()
        program = _lower([e, e])
        assert program.root_slots[0] == program.root_slots[1]

    def test_data_root_is_constant_slot(self, rng):
        x = api.matrix(rng.random((4, 4)), "X")
        program = _lower([x])
        assert program.n_instructions == 0
        assert program.root_slots[0] in {s for s, _ in program.constants}

    def test_consumer_counts(self, rng):
        x = api.matrix(rng.random((6, 6)), "X")
        shared = x * 2.0
        program = _lower([(shared + shared).sum()])
        mult = next(
            i for i in program.instructions if i.hop.opcode() == "b(*)"
        )
        # shared feeds both operands of the add.
        assert program.consumer_counts[mult.output_slot] == 2


class TestFusedLowering:
    def test_sumprod_lowered_to_single_fused_instruction(self, rng):
        x = api.matrix(rng.random((20, 10)), "X")
        y = api.matrix(rng.random((20, 10)), "Y")
        program = _lower([(x * y).sum()], mode="fused")
        assert program.n_instructions == 1
        instr = program.instructions[0]
        assert instr.opcode == "fused"
        assert instr.fused_match.name == "sumprod"

    def test_mmchain_lowered(self, rng):
        x = api.matrix(rng.random((30, 8)), "X")
        v = api.matrix(rng.random((8, 1)), "v")
        program = _lower([x.T @ (x @ v)], mode="fused")
        names = [
            i.fused_match.name for i in program.instructions
            if i.opcode == "fused"
        ]
        assert names == ["mmchain"]

    def test_covered_intermediate_not_lowered_unless_demanded(self, rng):
        x = api.matrix(rng.random((20, 10)), "X")
        y = api.matrix(rng.random((20, 10)), "Y")
        # x*y is covered by sumprod and has no other consumer.
        program = _lower([(x * y).sum()], mode="fused")
        assert all(i.hop.opcode() != "b(*)" for i in program.instructions)
        # With a second consumer the intermediate is materialized too.
        prod = x * y
        program2 = _lower([prod.sum(), prod.row_sums()], mode="fused")
        assert any(i.hop.opcode() == "b(*)" for i in program2.instructions)

    def test_fused_results_match_base(self, rng):
        xd, yd = rng.random((25, 12)), rng.random((25, 12))

        def build():
            x, y = api.matrix(xd, "X"), api.matrix(yd, "Y")
            return [(x * y).sum(), x.T @ (x @ api.matrix(yd[:12, :1], "v"))]

        base = api.eval_all(build(), engine=make_engine("base"))
        fused = api.eval_all(build(), engine=make_engine("fused"))
        assert base[0] == pytest.approx(fused[0])
        np.testing.assert_allclose(
            base[1].to_dense(), fused[1].to_dense(), rtol=1e-10
        )


class TestGenLowering:
    def test_spoof_instructions_present(self, rng):
        engine = make_engine("gen")
        x = api.matrix(rng.random((40, 20)), "X")
        y = api.matrix(rng.random((40, 20)), "Y")
        program = engine.compile([((x * y) * 2.0).sum().hop])
        opcodes = {i.opcode for i in program.instructions}
        assert "spoof" in opcodes

    def test_multi_agg_spoof_out(self, rng):
        engine = make_engine("gen")
        x = api.matrix(rng.random((40, 20)), "X")
        y = api.matrix(rng.random((40, 20)), "Y")
        z = api.matrix(rng.random((40, 20)), "Z")
        roots = [(x * y).sum().hop, (x * z).sum().hop]
        program = engine.compile(roots)
        opcodes = [i.opcode for i in program.instructions]
        if "spoof_out" in opcodes:
            outs = [i for i in program.instructions if i.opcode == "spoof_out"]
            assert len(outs) == 2
