"""Seeded IR mutants: every invariant violation yields a pointed finding.

Each mutant corrupts a healthy compile in exactly the way the verifier
exists to catch — an understated refcount (the eager-freeing executor
would read a freed slot), an overstated refcount (a leak the executor
would never free), a deleted collect boundary in a distributed program,
dims corrupted mid-DAG, a matmul whose input dims no longer chain
(its ``refresh_sizes`` raises) and a part count or parallel flag that
lowering did not decide — and the test asserts the finding names
the offending instruction or hop, not just "verification failed".
"""

import numpy as np
import pytest

from repro import api
from repro.analysis.verify import (
    check_dag,
    check_program,
    format_report,
    verify_dag,
    verify_program,
)
from repro.compiler.execution import Engine
from repro.compiler.program import lower_program
from repro.config import ClusterConfig, CodegenConfig
from repro.errors import VerificationError
from repro.hops.rewrites import apply_rewrites
from repro.hops.types import OpKind


def _lower(exprs, mode="base"):
    roots = apply_rewrites([e.hop for e in exprs])
    return lower_program(roots, mode)


def _shared_program(rng):
    """A program with one non-pinned intermediate read twice.

    ``t = X + 1`` feeds both roots, so t's slot has two declared
    consumers and is neither a constant nor a root — the only slot kind
    eager freeing ever drops.
    """
    x = api.matrix(rng.random((6, 6)), "X")
    t = x + 1.0
    return _lower([(t * 2.0).sum(), (t + 3.0).sum()])


def _shared_slot(program):
    """The slot read by two instructions (t's output)."""
    return next(
        slot for slot, count in enumerate(program.consumer_counts)
        if count == 2 and slot not in program.pinned
    )


class TestCleanPrograms:
    def test_healthy_program_verifies_clean(self, rng):
        program = _shared_program(rng)
        assert verify_program(program) == []

    def test_healthy_dag_verifies_clean(self, rng):
        x = api.matrix(rng.random((8, 4)), "X")
        roots = apply_rewrites([((x * 2.0) + x).sum().hop])
        assert verify_dag(roots) == []

    def test_format_report_clean(self):
        assert "clean" in format_report([])


class TestRefcountMutants:
    def test_overstated_refcount_names_producer(self, rng):
        program = _shared_program(rng)
        slot = _shared_slot(program)
        producer = next(
            i for i in program.instructions if i.output_slot == slot
        )
        program.consumer_counts[slot] += 1

        findings = verify_program(program)
        assert {f.code for f in findings} == {"refcount-mismatch"}
        assert any(f"[{producer.index}]" in f.subject for f in findings)
        assert any(f"slot {slot} declares 3" in f.message for f in findings)

    def test_understated_refcount_is_use_after_free(self, rng):
        program = _shared_program(rng)
        slot = _shared_slot(program)
        readers = [
            i for i in program.instructions if slot in i.input_slots
        ]
        program.consumer_counts[slot] -= 1

        findings = verify_program(program)
        codes = {f.code for f in findings}
        assert "use-after-free" in codes
        uaf = next(f for f in findings if f.code == "use-after-free")
        # The diagnostic names the *reading* instruction (the second
        # reader — eager freeing dropped the slot after the first).
        assert f"[{readers[1].index}]" in uaf.subject
        assert f"reads slot {slot}" in uaf.message


class TestCollectMutant:
    def _spark_program(self):
        # base mode keeps individual SPARK operators (gen would fuse the
        # whole expression into one scalar-producing multi-agg, leaving
        # nothing blocked to collect); the matrix root forces a collect.
        engine = Engine(
            mode="base",
            config=CodegenConfig(cluster=ClusterConfig(),
                                 local_mem_budget=1e4),
        )
        rng = np.random.default_rng(3)
        x = api.matrix(rng.random((60, 30)), "X")
        y = api.matrix(rng.random((60, 30)), "Y")
        return engine.compile([((x * y) + x).row_sums().hop])

    def test_deleted_collect_boundary_flagged(self):
        program = self._spark_program()
        assert program.distributed
        collect = next(
            i for i in program.instructions if i.opcode == "collect"
        )
        assert verify_program(program) == []

        # Mutate: drop the collect and rewire its readers straight to
        # the raw blocked slot, keeping everything else consistent.
        raw, collected = collect.input_slots[0], collect.output_slot
        program.instructions.remove(collect)
        for instr in program.instructions:
            instr.input_slots = [
                raw if s == collected else s for s in instr.input_slots
            ]
        program.root_slots = [
            raw if s == collected else s for s in program.root_slots
        ]
        for position, instr in enumerate(program.instructions):
            instr.index = position
        program.finalize()

        findings = verify_program(program)
        assert findings
        assert {f.code for f in findings} == {"missing-collect"}
        assert any(f"slot {raw}" in f.message for f in findings)


class TestParallelismMutant:
    def _program(self, rng):
        engine = Engine(mode="gen", config=CodegenConfig(intra_op_threads=4))
        x = api.matrix(rng.random((40, 8)), "X")
        return engine, engine.compile([(x * 2.0).sum().hop])

    @pytest.mark.usefixtures("parallel_tiny_ops")
    def test_tampered_parts_name_the_instruction(self, rng):
        engine, program = self._program(rng)
        (spoof,) = [i for i in program.instructions if i.opcode == "spoof"]
        assert spoof.parts == 4
        assert verify_program(program, config=engine.config) == []

        spoof.parts = 2  # would split differently from what was costed
        findings = verify_program(program, config=engine.config)
        assert [f.code for f in findings] == ["parallelism"]
        assert f"[{spoof.index}]" in findings[0].subject
        assert "parts 2 != 4" in findings[0].message
        with pytest.raises(VerificationError, match="parallelism"):
            check_program(program, engine.context, stage="mutant")

    @pytest.mark.usefixtures("parallel_tiny_ops")
    def test_tampered_matmult_parts_name_the_instruction(self, rng):
        engine = Engine(mode="base", config=CodegenConfig(intra_op_threads=4))
        x = api.matrix(rng.random((40, 8)), "X")
        v = api.matrix(rng.random((8, 1)), "v")
        program = engine.compile([(x @ v).hop])
        (matmult,) = [i for i in program.instructions
                      if i.hop.kind is OpKind.AGG_BINARY]
        assert matmult.parts == 4
        assert verify_program(program, config=engine.config) == []

        matmult.parts = 1  # would run on one core, costed on four
        findings = verify_program(program, config=engine.config)
        assert [f.code for f in findings] == ["parallelism"]
        assert f"[{matmult.index}]" in findings[0].subject
        assert "parts 1 != 4" in findings[0].message


class TestDimsMutant:
    def test_corrupted_dims_name_the_hop(self, rng):
        x = api.matrix(rng.random((8, 4)), "X")
        mid = x * 2.0
        root = (mid + x).sum()
        assert verify_dag([root.hop]) == []

        mid.hop.rows = 999  # a dims-inconsistent "rewrite"
        findings = verify_dag([root.hop])
        codes = {f.code for f in findings}
        assert "dims-mismatch" in codes
        dims = next(f for f in findings if f.code == "dims-mismatch")
        assert f"hop {mid.hop.id} " in dims.subject
        assert "999" in dims.message

    def test_illegal_matmul_names_the_hop(self, rng):
        engine = Engine(mode="base")
        x = api.matrix(rng.random((8, 4)), "X")
        side = api.matrix(rng.random((4, 3)), "V") * 2.0
        product = x @ side
        root = (product + 1.0).sum()
        assert verify_dag([root.hop]) == []

        # The matmul's input now claims 5 rows against X's 4 columns,
        # so re-deriving the product's dims raises a ShapeError.
        side.hop.rows = 5
        with pytest.raises(VerificationError, match="illegal-op") as info:
            check_dag([root.hop], engine.context, stage="mutant")
        assert f"hop {product.hop.id} " in str(info.value)
        assert "refresh_sizes failed: matmult" in str(info.value)
        assert engine.stats.n_verifier_findings >= 1


class TestPipelineIntegration:
    def test_check_program_raises_and_counts(self, rng):
        engine = Engine(mode="base")
        program = _shared_program(rng)
        program.consumer_counts[_shared_slot(program)] += 1
        with pytest.raises(VerificationError, match="refcount-mismatch"):
            check_program(program, engine.context, stage="mutant")
        assert engine.stats.n_verifier_findings >= 1

    def test_full_verify_level_accepts_healthy_compiles(self, rng):
        engine = Engine(
            mode="gen", config=CodegenConfig(verify_level="full")
        )
        x = api.matrix(rng.random((20, 8)), "X")
        out = engine.execute([api.sigmoid(x * 3.0).sum().hop])
        assert np.isfinite(out[0])
        assert engine.stats.n_verified_programs == 1
        assert engine.stats.n_verifier_findings == 0
