"""One split-and-combine path for fused operators.

The same generated operator runs two ways over four parts: intra-op
parallel (``intra_op_threads=4``) and through a ``SparkExecutor`` with
four partitions (``ClusterConfig(n_workers=2)``) on either task
backend.  Both cut the main input with ``skeletons.row_parts``, resolve
side inputs with ``skeletons.partition_values`` and combine with
``skeletons.combine_partials``, so the results are ``array_equal``.
Intra-op execution must never reach the distributed executor, its
``BlockedMatrix.partition`` or ``ops.rix``.  A part that spans several
driver chunks (``npexec.chunk_bounds``) cuts into the same chunks on
either path, so the bits still agree.

A CSR main cuts into views of its parent: every part shares the
parent's ``data`` and ``indices``, and no leg (intra-op, chunked,
spark, spark-mp) changes them.

Lowering decides an operator's part count once
(``parallel.intra_op_parts``, carried as ``Instruction.parts``): at
each boundary of that gate the runtime splits into exactly the carried
count and the cost model credits the same one, for a fused operator
and a CP matrix multiply alike.  A SPARK-typed operator carries one
part, since its partitions never nest another fan-out.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import api
from repro.codegen.cost import CostEstimator
from repro.codegen.cplan import OutType
from repro.codegen.template import TemplateType
from repro.compiler.execution import Engine
from repro.config import ClusterConfig, CodegenConfig
from repro.hops.hop import DataOp
from repro.hops.types import ExecType, OpKind
from repro.runtime import distributed, npexec, skeletons
from repro.runtime import ops as rops
from repro.runtime.distributed import BlockedMatrix, SparkExecutor
from repro.runtime.matrix import MatrixBlock
from repro.runtime.skeletons import execute_operator, partition_bounds, spoof_plans
from repro.runtime.stats import RuntimeStats

PARTS = 4  # intra_op_threads, and ClusterConfig(n_workers=2).n_partitions


def _handles(rows: int, cols: int) -> dict:
    """Named inputs: a dense main ``x``, a sparse Outer driver ``s``, a
    row-aligned column vector ``c`` (sliced per part), a row vector
    ``r`` and the factors ``u`` / ``v`` / ``w``."""
    rng = np.random.default_rng(rows * 1000 + cols)
    return {
        "x": api.matrix(rng.uniform(0.1, 1.0, (rows, cols)), "X"),
        "s": api.matrix(MatrixBlock.rand(rows, cols, sparsity=0.3,
                                         seed=rows, low=0.2, high=1.5), "S"),
        "c": api.matrix(rng.uniform(0.1, 1.0, (rows, 1)), "c"),
        "r": api.matrix(rng.uniform(0.1, 1.0, (1, cols)), "r"),
        "v": api.matrix(rng.uniform(0.1, 1.0, (cols, 1)), "v"),
        "w": api.matrix(rng.uniform(0.1, 1.0, (cols, 3)), "W"),
        "u": api.matrix(rng.uniform(0.1, 1.0, (rows, 2)), "U"),
        "f": api.matrix(rng.uniform(0.1, 1.0, (cols, 2)), "F"),
    }


WIDE = 240
CELL, MAGG = TemplateType.CELL, TemplateType.MAGG
ROW, OUTER = TemplateType.ROW, TemplateType.OUTER

#: name -> (template, out type, main-input columns, recipe).  The
#: optimizer picks Outer plans for drivers wider than tall, except
#: for the left-multiply, which wants a tall one.  On inputs this small
#: it picks them only when it enumerates (``always_enumerate``).
RECIPES = {
    "cell-no-agg": (CELL, OutType.NO_AGG, 12,
                    lambda h: [h["x"] * h["c"] + h["r"]]),
    "cell-row-agg": (CELL, OutType.ROW_AGG, 12,
                     lambda h: [(h["x"] * h["c"] + h["r"]).row_sums()]),
    "cell-col-agg": (CELL, OutType.COL_AGG, 12,
                     lambda h: [(h["x"] * h["c"] + h["r"]).col_maxs()]),
    "magg-full-agg": (MAGG, OutType.FULL_AGG, 12,
                      lambda h: [(h["x"] * h["c"] + h["r"]).sum()]),
    "magg-multi-agg": (MAGG, OutType.MULTI_AGG, 12,
                       lambda h: [(h["x"] * h["c"] + h["r"]).sum(),
                                  (h["x"] * h["c"]).max()]),
    "row-no-agg": (ROW, OutType.NO_AGG, 12,
                   lambda h: [api.sigmoid(h["x"] @ h["w"]) * h["c"]]),
    "row-row-agg": (ROW, OutType.ROW_AGG, 12,
                    lambda h: [(h["x"] * h["c"]) @ h["v"]]),
    "row-col-agg": (ROW, OutType.COL_AGG, 12,
                    lambda h: [(h["x"] * (h["x"] @ h["v"]) * h["c"])
                               .col_sums()]),
    "row-col-agg-t": (ROW, OutType.COL_AGG_T, 12,
                      lambda h: [h["x"].T @ ((h["x"] @ h["v"]) * h["c"])]),
    "row-full-agg": (ROW, OutType.FULL_AGG, 12,
                     lambda h: [((h["x"] @ h["v"]) * h["c"]).sum()]),
    "outer-no-agg": (OUTER, OutType.OUTER_NO_AGG, WIDE,
                     lambda h: [h["s"] * (h["u"] @ h["f"].T)]),
    "outer-left": (OUTER, OutType.OUTER_LEFT, 6,
                   lambda h: [((h["s"] != 0.0) * (h["u"] @ h["f"].T)).T
                              @ h["u"]]),
    "outer-right": (OUTER, OutType.OUTER_RIGHT, WIDE,
                    lambda h: [((h["s"] != 0.0) * (h["u"] @ h["f"].T))
                               @ h["f"]]),
    "outer-full-agg": (OUTER, OutType.OUTER_FULL_AGG, WIDE,
                       lambda h: [(h["s"] * api.log(h["u"] @ h["f"].T
                                                    + 1e-15)).sum()]),
}


def _compiled(recipe, rows: int, cols: int):
    """The recipe's one fused operator and its bound input values."""
    engine = Engine(mode="gen", config=CodegenConfig(intra_op_threads=1))
    program = engine.compile([e.hop for e in recipe(_handles(rows, cols))])
    (hop,) = [i.hop for i in program.instructions if i.opcode == "spoof"]
    values = [h.data if isinstance(h, DataOp) else h.value
              for h in hop.inputs]
    return hop, values


def _forbidden(*args, **kwargs):
    raise AssertionError("intra-op execution entered the distributed path")


def _array(value):
    if isinstance(value, BlockedMatrix):
        value = value.collect()
    return value.to_dense() if isinstance(value, MatrixBlock) else value


@pytest.mark.usefixtures("always_enumerate")
@pytest.mark.parametrize("backend", ["simulated", "multiprocess"])
@pytest.mark.parametrize("rows", [102, 2 * PARTS],
                         ids=["ragged-last-part", "rows-2k"])
@pytest.mark.parametrize("name", sorted(RECIPES))
def test_intra_op_and_distributed_parts_agree(monkeypatch, name, rows,
                                              backend):
    ttype, out_type, cols, recipe = RECIPES[name]
    hop, values = _compiled(recipe, rows, cols)
    cplan = hop.operator.cplan
    assert (cplan.ttype, cplan.out_type) == (ttype, out_type)
    modes = [mode for mode, _ in spoof_plans(cplan, values, rows)]
    assert {"main", "slice", "whole"} <= set(modes)
    bounds = partition_bounds(rows, PARTS)
    assert len(bounds) == PARTS
    assert (bounds[-1][1] - bounds[-1][0] < bounds[0][1] - bounds[0][0]) \
        == (rows % PARTS != 0)

    _assert_parts_agree(monkeypatch, hop, values, backend)


def _assert_parts_agree(monkeypatch, hop, values: list, backend: str):
    """The operator over ``PARTS`` intra-op parts, which never enter the
    distributed path, and over as many distributed partitions on
    ``backend``: ``array_equal``."""
    stats = RuntimeStats()
    with monkeypatch.context() as spy:
        spy.setattr(BlockedMatrix, "partition", classmethod(_forbidden))
        spy.setattr(rops, "rix", _forbidden)
        for attr, member in list(vars(SparkExecutor).items()):
            if callable(member) or isinstance(member, property):
                spy.setattr(SparkExecutor, attr, _forbidden)
        local = execute_operator(hop.operator, values, CodegenConfig(),
                                 stats, parts=PARTS)
    assert stats.n_intra_op_parallel == 1
    assert stats.n_intra_op_partitions == PARTS

    config = CodegenConfig(cluster=ClusterConfig(n_workers=2),
                           distributed_backend=backend, mp_workers=2)
    spark = SparkExecutor(config.cluster, config, RuntimeStats())
    assert spark.n_partitions == PARTS
    distributed = spark.execute_spoof(hop, values)
    assert np.array_equal(_array(local), _array(distributed))


def _deep(h):
    """A 9-array Cell body over ``x``: at 64 columns, 576 cells a row,
    so the shipped 2 MB chunk budget takes 455 rows."""
    z = h["x"] * h["c"] + 1.0
    return api.sigmoid(z) * (h["x"] - h["r"]) + api.abs_(z - 2.0) * 0.5


#: Dense mains of 4,000 x 64 whose 1,000-row parts each span three or
#: more chunks at the shipped budget.
CHUNKED_RECIPES = {
    "cell-row-agg": (CELL, OutType.ROW_AGG,
                     lambda h: [_deep(h).row_sums()]),
    "magg-multi-agg": (MAGG, OutType.MULTI_AGG,
                       lambda h: [_deep(h).sum(), (h["x"] * h["r"]).max()]),
    "row-col-agg": (ROW, OutType.COL_AGG,
                    lambda h: [(_deep(h) * api.sigmoid(h["x"] @ h["v"]))
                               .col_sums()]),
}


@pytest.mark.parametrize("backend", ["simulated", "multiprocess"])
@pytest.mark.parametrize("name", sorted(CHUNKED_RECIPES))
def test_parts_of_several_chunks_agree(monkeypatch, name, backend):
    """Driver chunks inside parts and partitions: every part cuts into
    the same chunks on either path, so the bits still agree."""
    from tests.runtime.test_kernel_tiers import _chunks_per_part

    ttype, out_type, recipe = CHUNKED_RECIPES[name]
    hop, values = _compiled(recipe, 4000, 64)
    cplan = hop.operator.cplan
    assert (cplan.ttype, cplan.out_type) == (ttype, out_type)
    assert min(_chunks_per_part(hop.operator, values, PARTS)) >= 3
    _assert_parts_agree(monkeypatch, hop, values, backend)


#: name -> (main-input columns, recipe) over the CSR main ``s``: every
#: template that takes one, sparse-safe or densified by its driver.
CSR_MAIN_RECIPES = {
    "cell-row-agg": (12, lambda h: [(h["s"] * h["c"]).row_sums()]),
    "cell-no-agg": (12, lambda h: [h["s"] * h["c"] * 2.0]),
    "cell-densified": (12, lambda h: [(api.exp(h["s"]) * h["c"])
                                      .row_sums()]),
    "magg-multi-agg": (12, lambda h: [(h["s"] * h["c"]).sum(),
                                      (h["s"] * h["s"]).sum()]),
    "row-no-agg": (12, lambda h: [api.sigmoid(h["s"] @ h["w"]) * h["c"]]),
    "row-col-agg-t": (12, lambda h: [h["s"].T @ ((h["s"] @ h["v"])
                                                 * h["c"])]),
    "row-densified": (12, lambda h: [(h["s"] * (h["s"] @ h["v"]) * h["c"])
                                     .col_sums()]),
    **{name: (cols, recipe)
       for name, (_, _, cols, recipe) in RECIPES.items()
       if name.startswith("outer")},
}


def _run_leg(leg: str, hop, values: list, monkeypatch):
    if leg == "chunked":
        monkeypatch.setattr(npexec, "_CHUNK_BYTES", 8 * 64)
    if leg in ("intra-op", "chunked"):
        return execute_operator(hop.operator, values, CodegenConfig(),
                                RuntimeStats(),
                                parts=PARTS if leg == "intra-op" else 1)
    config = CodegenConfig(
        cluster=ClusterConfig(n_workers=2), mp_workers=2,
        distributed_backend="multiprocess" if leg == "spark-mp"
        else "simulated",
    )
    spark = SparkExecutor(config.cluster, config, RuntimeStats())
    return spark.execute_spoof(hop, values)


@pytest.mark.usefixtures("always_enumerate")
@pytest.mark.parametrize("leg", ["intra-op", "chunked", "spark", "spark-mp"])
@pytest.mark.parametrize("name", sorted(CSR_MAIN_RECIPES))
def test_csr_main_parts_are_views_it_never_changes(monkeypatch, name, leg):
    """Every part of a CSR main shares its parent's arrays, and the
    run leaves them as they were.  Every fifth stored value is an
    explicit zero, which an ``eliminate_zeros`` on a part would drop
    from the parent."""
    cols, recipe = CSR_MAIN_RECIPES[name]
    hop, values = _compiled(recipe, 102, cols)
    main_index = hop.operator.cplan.main_index
    csr = values[main_index].to_csr().copy()
    csr.data[::5] = 0.0
    values[main_index] = MatrixBlock(csr)
    before = [csr.data.copy(), csr.indices.copy(), csr.indptr.copy()]

    cut: list = []

    def spy(block, bounds):
        parts = real(block, bounds)
        if block.is_sparse and block.to_csr().data is csr.data:
            cut.extend(parts)
        return parts

    real = skeletons.row_parts
    monkeypatch.setattr(skeletons, "row_parts", spy)
    monkeypatch.setattr(distributed, "row_parts", spy)
    _run_leg(leg, hop, values, monkeypatch)

    assert len(cut) >= 2
    for part in cut:
        part_csr = part.to_csr()
        if part_csr.nnz:
            assert np.shares_memory(part_csr.data, csr.data)
            assert np.shares_memory(part_csr.indices, csr.indices)
    after = [csr.data, csr.indices, csr.indptr]
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


@pytest.mark.usefixtures("always_enumerate", "parallel_tiny_ops")
def test_spark_typed_operator_carries_one_part():
    """The same operator on the ``spark`` leg: lowered SPARK-typed it
    carries one part, and its partitions still give the intra-op
    split's result."""
    _, _, cols, recipe = RECIPES["cell-row-agg"]
    config = CodegenConfig(intra_op_threads=PARTS,
                           cluster=ClusterConfig(n_workers=2),
                           local_mem_budget=1e3)
    engine = Engine(mode="gen", config=config)
    program = engine.compile([e.hop for e in recipe(_handles(102, cols))])
    (instr,) = [i for i in program.instructions if i.opcode == "spoof"]
    assert instr.hop.exec_type is ExecType.SPARK
    assert instr.parts == 1
    (distributed,) = engine.executor.run(program)
    assert engine.stats.n_intra_op_parallel == 0

    values = [h.data if isinstance(h, DataOp) else h.value
              for h in instr.hop.inputs]
    stats = RuntimeStats()
    local = execute_operator(instr.hop.operator, values, config, stats,
                             parts=PARTS)
    assert stats.n_intra_op_partitions == PARTS
    assert np.array_equal(_array(local), _array(distributed))


# ----------------------------------------------------------------------
# One intra-op gate, decided at lowering
# ----------------------------------------------------------------------
def _boundary_shapes():
    """(threads, rows, cols, threshold) at both sides of both gates:
    rows = 2n-1 / 2n, cells = threshold-1 / threshold."""
    for threads in (2, 3, 4):
        for rows in (2 * threads - 1, 2 * threads):
            for cols in (1, 5):
                for threshold in (rows * cols, rows * cols + 1):
                    yield threads, rows, cols, threshold


# The last column is the parallelism threshold, set through the fixture.
@pytest.mark.parametrize("threads, rows, cols, parallel_tiny_ops",
                         list(_boundary_shapes()),
                         indirect=["parallel_tiny_ops"])
def test_runtime_and_cost_model_share_the_gate(threads, rows, cols,
                                               parallel_tiny_ops):
    config = CodegenConfig(intra_op_threads=threads)
    x = api.matrix(np.random.default_rng(rows).uniform(0.1, 1.0,
                                                       (rows, cols)), "X")
    engine = Engine(mode="gen", config=config)
    program = engine.compile([(x * 2.0).sum().hop])
    (instr,) = [i for i in program.instructions if i.opcode == "spoof"]
    engine.executor.run(program)
    runtime_parts = max(1, engine.stats.n_intra_op_partitions)

    cost = CostEstimator(None, config, {})
    cv = SimpleNamespace(ttype=TemplateType.CELL, inputs={0: x.hop})
    assert instr.parts == runtime_parts == cost._intra_op_parallelism(cv)

    threshold = parallel_tiny_ops
    expected = (threads if rows >= 2 * threads and rows * cols >= threshold
                else 1)
    assert runtime_parts == expected

    # A CP matrix multiply splits its left input at the same gate.
    v = api.matrix(np.ones((cols, 1)), "v")
    engine = Engine(mode="base", config=config)
    program = engine.compile([(x @ v).hop])
    (instr,) = [i for i in program.instructions
                if i.hop.kind is OpKind.AGG_BINARY]
    engine.executor.run(program)
    runtime_parts = max(1, engine.stats.n_intra_op_partitions)
    cv = SimpleNamespace(ttype=None, output=instr.hop)
    assert instr.parts == runtime_parts == cost._intra_op_parallelism(cv)
    assert runtime_parts == expected
