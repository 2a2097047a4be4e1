"""Generated-operator drivers: differential grid against the base engine.

Template x out-type x main-storage grid asserting that the generated
operators reproduce ``Engine(mode="base")`` — unfused ``runtime/ops.py``
kernels, which share no code with the generated bodies or their
drivers — plus the Row driver's chunked densification of CSR mains,
the Cell and Outer drivers over inputs larger than one chunk, dense
Cell, MAgg and Row mains in chunks at the shipped budget on every leg,
failure propagation out of generated code on every backend, and kernel
sharing through the plan cache and serving specializations.
"""

from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.codegen import optimizer as optimizer_mod
from repro.codegen.plan_cache import compile_source
from repro.compiler.execution import Engine
from repro.config import ClusterConfig, CodegenConfig
from repro.errors import RuntimeExecError
from repro.runtime import npexec
from repro.runtime.compressed import compress
from repro.runtime.matrix import MatrixBlock
from repro.runtime.stats import RuntimeStats

ROWS, COLS = 96, 24

#: Tolerance where a driver reassociates an aggregation
#: (whole-array einsum/sum vs the base engine's per-operator sums).
RTOL = 1e-9


def _engine(mode: str = "gen", **kwargs) -> Engine:
    return Engine(mode=mode, config=CodegenConfig(intra_op_threads=1,
                                                  **kwargs))


def _storages(*names):
    # The "-vectorized" suffix dates from a second (tile-loop) operator
    # backend; it stays so the test ids do.
    return [pytest.param(name, id=f"{name}-vectorized") for name in names]


def _as_arrays(values):
    return [
        v.to_dense() if isinstance(v, MatrixBlock) else np.float64(v)
        for v in values
    ]


def _main_block(storage: str) -> object:
    rng = np.random.default_rng(23)
    if storage == "dense":
        return MatrixBlock(rng.uniform(0.1, 1.0, (ROWS, COLS)))
    if storage == "sparse":
        return MatrixBlock.rand(
            ROWS, COLS, sparsity=0.15, seed=23, low=0.2, high=1.5
        )
    return compress(MatrixBlock(np.round(rng.uniform(0, 3, (ROWS, COLS)))))


# ----------------------------------------------------------------------
# Differential grid: template × out-type × storage, oracle = base engine
# ----------------------------------------------------------------------
_CELL_RECIPES = {
    "no_agg": lambda x, y: [x * y * 2.0],
    "row_agg": lambda x, y: [(x * y).row_sums()],
    "col_agg": lambda x, y: [(x * y).col_sums()],
    "full_agg": lambda x, y: [(x * y).sum()],
    "multi_agg": lambda x, y: [(x * y).sum(), (x * x).sum()],
    "full_agg_selfmul": lambda x, y: [(x * x).sum()],
}

_ROW_RECIPES = {
    "no_agg": lambda x, v: [api.sigmoid(x @ v)],
    "col_agg_t": lambda x, v: [x.T @ (x @ v)],
    "full_agg": lambda x, v: [(x @ v).sum()],
}

_OUTER_RECIPES = {
    "outer_no_agg": lambda s, u, v: [s * (u @ v.T)],
    "outer_left": lambda s, u, v: [((s != 0.0) * (u @ v.T)).T @ u],
    "outer_right": lambda s, u, v: [((s != 0.0) * (u @ v.T)) @ v],
    "outer_full_agg": lambda s, u, v: [
        (s * api.log(u @ v.T + 1e-15)).sum()
    ],
}


@pytest.mark.parametrize("storage", _storages("dense", "sparse", "compressed"))
@pytest.mark.parametrize("out_type", sorted(_CELL_RECIPES))
def test_cell_grid_compiled_matches_interpreted(out_type, storage):
    main = _main_block(storage)
    side = np.random.default_rng(5).uniform(0.5, 1.5, (ROWS, COLS))

    def build():
        x = api.matrix(main, "X")
        y = api.matrix(side, "Y")
        return _CELL_RECIPES[out_type](x, y)

    oracle = _as_arrays(api.eval_all(build(), engine=_engine("base")))
    engine = _engine()
    compiled = _as_arrays(api.eval_all(build(), engine=engine))
    for expected, actual in zip(oracle, compiled):
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=1e-12)
    assert engine.stats.n_compiled_runs >= 1


@pytest.mark.parametrize("storage", _storages("dense", "sparse", "compressed"))
@pytest.mark.parametrize("out_type", sorted(_ROW_RECIPES))
def test_row_grid_compiled_matches_interpreted(out_type, storage):
    main = _main_block(storage)
    vec = np.random.default_rng(6).uniform(0.1, 1.0, (COLS, 1))

    def build():
        x = api.matrix(main, "X")
        v = api.matrix(vec, "v")
        return _ROW_RECIPES[out_type](x, v)

    oracle = _as_arrays(api.eval_all(build(), engine=_engine("base")))
    compiled = _as_arrays(api.eval_all(build(), engine=_engine()))
    for expected, actual in zip(oracle, compiled):
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=1e-12)


@pytest.mark.parametrize("storage", _storages("sparse", "dense"))
@pytest.mark.parametrize("out_type", sorted(_OUTER_RECIPES))
def test_outer_grid_compiled_matches_interpreted(out_type, storage):
    rng = np.random.default_rng(9)
    if storage == "sparse":
        driver = MatrixBlock.rand(120, 100, sparsity=0.08, seed=31)
    else:
        driver = MatrixBlock(rng.uniform(0.1, 1.0, (120, 100)))
    u = rng.uniform(0.1, 1.0, (120, 4))
    v = rng.uniform(0.1, 1.0, (100, 4))

    def build():
        s = api.matrix(driver, "S")
        um, vm = api.matrix(u, "U"), api.matrix(v, "V")
        return _OUTER_RECIPES[out_type](s, um, vm)

    oracle = _as_arrays(api.eval_all(build(), engine=_engine("base")))
    compiled = _as_arrays(api.eval_all(build(), engine=_engine()))
    for expected, actual in zip(oracle, compiled):
        np.testing.assert_allclose(actual, expected, rtol=1e-8, atol=1e-11)


@pytest.mark.usefixtures("always_enumerate")
@pytest.mark.parametrize("recipe", ["full_agg", "multi_agg"])
def test_compressed_cell_kernel_runs_dictionary_direct(recipe):
    """Parity for the compressed Cell path: an eligible
    (sparse-safe, side-free, sum-aggregated) plan over a compressed
    main must run over the dictionaries — no decompression."""
    main = _main_block("compressed")

    def build():
        x = api.matrix(main, "X")
        if recipe == "full_agg":
            return [((x * x) * 2.0).sum()]
        return [(x * x).sum(), ((x * x) * (x * 3.0)).sum()]

    oracle = _as_arrays(api.eval_all(build(), engine=_engine("base")))
    engine = _engine()
    compiled = _as_arrays(api.eval_all(build(), engine=engine))
    for expected, actual in zip(oracle, compiled):
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=1e-12)
    assert engine.stats.n_compiled_runs >= 1
    assert engine.stats.n_compressed_ops >= 1
    assert engine.stats.n_decompressions == 0


def test_compressed_cell_kernel_source_emitted():
    """Eligible plans run their one loop-free ``genbody`` over each
    column's distinct values; the driver dots the result with the
    counts."""
    from repro.codegen.npgen import compile_kernel
    from repro.codegen.cplan import compressed_cell_eligible
    from repro.codegen.construct import construct_cplan
    from tests.codegen.test_construct_pygen import _select_plan

    x = api.matrix(np.ones((32, 8)), "X")
    plan, plan_config = _select_plan([(x * x).sum()])
    cplan = construct_cplan(plan, plan_config)[0]
    assert compressed_cell_eligible(cplan)
    operator = compile_kernel(cplan, CodegenConfig())
    assert operator.source.count("def ") == 1
    assert "def genbody(a, b, s):" in operator.source
    # Distinct values 0, 1, 3 with counts 5, 2, 1: 5*0 + 2*1 + 1*9.
    column = np.array([[0.0] * 5 + [1.0] * 2 + [3.0]]).T
    assert npexec.execute_kernel(operator, [compress(MatrixBlock(column))]) == 11.0


def test_einsum_roots_call_the_body_at_most_once(monkeypatch):
    """A dense MULTI_AGG operator contracts its einsum roots without the
    body and calls ``genbody`` once for the rest, or not at all."""
    import dataclasses

    from repro.codegen import plan_cache

    rng = np.random.default_rng(19)
    xd, yd = rng.random((40, 6)), rng.random((40, 6))

    def run(exprs):
        # An empty plan cache per run, so it holds this run's operator.
        monkeypatch.setattr(plan_cache, "PLAN_CACHE", plan_cache.PlanCache())
        engine = _engine()
        expected = api.eval_all(exprs, engine=engine)
        (operator,) = engine.plan_cache._cache.values()
        calls = []

        def counting(*args):
            calls.append(args)
            return operator.genbody(*args)

        counted = dataclasses.replace(operator, genbody=counting)
        block = npexec.execute_kernel(counted, [MatrixBlock(xd),
                                                MatrixBlock(yd)])
        assert block.to_dense().ravel().tolist() == expected
        return operator.einsum, len(calls)

    x, y = api.matrix(xd, "X"), api.matrix(yd, "Y")
    einsum, calls = run([(x * y).sum(), (x * x).sum()])
    assert None not in einsum and calls == 0
    einsum, calls = run([(x * y).sum(), api.exp(x).sum()])
    assert einsum[1] is None and calls == 1


def test_elementwise_kernels_bit_identical():
    """Order-preserving kernels reproduce the oracle exactly."""
    rng = np.random.default_rng(77)
    xd = rng.uniform(-1.0, 1.0, (200, 40))
    yd = rng.uniform(-1.0, 1.0, (200, 40))

    def build():
        x, y = api.matrix(xd, "X"), api.matrix(yd, "Y")
        return [api.abs_(x * y) + x, (x * y).row_sums()]

    oracle = _as_arrays(api.eval_all(build(), engine=_engine("base")))
    compiled = _as_arrays(api.eval_all(build(), engine=_engine()))
    for expected, actual in zip(oracle, compiled):
        assert np.array_equal(actual, expected)


@pytest.mark.usefixtures("parallel_tiny_ops")
def test_kernels_compose_with_intra_op_parallelism():
    """Partition-wise execution agrees with one-partition execution."""
    data = np.random.default_rng(41).uniform(0.1, 1.0, (256, 32))

    def build():
        x = api.matrix(data, "X")
        return [(x * x).sum(), api.sigmoid(x) * 2.0]

    serial = _as_arrays(api.eval_all(build(), engine=_engine()))
    engine = Engine(mode="gen", config=CodegenConfig(intra_op_threads=4))
    parallel = _as_arrays(api.eval_all(build(), engine=engine))
    for expected, actual in zip(serial, parallel):
        np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-12)
    stats = engine.stats
    assert stats.n_intra_op_parallel >= 1
    assert stats.n_compiled_runs >= 1


# ----------------------------------------------------------------------
# Row over a CSR main whose body reads the main's cells
# ----------------------------------------------------------------------
_EXECUTION_CONFIGS = {
    "serial": dict(intra_op_threads=1),
    "intra-op-2": dict(intra_op_threads=2),
    "spark": dict(cluster=ClusterConfig(n_workers=2), local_mem_budget=1e4),
    "spark-mp": dict(cluster=ClusterConfig(n_workers=2),
                     local_mem_budget=1e4,
                     distributed_backend="multiprocess", mp_workers=2),
}


def _execution_engine(execution: str, request) -> Engine:
    """A gen engine for one leg; the intra-op leg splits these small
    inputs only under the ``parallel_tiny_ops`` fixture."""
    if execution == "intra-op-2":
        request.getfixturevalue("parallel_tiny_ops")
    return Engine(mode="gen",
                  config=CodegenConfig(**_EXECUTION_CONFIGS[execution]))


_SPARSE_ROW_RECIPES = {
    "no_agg": lambda x, v: [x * api.sigmoid(x @ v)],
    "row_agg": lambda x, v: [(x * api.sigmoid(x @ v)).row_sums()],
    "col_agg": lambda x, v: [(x * api.sigmoid(x @ v)).col_sums()],
    "col_agg_t": lambda x, v: [x.T @ (api.sigmoid(x @ v) * x.row_sums())],
    "full_agg": lambda x, v: [(x * api.sigmoid(x @ v)).sum()],
}


@pytest.mark.parametrize("execution", ["serial", "intra-op-2", "spark"])
@pytest.mark.parametrize("out_type", sorted(_SPARSE_ROW_RECIPES))
def test_sparse_row_densifies_in_chunks(out_type, execution, monkeypatch,
                                        request):
    """The element-wise use of the main rules out running on the CSR:
    the Row driver densifies row chunks and combines their results."""
    rows, cols, chunk_rows = 200, 24, 17
    # 200 rows, 100 per intra-op partition, 50 per spark partition.  A
    # budget of 17 rows of 24 cells, shared by the body's arrays and the
    # dense copy of the main, leaves at most 8 rows a chunk: every
    # driver call sees at least three chunks.
    monkeypatch.setattr(npexec, "_CHUNK_BYTES", 8 * chunk_rows * cols)
    main = MatrixBlock.rand(rows, cols, sparsity=0.15, seed=23,
                            low=0.2, high=1.5)
    vec = np.random.default_rng(6).uniform(0.1, 1.0, (cols, 1))

    def build():
        return _SPARSE_ROW_RECIPES[out_type](api.matrix(main, "X"),
                                             api.matrix(vec, "v"))

    oracle = _as_arrays(api.eval_all(build(), engine=_engine("base")))
    engine = _execution_engine(execution, request)
    actual = _as_arrays(api.eval_all(build(), engine=engine))
    for expected, got in zip(oracle, actual):
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=1e-12)
    (operator,) = engine.plan_cache._cache.values()
    assert operator.cplan.out_type.value == out_type
    assert not operator.csr_main_safe
    if execution != "spark":  # its partitions run without a stats object
        # One densified chunk, one conversion.
        assert engine.stats.n_format_conversions >= 3 * _PARTS[execution]


# ----------------------------------------------------------------------
# Cell and Outer drivers over inputs larger than one chunk
# ----------------------------------------------------------------------
_CHUNKED_NNZ_PER_ROW, _CHUNKED_EMPTY_ROWS = 64, 32
_PARTS = {"serial": 1, "intra-op-2": 2, "spark": 4}

_CHUNKED_CASES = (
    [pytest.param("cell", out, "sparse", id=f"cell-{out}-sparse")
     for out in ("no_agg", "row_agg", "col_agg", "full_agg", "multi_agg")]
    + [pytest.param("outer", out, storage, id=f"{out}-{storage}")
       for storage in ("sparse", "dense")
       for out in sorted(_OUTER_RECIPES)]
)


def _count_genbody_calls(monkeypatch) -> list:
    """The size of ``a`` at every in-process ``genbody`` call of the
    operators compiled from here on."""
    from repro.codegen import plan_cache

    calls = []
    compile_operator = plan_cache.compile_operator

    def counting_compile(*args, **kwargs):
        genbody = compile_operator(*args, **kwargs)

        def counting(*body_args):
            calls.append(np.size(body_args[0]))
            return genbody(*body_args)

        return counting

    monkeypatch.setattr(plan_cache, "compile_operator", counting_compile)
    return calls


def _chunked_main(storage: str, rows: int, cols: int) -> MatrixBlock:
    """64 non-zeros in every row but the last 32, which are all zero:
    CSR chunks end on row boundaries and the trailing rows form a chunk
    without non-zeros."""
    import scipy.sparse as sp

    rng = np.random.default_rng(29)
    shape = (rows, cols)
    if storage == "sparse":
        keep = rng.random(shape).argsort(axis=1) < _CHUNKED_NNZ_PER_ROW
        data = np.where(keep, rng.uniform(0.2, 1.5, shape), 0.0)
    else:
        data = rng.uniform(0.1, 1.0, shape)
    data[-_CHUNKED_EMPTY_ROWS:] = 0.0
    return MatrixBlock(sp.csr_matrix(data) if storage == "sparse" else data)


@pytest.mark.usefixtures("always_enumerate")
@pytest.mark.parametrize("execution", sorted(_PARTS))
@pytest.mark.parametrize("template,out_type,storage", _CHUNKED_CASES)
def test_cell_and_outer_drivers_run_in_chunks(template, out_type, storage,
                                              execution, monkeypatch,
                                              request):
    """Every part of every leg spans at least three chunks: a budget of
    4,096 cells, at 4 or more cells a non-zero (body arrays, row index,
    gathered side or factor values), cuts CSR mains into chunks of at
    most 16 rows, and dense Outer drivers, at 2 or more body arrays of
    256 cells, into chunks of at most 8.  Each chunk with non-zeros
    calls ``genbody`` once; the one without calls it not at all."""
    monkeypatch.setattr(npexec, "_CHUNK_BYTES", 8 * 4096)
    calls = _count_genbody_calls(monkeypatch)
    # Wider than tall, the right-multiply is cheaper as an Outer
    # operator than as a Row one; taller than wide, the left one is.
    rows, cols = (256, 384) if out_type == "outer_right" else (384, 256)
    main = _chunked_main(storage, rows, cols)
    rng = np.random.default_rng(8)
    if template == "cell":
        side = rng.uniform(0.5, 1.5, main.shape)

        def build():
            return _CELL_RECIPES[out_type](api.matrix(main, "X"),
                                           api.matrix(side, "Y"))
    else:
        u = rng.uniform(0.1, 1.0, (rows, 4))
        v = rng.uniform(0.1, 1.0, (cols, 4))

        def build():
            return _OUTER_RECIPES[out_type](api.matrix(main, "S"),
                                            api.matrix(u, "U"),
                                            api.matrix(v, "V"))

    oracle = _as_arrays(api.eval_all(build(), engine=_engine("base")))
    assert not calls
    engine = _execution_engine(execution, request)
    actual = _as_arrays(api.eval_all(build(), engine=engine))
    for expected, got in zip(oracle, actual):
        np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-11)
    (operator,) = engine.plan_cache._cache.values()
    assert operator.cplan.out_type.value == out_type
    assert len(calls) >= 3 * _PARTS[execution]
    assert 0 not in calls


# ----------------------------------------------------------------------
# Dense mains over several chunks at the shipped budget
# ----------------------------------------------------------------------
def _deep(x, y):
    """A Cell body of 9 arrays: over 64 columns, 576 cells a row, so a
    2 MB chunk takes 455 rows."""
    z = x * y + 1.0
    return api.sigmoid(z) * (x - y) + api.abs_(z - 2.0) * 0.5


#: name -> (template, out type, recipe over X, Y and a vector v).
_DENSE_CHUNK_RECIPES = {
    "cell-no_agg": ("Cell", "no_agg", lambda x, y, v: [_deep(x, y)]),
    "cell-row_agg": ("Cell", "row_agg",
                     lambda x, y, v: [_deep(x, y).row_sums()]),
    "cell-col_agg": ("Cell", "col_agg",
                     lambda x, y, v: [_deep(x, y).col_sums()]),
    "magg-full_agg": ("MAgg", "full_agg",
                      lambda x, y, v: [_deep(x, y).sum()]),
    "magg-multi_agg": ("MAgg", "multi_agg",
                       lambda x, y, v: [_deep(x, y).sum(), (x * y).max()]),
    "row-no_agg": ("Row", "no_agg",
                   lambda x, y, v: [_deep(x, y) * api.sigmoid(x @ v)]),
    "row-col_agg_t": ("Row", "col_agg_t",
                      lambda x, y, v: [x.T @ (api.sigmoid(x @ v)
                                              * _deep(x, y).row_sums())]),
    "row-full_agg": ("Row", "full_agg",
                     lambda x, y, v: [(_deep(x, y)
                                       * api.sigmoid(x @ v)).sum()]),
}


_DENSE_CHUNK_PARTS = {**_PARTS, "spark-mp": 4}


def _chunks_per_part(operator, values: list, parts: int) -> list[int]:
    """How many chunks :func:`npexec.chunk_bounds` gives each of
    ``parts`` parts: what every leg's driver calls, in this process or
    a worker."""
    from repro.runtime import skeletons

    cplan = operator.cplan
    main = values[cplan.main_index]
    bounds = skeletons.partition_bounds(main.rows, parts)
    plans = skeletons.spoof_plans(cplan, values, main.rows)
    return [
        len(npexec.chunk_bounds(operator, part))
        for part in skeletons.partition_values(
            plans, skeletons.row_parts(main, bounds), bounds)
    ]


@pytest.mark.parametrize("execution", sorted(_DENSE_CHUNK_PARTS))
@pytest.mark.parametrize("name", sorted(_DENSE_CHUNK_RECIPES))
def test_dense_mains_run_in_chunks(name, execution, monkeypatch, request):
    """At the shipped budget, every part of every leg (worker processes
    included) runs a dense main of 6,000 x 64 in at least three chunks;
    the results match the base engine and repeat bit for bit."""
    from repro.hops.hop import DataOp

    ttype, out_type, recipe = _DENSE_CHUNK_RECIPES[name]
    rng = np.random.default_rng(37)
    xd, yd = rng.uniform(0.1, 1.0, (2, 6000, 64))
    vd = rng.uniform(-1.0, 1.0, (64, 1))

    def build():
        return recipe(api.matrix(xd, "X"), api.matrix(yd, "Y"),
                      api.matrix(vd, "v"))

    oracle = _as_arrays(api.eval_all(build(), engine=_engine("base")))
    calls = _count_genbody_calls(monkeypatch)
    runs = []
    for _ in range(2):
        engine = _execution_engine(execution, request)
        runs.append(_as_arrays(api.eval_all(build(), engine=engine)))
        program = engine.compile([e.hop for e in build()])
        engine.close()
    for expected, got, again in zip(oracle, *runs):
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=1e-12)
        assert np.array_equal(got, again)
    (hop,) = [i.hop for i in program.instructions if i.opcode == "spoof"]
    cplan = hop.operator.cplan
    assert (cplan.ttype.value, cplan.out_type.value) == (ttype, out_type)
    values = [h.data if isinstance(h, DataOp) else h.value
              for h in hop.inputs]
    parts = _DENSE_CHUNK_PARTS[execution]
    assert min(_chunks_per_part(hop.operator, values, parts)) >= 3
    if execution != "spark-mp":  # its bodies run in the workers
        assert len(calls) >= 2 * 3 * parts


class _MainStub:
    """What :func:`npexec.chunk_bounds` reads of an input — shape,
    format and CSR row pointer — without allocating millions of
    non-zeros."""

    def __init__(self, rows: int, cols: int, nnz_per_row=None):
        self.shape = (rows, cols)
        self.cols = cols
        self.is_sparse = nnz_per_row is not None
        if self.is_sparse:
            self.indptr = np.concatenate([[0], np.cumsum(nnz_per_row)])

    def to_csr(self):
        return self


def _stub_operator(ttype: str, temporaries: int, n_sides: int,
                   sparse_safe=True, csr_main_safe=False, csr_sides=()):
    """An operator over ``[main, *sides]``; an Outer one's first two
    sides are U and V."""
    from types import SimpleNamespace

    from repro.codegen.cplan import Access
    from repro.codegen.template import TemplateType

    outer = ttype == "Outer"
    specs = [SimpleNamespace(access=Access.MAIN)] + [
        SimpleNamespace(access=Access.SIDE_FULL)] * n_sides
    cplan = SimpleNamespace(ttype=TemplateType(ttype), inputs=specs,
                            main_index=0, u_index=1 if outer else -1,
                            v_index=2 if outer else -1, w_index=-1,
                            sparse_safe=sparse_safe)
    return SimpleNamespace(cplan=cplan, temporaries=temporaries,
                           csr_main_safe=csr_main_safe, csr_sides=csr_sides)


def test_chunk_bounds_at_the_shipped_budget():
    """Chunk boundaries at the shipped ``_CHUNK_BYTES`` = 2 MB, i.e.
    262,144 float64 cells, computed by hand: moving them moves the bits
    of every multi-chunk aggregate."""
    assert npexec._CHUNK_BYTES == 1 << 21

    def bounds(ttype, main, temporaries, *sides, **flags):
        operator = _stub_operator(ttype, temporaries, len(sides), **flags)
        return npexec.chunk_bounds(operator, [main, *sides])

    # Cell over CSR: 3 body arrays and the row index are 4 cells per
    # non-zero, so a chunk ends at the first row boundary 65,536
    # non-zeros past its start.  Row 2 (2 x 65,536) starts a chunk, so
    # it is one; the ragged last chunk takes the two empty rows behind
    # it.  A side's gathered value counts like a body array.
    nnz_budget, quarter = 1 << 16, 1 << 14
    nnz = [2 * quarter, 2 * quarter, 2 * nnz_budget] + [quarter] * 5 + [0, 0]
    main = _MainStub(10, 1 << 20, nnz)
    column = _MainStub(10, 1)
    assert bounds("Cell", main, 3) == [(0, 2), (2, 3), (3, 7), (7, 10)]
    assert bounds("MAgg", main, 2, column) == [(0, 2), (2, 3), (3, 7),
                                               (7, 10)]
    # Trailing empty rows after a chunk that ends on a row boundary form
    # a chunk with no non-zeros.
    assert bounds("Cell", _MainStub(3, 1 << 20, [nnz_budget, 0, 0]), 3) == [
        (0, 1), (1, 3)]
    # A plan that is not sparse-safe densifies its chunks: 3 body arrays
    # and the dense copy of 32,768 columns are 131,072 cells a row.
    densified = _MainStub(10, 1 << 15, [3] * 10)
    assert bounds("Cell", densified, 3, sparse_safe=False) == [
        (0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]

    # Outer over CSR: rank 6 gathers 2 x 6 factor cells a non-zero, and
    # with 3 body arrays and the row index that is 16 cells, a budget of
    # 16,384 non-zeros: the empty rows are a chunk of their own here.
    u, v = _MainStub(10, 6), _MainStub(1 << 20, 6)
    assert bounds("Outer", main, 3, u, v) == [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
        (8, 10)]
    # Outer over a dense driver: 2 body arrays of 8,192 columns leave 16
    # rows a chunk, the last one ragged ...
    u, v = _MainStub(40, 8), _MainStub(8192, 8)
    assert bounds("Outer", _MainStub(40, 8192), 2, u, v) == [
        (0, 16), (16, 32), (32, 40)]
    # ... and one narrow enough to be a single chunk.
    assert bounds("Outer", _MainStub(40, 100), 2, u,
                  _MainStub(100, 8)) == [(0, 40)]

    # Row over CSR.  A body that only multiplies the main (2 arrays, a
    # vector side) is one range ...
    csr = _MainStub(10, 1 << 20, [3] * 10)
    vector = _MainStub(1 << 20, 1)
    assert bounds("Row", csr, 2, vector, csr_main_safe=True) == [(0, 10)]
    # ... unless a side makes its arrays wide: X %*% W with W of 65,536
    # columns is 131,072 cells a row.  A row-aligned side the body only
    # left-multiplies, however wide, does not count.
    wide_side, aligned = _MainStub(1 << 20, 1 << 16), _MainStub(10, 1 << 20)
    assert bounds("Row", csr, 2, aligned, wide_side, csr_main_safe=True,
                  csr_sides=(0,)) == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    # A body that reads the main's cells densifies rows: 3 arrays of
    # 16,384 columns and the dense copy are 65,536 cells a row.
    assert bounds("Row", _MainStub(10, 1 << 14, [3] * 10), 3) == [
        (0, 4), (4, 8), (8, 10)]

    # Dense mains.  A ragged last chunk: dense-l2svm's 10-array MAgg over
    # one 100,000-row vector part, 26,214 rows a chunk.
    assert bounds("MAgg", _MainStub(100_000, 1), 10, column) == [
        (0, 26_214), (26_214, 52_428), (52_428, 78_642), (78_642, 100_000)]
    # Its Row operator only multiplies the main, and its sides are
    # vectors: 7 arrays one cell wide, 37,449 rows a chunk.
    assert bounds("Row", _MainStub(100_000, 100), 7, column, column,
                  csr_main_safe=True) == [
        (0, 37_449), (37_449, 74_898), (74_898, 100_000)]
    # A row over the budget is a chunk of its own.
    assert bounds("Cell", _MainStub(3, 1 << 20), 1) == [(0, 1), (1, 2),
                                                         (2, 3)]
    assert bounds("Row", _MainStub(3, 1 << 20), 1) == [(0, 1), (1, 2),
                                                        (2, 3)]
    # A part smaller than the budget is one chunk: compile-glm's mains
    # of 500 x 20 under 20 body arrays are 200,000 cells.
    assert bounds("Cell", _MainStub(500, 20), 20) == [(0, 500)]


# ----------------------------------------------------------------------
# Generated code that raises
# ----------------------------------------------------------------------
def _poison_literals(monkeypatch):
    """Make every generated body raise at run time, in whichever
    process runs it: literals become strings, which generate, hash and
    compile fine and fail inside the first primitive that touches one."""
    construct = optimizer_mod.construct_cplan

    def poisoned(plan, config):
        built = construct(plan, config)
        if built is not None:
            stack = list(built[0].roots)
            while stack:
                node = stack.pop()
                if node.op == "lit":
                    node.value = "boom"
                stack.extend(node.inputs)
        return built

    monkeypatch.setattr(optimizer_mod, "construct_cplan", poisoned)


@pytest.mark.parametrize("execution", ["serial", "intra-op-2", "spark-mp"])
def test_raising_kernel_fails_the_run(execution, monkeypatch, request):
    """A generated function that raises is a compiler bug: the run
    fails with the operator's name instead of falling back."""
    _poison_literals(monkeypatch)
    shm = Path("/dev/shm")
    segments_before = set(shm.iterdir())
    data = np.random.default_rng(3).uniform(0.1, 1.0, (3000, 20))
    engine = _execution_engine(execution, request)
    with pytest.raises(RuntimeExecError) as info:
        api.eval((api.matrix(data, "X") * 2.0 + 1.0).sum(), engine=engine)
    (operator,) = engine.plan_cache._cache.values()
    assert f"generated operator {operator.name} " in str(info.value)
    engine.close()
    assert set(shm.iterdir()) == segments_before


# ----------------------------------------------------------------------
# Sharing: serving specializations and the plan cache
# ----------------------------------------------------------------------
class TestKernelSharing:
    def test_serving_specializations_share_kernel(self):
        """Shape specializations reuse one compiled kernel.

        The semantic hash ignores absolute sizes, so both shape
        specializations of the prepared program resolve to the same
        GeneratedOperator — and therefore the same compiled kernel.
        """
        engine = Engine(mode="gen", config=CodegenConfig(intra_op_threads=1))
        prepared = engine.prepare(
            lambda s: (s["X"] * s["Y"]).sum(), name="dot"
        )
        rng = np.random.default_rng(13)
        for rows in (32, 32, 48, 48, 32):
            inputs = {
                "X": rng.uniform(0.1, 1.0, (rows, 8)),
                "Y": rng.uniform(0.1, 1.0, (rows, 8)),
            }
            prepared.run(inputs)
        assert engine.stats.n_compiled_runs == 5
        # One kernel compile serves both shape specializations.
        assert engine.stats.n_kernel_compiles == 1

    def test_compile_source_compiles_every_call(self):
        """Byte-identical source compiles again: operators are shared
        through the plan cache, not by source."""
        source = "def genbody(a, b, s):\n    return a\n"
        stats = RuntimeStats()
        ns1 = compile_source("TMP_SRC_TEST", source, "exec", stats=stats)
        ns2 = compile_source("TMP_SRC_TEST", source, "exec", stats=stats)
        assert ns1 is not ns2
        assert stats.n_source_cache_hits == 0
        assert stats.class_compile_seconds > 0.0
        assert ns1["genbody"]("x", [], []) == "x"
