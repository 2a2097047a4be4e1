"""Generated-operator drivers: differential grid against the base engine.

Template x out-type x main-storage grid asserting that the generated
operators reproduce ``Engine(mode="base")`` — unfused ``runtime/ops.py``
kernels, which share no code with the generated bodies or their
drivers — plus the Row driver's chunked densification of CSR mains,
the Cell and Outer drivers over inputs larger than one chunk,
failure propagation out of generated code on every backend, kernel
sharing through the plan cache and serving specializations, and the
source-hash compile cache.
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


def test_einsum_roots_call_the_body_at_most_once():
    """A dense MULTI_AGG operator contracts its einsum roots without the
    body and calls ``genbody`` once for the rest, or not at all."""
    import dataclasses

    rng = np.random.default_rng(19)
    xd, yd = rng.random((40, 6)), rng.random((40, 6))

    def run(exprs):
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
    # 200 rows, 100 per intra-op partition, 50 per spark partition: every
    # driver call sees at least three chunks, the last one ragged.
    monkeypatch.setattr(npexec, "_CHUNK_CELLS", chunk_rows * cols)
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
        assert engine.stats.n_format_conversions >= 1


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
    """Every part of every leg spans at least three chunks: a 1,024
    non-zero budget cuts CSR mains into chunks of at most 16 rows, and
    dense Outer drivers run 16-row chunks.  Each chunk with non-zeros
    calls ``genbody`` once; the one without calls it not at all."""
    from repro.codegen import plan_cache

    monkeypatch.setattr(npexec, "_CHUNK_CELLS", 1024)
    calls = []
    compile_operator = plan_cache.compile_operator

    def counting_compile(*args, **kwargs):
        genbody = compile_operator(*args, **kwargs)

        def counting(*body_args):
            calls.append(np.size(body_args[0]))
            return genbody(*body_args)

        return counting

    monkeypatch.setattr(plan_cache, "compile_operator", counting_compile)
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


class _MainStub:
    """What :func:`npexec.chunk_bounds` reads of a main input — shape,
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


def _stub_operator(ttype: str, sparse_safe=True, csr_main_safe=False):
    from types import SimpleNamespace

    from repro.codegen.template import TemplateType

    cplan = SimpleNamespace(ttype=TemplateType(ttype), main_index=0,
                            u_index=1, sparse_safe=sparse_safe)
    return SimpleNamespace(cplan=cplan, csr_main_safe=csr_main_safe)


def test_chunk_bounds_at_the_shipped_budget():
    """Chunk boundaries at the shipped ``_CHUNK_CELLS`` = 4M cells,
    computed by hand: moving them moves the bits of every multi-chunk
    aggregate."""
    budget = npexec._CHUNK_CELLS
    assert budget == 1 << 22
    quarter = budget // 4

    def bounds(ttype, main, rank=1, **flags):
        rank_side = _MainStub(main.shape[0], rank)
        return npexec.chunk_bounds(_stub_operator(ttype, **flags),
                                   [main, rank_side])

    # Cell over CSR: a chunk ends at the first row boundary a budget
    # past its start.  Row 2 (2 budgets) starts a chunk, so it is one;
    # the ragged last chunk takes the two empty rows behind it.
    nnz = [2 * quarter, 2 * quarter, 2 * budget] + [quarter] * 5 + [0, 0]
    main = _MainStub(10, 1 << 30, nnz)
    assert bounds("Cell", main) == [(0, 2), (2, 3), (3, 7), (7, 10)]
    assert bounds("MAgg", main) == [(0, 2), (2, 3), (3, 7), (7, 10)]
    # Trailing empty rows after a chunk that ends on a row boundary form
    # a chunk with no non-zeros.
    assert bounds("Cell", _MainStub(3, 1 << 30, [budget, 0, 0])) == [
        (0, 1), (1, 3)]
    # A plan that is not sparse-safe densifies the whole block.
    assert bounds("Cell", main, sparse_safe=False) == [(0, 10)]

    # Outer over CSR: rank 4 divides the budget by four, so the empty
    # rows are a chunk of their own here.
    assert bounds("Outer", main, rank=4) == [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
        (8, 10)]
    # Outer over a dense driver so wide that a budget // rank of cells is
    # 8 rows: the 16-row floor binds.
    wide = _MainStub(40, 1 << 16)
    assert bounds("Outer", wide, rank=8) == [(0, 16), (16, 32), (32, 40)]
    # ... and one narrow enough to be a single chunk.
    assert bounds("Outer", _MainStub(40, 100), rank=8) == [(0, 40)]

    # Row over CSR: one range when the body only multiplies the main,
    # rows of a budget of densified cells when it reads them.
    csr = _MainStub(10, 1 << 20, [3] * 10)
    assert bounds("Row", csr, csr_main_safe=True) == [(0, 10)]
    assert bounds("Row", csr) == [(0, 4), (4, 8), (8, 10)]
    # Dense Row and Cell mains are one range.
    assert bounds("Row", _MainStub(10, 1 << 20)) == [(0, 10)]
    assert bounds("Cell", _MainStub(10, 1 << 20)) == [(0, 10)]


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
# Sharing: serving specializations and the source-hash cache
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

    def test_source_cache_returns_same_namespace(self):
        source = "def genbody(a, b, s):\n    return a\n"
        stats = RuntimeStats()
        ns1 = compile_source("TMP_SRC_TEST", source, "exec", stats=stats)
        before = stats.n_source_cache_hits
        ns2 = compile_source("TMP_SRC_TEST", source, "exec", stats=stats)
        assert ns1 is ns2
        assert stats.n_source_cache_hits == before + 1
        assert ns1["genbody"]("x", [], []) == "x"

    def test_source_cache_distinguishes_backends_and_source(self):
        stats = RuntimeStats()
        a = compile_source("TMP_SRC_A", "def genbody(a, b, s):\n    return 1\n",
                           "exec", stats=stats)
        b = compile_source("TMP_SRC_A", "def genbody(a, b, s):\n    return 2\n",
                           "exec", stats=stats)
        assert a is not b
        assert a["genbody"](0, [], []) == 1
        assert b["genbody"](0, [], []) == 2
