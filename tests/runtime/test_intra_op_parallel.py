"""Intra-operator parallel fused execution.

Differential grid (template × out-type × main-input storage) asserting
parallel-vs-serial equality of ``execute_operator``, bit-identical
determinism of repeated parallel aggregations, direct unit tests for
``reduce_spoof_partials`` combining, and the process-wide thread-budget
oversubscription guard.
"""

import os

import numpy as np
import pytest

from repro import api
from repro.codegen.cplan import CPlan, OutType
from repro.codegen.template import TemplateType
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.errors import RuntimeExecError
from repro.runtime import parallel as parallel_mod
from repro.runtime import skeletons
from repro.runtime.compressed import compress
from repro.runtime.matrix import MatrixBlock
from repro.runtime.parallel import ThreadBudget
from repro.runtime.skeletons import (
    partition_bounds,
    reduce_spoof_partials,
    tree_reduce,
)

ROWS, COLS = 96, 24


def _serial_engine() -> Engine:
    return Engine(mode="gen", config=CodegenConfig(intra_op_threads=1))


def _parallel_engine(threads: int = 4, **kwargs) -> Engine:
    """Splits only under the ``parallel_tiny_ops`` fixture: the inputs
    here are below the parallelism threshold."""
    config = CodegenConfig(intra_op_threads=threads, **kwargs)
    return Engine(mode="gen", config=config)


def _as_arrays(values):
    return [
        v.to_dense() if isinstance(v, MatrixBlock) else np.float64(v)
        for v in values
    ]


# ----------------------------------------------------------------------
# Differential grid: template × out-type × main-input storage
# ----------------------------------------------------------------------
def _main_block(storage: str) -> object:
    rng = np.random.default_rng(23)
    if storage == "dense":
        return MatrixBlock(rng.uniform(0.1, 1.0, (ROWS, COLS)))
    if storage == "sparse":
        return MatrixBlock.rand(
            ROWS, COLS, sparsity=0.15, seed=23, low=0.2, high=1.5
        )
    # Few distinct values per column, so compression is non-trivial.
    return compress(MatrixBlock(np.round(rng.uniform(0, 3, (ROWS, COLS)))))


_CELL_RECIPES = {
    "no_agg": lambda x, y: [x * y * 2.0],
    "row_agg": lambda x, y: [(x * y).row_sums()],
    "col_agg": lambda x, y: [(x * y).col_sums()],
    "full_agg": lambda x, y: [(x * y).sum()],
    "multi_agg": lambda x, y: [(x * y).sum(), (x * x).sum()],
    # Single-input sum aggregates: over a compressed main these hit the
    # dictionary-only skeleton, whose parallel form partitions by
    # column groups instead of row ranges.
    "full_agg_selfmul": lambda x, y: [(x * x).sum()],
}


@pytest.mark.parametrize("storage", ["dense", "sparse", "compressed"])
@pytest.mark.parametrize("out_type", sorted(_CELL_RECIPES))
@pytest.mark.usefixtures("parallel_tiny_ops")
def test_cell_grid_parallel_matches_serial(out_type, storage):
    main = _main_block(storage)
    side = np.random.default_rng(5).uniform(0.5, 1.5, (ROWS, COLS))

    def build():
        x = api.matrix(main, "X")
        y = api.matrix(side, "Y")
        return _CELL_RECIPES[out_type](x, y)

    serial = _as_arrays(api.eval_all(build(), engine=_serial_engine()))
    engine = _parallel_engine()
    parallel = _as_arrays(api.eval_all(build(), engine=engine))
    for expected, actual in zip(serial, parallel):
        np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-12)
    assert engine.stats.n_intra_op_parallel >= 1
    assert engine.stats.n_intra_op_partitions >= 2


_ROW_RECIPES = {
    "no_agg": lambda x, v: [api.sigmoid(x @ v)],
    "col_agg_t": lambda x, v: [x.T @ (x @ v)],
    "full_agg": lambda x, v: [(x @ v).sum()],
}


@pytest.mark.parametrize("storage", ["dense", "sparse", "compressed"])
@pytest.mark.parametrize("out_type", sorted(_ROW_RECIPES))
@pytest.mark.usefixtures("parallel_tiny_ops")
def test_row_grid_parallel_matches_serial(out_type, storage):
    main = _main_block(storage)
    vec = np.random.default_rng(6).uniform(0.1, 1.0, (COLS, 1))

    def build():
        x = api.matrix(main, "X")
        v = api.matrix(vec, "v")
        return _ROW_RECIPES[out_type](x, v)

    serial = _as_arrays(api.eval_all(build(), engine=_serial_engine()))
    engine = _parallel_engine()
    parallel = _as_arrays(api.eval_all(build(), engine=engine))
    for expected, actual in zip(serial, parallel):
        np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-12)
    assert engine.stats.n_intra_op_parallel >= 1


_OUTER_RECIPES = {
    "outer_no_agg": lambda s, u, v: [s * (u @ v.T)],
    "outer_left": lambda s, u, v: [((s != 0.0) * (u @ v.T)).T @ u],
    "outer_right": lambda s, u, v: [((s != 0.0) * (u @ v.T)) @ v],
    "outer_full_agg": lambda s, u, v: [
        (s * api.log(u @ v.T + 1e-15)).sum()
    ],
}


@pytest.mark.parametrize("storage", ["sparse", "dense"])
@pytest.mark.parametrize("out_type", sorted(_OUTER_RECIPES))
@pytest.mark.usefixtures("parallel_tiny_ops")
def test_outer_grid_parallel_matches_serial(out_type, storage):
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

    serial = _as_arrays(api.eval_all(build(), engine=_serial_engine()))
    engine = _parallel_engine()
    parallel = _as_arrays(api.eval_all(build(), engine=engine))
    for expected, actual in zip(serial, parallel):
        np.testing.assert_allclose(actual, expected, rtol=1e-8, atol=1e-11)


# ----------------------------------------------------------------------
# Determinism: fixed partition count + fixed combine topology
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("parallel_tiny_ops")
class TestParallelDeterminism:
    """Repeated parallel runs must be bit-identical, not just allclose —
    the partition count comes from the config and the tree-reduce pairs
    partials in a fixed order, so floating-point reassociation is
    frozen (mirrors the PR 2 ``sim_seconds`` determinism test)."""

    def _run(self, build):
        engine = _parallel_engine()
        results = _as_arrays(api.eval_all(build(), engine=engine))
        assert engine.stats.n_intra_op_parallel >= 1
        return results

    @pytest.mark.parametrize("recipe", ["full_agg", "multi_agg", "col_agg"])
    def test_repeated_runs_bit_identical(self, recipe):
        data = np.random.default_rng(41).uniform(-1.0, 1.0, (128, 32))
        other = np.random.default_rng(42).uniform(-1.0, 1.0, (128, 32))

        def build():
            x = api.matrix(data, "X")
            y = api.matrix(other, "Y")
            return _CELL_RECIPES[recipe](x, y)

        first = self._run(build)
        second = self._run(build)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)  # exact, no tolerance

    def test_combine_levels_match_fixed_topology(self):
        data = np.random.default_rng(43).uniform(0.1, 1.0, (128, 32))

        def build():
            x = api.matrix(data, "X")
            return [(x * x).sum()]

        engine = _parallel_engine(threads=4)
        api.eval_all(build(), engine=engine)
        stats = engine.stats
        assert stats.n_intra_op_partitions == 4
        assert stats.intra_op_combine_levels == 2  # ceil(log2(4))


class TestCompressedRowAlignedSides:
    """Regression: a row-aligned *compressed* side input cannot be
    row-sliced, so partition-wise execution must decompress it first —
    otherwise every partition reads rows [0, len) of the full side
    through partition-local indices and silently computes garbage."""

    def _setup(self):
        rng = np.random.default_rng(77)
        x = rng.uniform(0.1, 1.0, (ROWS, COLS))
        # Few distinct values per column so the side genuinely compresses.
        y = compress(MatrixBlock(np.round(rng.uniform(0, 3, (ROWS, COLS)))))
        v = rng.uniform(0.1, 1.0, (COLS, 1))

        def build():
            xm = api.matrix(x, "X")
            ym = api.matrix(y, "Y")
            vm = api.matrix(v, "v")
            return [api.sigmoid(xm @ vm) * (ym @ vm)]

        return build

    @pytest.mark.usefixtures("parallel_tiny_ops")
    def test_intra_op_parallel_matches_serial(self):
        build = self._setup()
        serial = _as_arrays(api.eval_all(build(), engine=_serial_engine()))
        engine = _parallel_engine()
        parallel = _as_arrays(api.eval_all(build(), engine=engine))
        np.testing.assert_allclose(parallel[0], serial[0], rtol=1e-9)

    def test_spark_partitioning_matches_serial(self):
        from repro.config import ClusterConfig

        build = self._setup()
        serial = _as_arrays(api.eval_all(build(), engine=_serial_engine()))
        engine = Engine(
            mode="gen",
            config=CodegenConfig(cluster=ClusterConfig(),
                                 local_mem_budget=1e3),
        )
        spark = _as_arrays(api.eval_all(build(), engine=engine))
        np.testing.assert_allclose(spark[0], serial[0], rtol=1e-9)


# ----------------------------------------------------------------------
# CP matrix multiplies: row parts of the left input
# ----------------------------------------------------------------------
def _operand(storage: str, rows: int, cols: int, seed: int) -> MatrixBlock:
    if storage == "csr":
        return MatrixBlock.rand(rows, cols, sparsity=0.1, seed=seed,
                                low=0.2, high=1.5)
    return MatrixBlock(
        np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, cols)))


#: name -> (left storage, right storage, right columns)
_MATMULT_CASES = {
    "dense-x-vector": ("dense", "dense", 1),
    "dense-x-matrix": ("dense", "dense", 9),
    "csr-x-dense": ("csr", "dense", 9),
    "dense-x-csr": ("dense", "csr", 30),
    "csr-x-csr": ("csr", "csr", 30),
}


def _base_matmult(a, b, threads: int):
    engine = Engine(mode="base",
                    config=CodegenConfig(intra_op_threads=threads))
    result = api.eval(api.matrix(a, "A") @ api.matrix(b, "B"),
                      engine=engine)
    return engine.stats, result


@pytest.mark.usefixtures("parallel_tiny_ops")
@pytest.mark.parametrize("case", sorted(_MATMULT_CASES))
def test_split_matmult_is_bit_identical(case):
    left, right, cols = _MATMULT_CASES[case]
    a = _operand(left, ROWS, COLS, 51)
    b = _operand(right, COLS, cols, 52)
    serial_stats, serial = _base_matmult(a, b, threads=1)
    stats, split = _base_matmult(a, b, threads=4)
    assert serial_stats.n_intra_op_parallel == 0
    assert (stats.n_intra_op_parallel, stats.n_intra_op_partitions) == (1, 4)
    assert split.is_sparse == serial.is_sparse
    assert np.array_equal(split.to_dense(), serial.to_dense())


@pytest.mark.usefixtures("parallel_tiny_ops")
def test_compressed_left_matmult_runs_as_one_part():
    """The dictionary pre-aggregation takes the whole compressed left
    operand; its counter is bumped once."""
    x = _main_block("compressed")
    v = np.random.default_rng(53).uniform(0.1, 1.0, (COLS, 1))
    stats, result = _base_matmult(x, v, threads=4)
    assert stats.n_intra_op_parallel == 0
    assert stats.n_compressed_ops == 1
    np.testing.assert_allclose(result.to_dense(),
                               x.decompress().to_dense() @ v, rtol=1e-12)


@pytest.mark.usefixtures("parallel_tiny_ops")
def test_parallel_summary_keys():
    """The intra-op counters, read as ``RuntimeStats`` fields; the mean
    partition count is derived here, where it is used."""
    engine = _parallel_engine()
    data = np.random.default_rng(2).uniform(0.1, 1.0, (ROWS, COLS))
    api.eval((api.matrix(data, "X") * 2.0).sum(), engine=engine)
    stats = engine.stats
    assert stats.n_intra_op_parallel == 1
    mean_partitions = stats.n_intra_op_partitions / stats.n_intra_op_parallel
    assert mean_partitions == 4.0
    assert stats.intra_op_combine_levels >= 1
    assert stats.intra_op_max_threads >= 1


def test_thread_autosizing():
    """``intra_op_threads=0`` splits into ``min(8, cpu_count)`` parts."""
    auto = min(8, os.cpu_count() or 1)
    assert parallel_mod.AUTO_THREADS == auto
    config = CodegenConfig(intra_op_threads=0)
    assert parallel_mod.intra_op_parts(1 << 20, 1, config) == auto


# ----------------------------------------------------------------------
# reduce_spoof_partials unit tests
# ----------------------------------------------------------------------
def _agg_cplan(out_type: OutType, agg_ops: list[str]) -> CPlan:
    return CPlan(
        ttype=TemplateType.CELL,
        out_type=out_type,
        roots=[],
        inputs=[],
        main_index=-1,
        agg_ops=agg_ops,
    )


class TestReduceSpoofPartials:
    def test_full_agg_min(self):
        cplan = _agg_cplan(OutType.FULL_AGG, ["min"])
        result, levels = reduce_spoof_partials(cplan, [3.0, -1.5, 2.0, 0.5])
        assert result == -1.5
        assert levels == 2

    def test_full_agg_max(self):
        cplan = _agg_cplan(OutType.FULL_AGG, ["max"])
        result, levels = reduce_spoof_partials(cplan, [3.0, 7.0, 2.0])
        assert result == 7.0
        assert levels == 2

    def test_col_agg_min_max_blocks(self):
        for agg, reducer in (("min", np.minimum), ("max", np.maximum)):
            cplan = _agg_cplan(OutType.COL_AGG, [agg])
            parts = [
                MatrixBlock(np.array([[1.0, 5.0, -2.0]])),
                MatrixBlock(np.array([[0.5, 9.0, -1.0]])),
                MatrixBlock(np.array([[2.0, 4.0, -3.0]])),
            ]
            result, levels = reduce_spoof_partials(cplan, parts)
            expected = reducer.reduce([p.to_dense() for p in parts])
            np.testing.assert_array_equal(result.to_dense(), expected)
            assert levels == 2

    def test_multi_agg_mixed_ops(self):
        """Each MULTI_AGG root row combines under its own aggregate."""
        cplan = _agg_cplan(OutType.MULTI_AGG, ["sum", "min", "max"])
        parts = [
            MatrixBlock(np.array([[1.0], [5.0], [-2.0]])),
            MatrixBlock(np.array([[2.0], [3.0], [4.0]])),
            MatrixBlock(np.array([[3.0], [8.0], [0.0]])),
        ]
        result, _ = reduce_spoof_partials(cplan, parts)
        np.testing.assert_array_equal(
            result.to_dense(), np.array([[6.0], [3.0], [4.0]])
        )

    def test_multi_agg_missing_op_defaults_to_sum(self):
        cplan = _agg_cplan(OutType.MULTI_AGG, ["min"])
        parts = [
            MatrixBlock(np.array([[4.0], [1.0]])),
            MatrixBlock(np.array([[2.0], [2.0]])),
        ]
        result, _ = reduce_spoof_partials(cplan, parts)
        np.testing.assert_array_equal(result.to_dense(), [[2.0], [3.0]])

    def test_single_partial_passthrough(self):
        cplan = _agg_cplan(OutType.FULL_AGG, ["min"])
        result, levels = reduce_spoof_partials(cplan, [4.25])
        assert result == 4.25
        assert levels == 0

    def test_empty_partition_partials_are_neutral_for_sum(self):
        """All-zero partitions (e.g. empty sparse row ranges) contribute
        identity partials under sum aggregation."""
        cplan = _agg_cplan(OutType.FULL_AGG, ["sum"])
        result, _ = reduce_spoof_partials(cplan, [0.0, 2.5, 0.0, 1.5])
        assert result == 4.0

    def test_zero_partials_raise(self):
        cplan = _agg_cplan(OutType.FULL_AGG, ["sum"])
        with pytest.raises(RuntimeExecError):
            reduce_spoof_partials(cplan, [])

    def test_non_aggregating_out_type_raises(self):
        cplan = _agg_cplan(OutType.NO_AGG, [])
        with pytest.raises(RuntimeExecError):
            reduce_spoof_partials(cplan, [1.0])


class TestTreeReduce:
    def test_fixed_pairwise_topology(self):
        order = []

        def combine(a, b):
            order.append((a, b))
            return a + b

        result, levels = tree_reduce([1, 2, 3, 4, 5], combine)
        assert result == 15
        assert levels == 3
        # Level 1: (1,2), (3,4); level 2: (3,7); level 3: (10,5) — the
        # odd tail always joins last, never reordered.
        assert order == [(1, 2), (3, 4), (3, 7), (10, 5)]

    def test_partition_bounds_cover_all_rows(self):
        bounds = partition_bounds(97, 4)
        assert bounds[0][0] == 0 and bounds[-1][1] == 97
        assert sum(hi - lo for lo, hi in bounds) == 97


# ----------------------------------------------------------------------
# Thread budget / oversubscription guard
# ----------------------------------------------------------------------
class TestThreadBudget:
    def test_grants_within_total(self):
        budget = ThreadBudget(total=4)
        first = budget.acquire(3)
        second = budget.acquire(3)
        assert first == 3 and second == 1
        assert budget.acquire(2) == 0  # exhausted, no minimum
        budget.release(first)
        assert budget.acquire(2) == 2
        assert budget.peak == 4

    def test_minimum_guarantees_liveness(self):
        budget = ThreadBudget(total=1)
        held = budget.acquire(1)
        assert budget.acquire(4, minimum=1) == 1
        budget.release(held)

    @pytest.mark.parametrize("pool_holder_first", [True, False])
    def test_minimum_on_exhausted_pool_is_not_a_pool_token(
        self, pool_holder_first
    ):
        """``active <= total`` at every step, whoever releases first."""
        budget = ThreadBudget(total=2)
        held = budget.acquire(2)
        forced = [budget.acquire(1, minimum=1) for _ in range(3)]
        assert forced == [1, 1, 1]  # told to go ahead, never blocked
        assert budget.active == 2 and budget.peak == 2
        order = [held] + forced if pool_holder_first else forced + [held]
        for grant in order:
            budget.release(grant)
            assert 0 <= budget.active <= budget.total
        assert budget.active == 0
        assert budget.acquire(2) == 2  # nothing leaked

    def test_run_tasks_preserves_order_and_errors(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_BUDGET", ThreadBudget(total=8))
        results, workers = parallel_mod.run_tasks(
            [(lambda i=i: i * i) for i in range(7)]
        )
        assert results == [i * i for i in range(7)]
        assert workers >= 1

        def boom():
            raise ValueError("partition failure")

        with pytest.raises(ValueError):
            parallel_mod.run_tasks([boom, lambda: 1])


class TestOversubscriptionGuard:
    @pytest.mark.usefixtures("parallel_tiny_ops")
    def test_nested_layers_stay_within_budget(self, monkeypatch):
        """Serving workers + intra-op partitioning never hold more
        tokens than the configured budget."""
        from repro.serve.scheduler import SessionScheduler

        budget = ThreadBudget(total=4)
        monkeypatch.setattr(parallel_mod, "_BUDGET", budget)
        engine = Engine(
            mode="gen",
            config=CodegenConfig(intra_op_threads=4),
        )
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.1, 1.0, (COLS, 1))

        def builder(inputs):
            x = inputs["X"]
            w = api.matrix(weights, "w")
            return [(x @ w).sum(), (x * x).sum()]

        with SessionScheduler(engine, n_workers=2) as scheduler:
            prepared = scheduler.prepare(builder, name="guarded")
            tickets = [
                scheduler.submit(
                    prepared,
                    {"X": rng.uniform(0.1, 1.0, (ROWS, COLS))},
                )
                for _ in range(6)
            ]
            results = [t.result(timeout=30) for t in tickets]
        assert len(results) == 6
        # ``acquire`` raises if it would ever hold more than ``total``,
        # so this is an invariant of every grant made above, not a
        # sample: two serving workers with ``minimum=1`` on an exhausted
        # pool used to push it to 5.
        assert budget.peak <= budget.total == 4
        assert budget.active == 0
        assert engine.stats.n_requests_served == 6

    def test_single_thread_takes_exact_serial_path(self, monkeypatch):
        """``intra_op_threads=1`` must not even plan partitions: no row
        slicing, no plan list, no column-group split."""

        def forbidden(*args, **kwargs):
            raise AssertionError("partitions planned with 1 thread")

        for name in ("row_parts", "spoof_plans", "partition_values",
                     "_column_group_views"):
            monkeypatch.setattr(skeletons, name, forbidden)
        data = np.random.default_rng(8).uniform(0.1, 1.0, (ROWS, COLS))
        engine = _serial_engine()
        result = api.eval((api.matrix(data, "X") * 2.0).sum(), engine=engine)
        assert result == pytest.approx(float((data * 2.0).sum()))
        assert engine.stats.n_intra_op_parallel == 0
        assert engine.stats.n_intra_op_partitions == 0

    @pytest.mark.usefixtures("parallel_tiny_ops")
    def test_exhausted_budget_degrades_to_caller_thread(self, monkeypatch):
        """With the budget fully claimed, intra-op execution still
        completes (serially on the calling thread) and records a
        single-worker grant."""
        budget = ThreadBudget(total=1)
        monkeypatch.setattr(parallel_mod, "_BUDGET", budget)
        held = budget.acquire(1)
        data = np.random.default_rng(12).uniform(0.1, 1.0, (ROWS, COLS))
        engine = _parallel_engine()
        result = api.eval((api.matrix(data, "X") * 3.0).sum(), engine=engine)
        budget.release(held)
        assert result == pytest.approx(float((data * 3.0).sum()))
        # Partitioning still happened (fixed count), only the worker
        # grant degraded — determinism is independent of the budget.
        assert engine.stats.n_intra_op_parallel == 1
        assert engine.stats.n_intra_op_partitions == 4
        assert engine.stats.intra_op_max_threads == 1
