"""The distributed executor: correctness, cost accounting, and the
in-process and multiprocess task backends agreeing on both."""

import numpy as np
import pytest

from repro import api
from repro.compiler.execution import Engine
from repro.config import ClusterConfig, CodegenConfig
from repro.runtime.distributed import BlockedMatrix
from repro.runtime.matrix import MatrixBlock
from repro.runtime.skeletons import partition_bounds as _partition_bounds


def _cluster_config(budget=1e5, **cluster_kwargs) -> CodegenConfig:
    return CodegenConfig(
        cluster=ClusterConfig(**cluster_kwargs), local_mem_budget=budget
    )


class TestBlockedMatrix:
    def test_partition_bounds_cover_rows(self):
        bounds = _partition_bounds(100, 6)
        assert bounds[0][0] == 0 and bounds[-1][1] == 100
        covered = sum(hi - lo for lo, hi in bounds)
        assert covered == 100

    def test_partition_roundtrip_dense(self, rng):
        block = MatrixBlock(rng.random((50, 7)))
        blocked = BlockedMatrix.partition(block, 4)
        assert len(blocked.blocks) == 4
        np.testing.assert_allclose(blocked.collect().to_dense(), block.to_dense())

    def test_partition_roundtrip_sparse(self):
        block = MatrixBlock.rand(60, 10, sparsity=0.1, seed=4)
        blocked = BlockedMatrix.partition(block, 5)
        np.testing.assert_allclose(blocked.collect().to_dense(), block.to_dense())

    def test_more_partitions_than_rows(self, rng):
        block = MatrixBlock(rng.random((3, 2)))
        blocked = BlockedMatrix.partition(block, 8)
        assert len(blocked.blocks) == 3

    @pytest.mark.parametrize("n_partitions", [1, 3, 16])
    @pytest.mark.parametrize("representation", ["dense", "sparse"])
    def test_collect_roundtrips_exactly(self, rng, n_partitions, representation):
        if representation == "dense":
            block = MatrixBlock(rng.random((41, 6)))
        else:
            block = MatrixBlock.rand(41, 6, sparsity=0.15, seed=7)
        blocked = BlockedMatrix.partition(block, n_partitions)
        collected = blocked.collect()
        assert collected.shape == block.shape
        assert collected.is_sparse == block.is_sparse
        np.testing.assert_array_equal(
            collected.to_dense(), block.to_dense()
        )

    @pytest.mark.parametrize("sparse", [False, True])
    def test_collect_empty_matrix(self, sparse):
        block = MatrixBlock.zeros(0, 5, sparse=sparse)
        blocked = BlockedMatrix.partition(block, 4)
        assert blocked.blocks == []
        collected = blocked.collect()
        assert collected.shape == (0, 5)

    def test_collect_mixed_representations(self, rng):
        dense_part = MatrixBlock(rng.random((10, 4)))
        sparse_part = MatrixBlock.rand(10, 4, sparsity=0.1, seed=2)
        blocked = BlockedMatrix([dense_part, sparse_part], 20, 4)
        expected = np.vstack(
            [dense_part.to_dense(), sparse_part.to_dense()]
        )
        np.testing.assert_array_equal(
            blocked.collect().to_dense(), expected
        )

    def test_bounds_track_partitions(self, rng):
        blocked = BlockedMatrix.partition(MatrixBlock(rng.random((50, 3))), 4)
        assert blocked.bounds[0][0] == 0
        assert blocked.bounds[-1][1] == 50
        for (lo, hi), block in zip(blocked.bounds, blocked.blocks):
            assert hi - lo == block.rows


class TestDistributedExecution:
    def test_results_identical_to_local(self, rng):
        data = rng.random((5000, 20))  # 800 KB > 100 KB budget
        v = rng.random((20, 1))

        def build():
            x = api.matrix(data, "X")
            return [x.T @ (x @ api.matrix(v, "v")), (x * 2.0 + 1.0).sum()]

        local = api.eval_all(build(), engine=Engine(mode="base"))
        for mode in ("base", "gen", "gen-fa"):
            engine = Engine(mode=mode, config=_cluster_config())
            dist = api.eval_all(build(), engine=engine)
            np.testing.assert_allclose(
                dist[0].to_dense(), local[0].to_dense(), rtol=1e-9
            )
            assert dist[1] == pytest.approx(local[1])
            assert engine.stats.n_distributed_ops > 0

    def test_small_ops_stay_local(self, rng):
        data = rng.random((10, 4))  # tiny: below budget
        engine = Engine(mode="base", config=_cluster_config())
        api.eval((api.matrix(data, "X") * 2.0).sum(), engine=engine)
        assert engine.stats.n_distributed_ops == 0

    def test_broadcast_charged_for_side_inputs(self, rng):
        data = rng.random((5000, 20))
        v = rng.random((5000, 1))
        engine = Engine(mode="base", config=_cluster_config())
        api.eval(
            (api.matrix(data, "X") * api.matrix(v, "v")).sum(), engine=engine
        )
        assert engine.stats.sim_broadcast_bytes > 0
        assert engine.stats.sim_seconds > 0

    def test_rdd_cache_avoids_rereads(self, rng):
        data = rng.random((5000, 20))

        def build(x):
            return [(x * 2.0).sum(), (x * 3.0).sum(), (x + 1.0).sum()]

        engine = Engine(mode="base", config=_cluster_config())
        x = api.matrix(data, "X")
        first = api.eval_all(build(x), engine=engine)
        cost_three_reads = engine.stats.sim_seconds
        engine2 = Engine(mode="base", config=_cluster_config())
        api.eval_all(build(api.matrix(data, "X"))[:1], engine=engine2)
        cost_one_read = engine2.stats.sim_seconds
        # Three cached re-reads must cost far less than three cold reads.
        assert cost_three_reads < 2.5 * cost_one_read

    def test_broadcast_pressure_evicts_cache(self, rng):
        data = rng.random((5000, 20))
        side = rng.random((5000, 1))
        config = _cluster_config(executor_mem=2e5)  # tiny aggregate memory

        def build():
            x = api.matrix(data, "X")
            s = api.matrix(side, "s")
            return [((x * s) + s).sum()]

        engine = Engine(mode="base", config=config)
        api.eval_all(build() * 1, engine=engine)
        large_mem = Engine(mode="base", config=_cluster_config())
        api.eval_all(build(), engine=large_mem)
        assert engine.stats.sim_seconds >= large_mem.stats.sim_seconds

    def test_distributed_spoof_operator(self, rng):
        data = rng.random((5000, 30))
        engine = Engine(mode="gen", config=_cluster_config())
        x = api.matrix(data, "X")
        result = api.eval((x * x * 2.0).sum(), engine=engine)
        assert result == pytest.approx(float((data * data * 2.0).sum()))
        assert engine.stats.n_distributed_ops >= 1

    def test_exec_type_selection(self, rng):
        from repro.hops.types import ExecType

        data = rng.random((5000, 20))
        engine = Engine(mode="base", config=_cluster_config())
        x = api.matrix(data, "X")
        expr = (x * 2.0).sum()
        program = engine.compile([expr.hop])
        # The cell op over X exceeds the budget.
        assert any(
            instr.hop.exec_type is ExecType.SPARK
            for instr in program.instructions
        )


class TestBlockedDataflow:
    """Distributed intermediates stay partitioned across instructions."""

    def test_chained_spark_instructions_stay_blocked(self, rng):
        data = rng.random((5000, 20))
        engine = Engine(mode="base", config=_cluster_config())
        x = api.matrix(data, "X")
        expr = ((x * 2.0) + 1.0).row_sums()
        program = engine.compile([expr.hop])
        opcodes = [i.opcode for i in program.instructions]
        # Exactly one collect: at the program root, not between the
        # three chained SPARK instructions.
        assert opcodes.count("collect") == 1
        assert opcodes[-1] == "collect"
        (result,) = engine.executor.run(program)
        np.testing.assert_allclose(
            result.to_dense(),
            (data * 2.0 + 1.0).sum(axis=1, keepdims=True),
        )
        stats = engine.stats
        # X partitioned once; both downstream instructions consumed the
        # partitioned value directly (partition identity preserved).
        assert stats.n_partitioned == 1
        assert stats.n_blocked_passthrough == 2
        assert stats.n_collects == 1

    def test_collect_inserted_at_exec_type_boundary(self, rng):
        data = rng.random((5000, 20))
        engine = Engine(mode="base", config=_cluster_config())
        x = api.matrix(data, "X")
        # row_sums is SPARK (reads X), the final sum over the 5000x1
        # vector fits the driver budget -> CP consumer needs a collect.
        expr = (x * 2.0).row_sums().sum()
        program = engine.compile([expr.hop])
        collects = [i for i in program.instructions if i.opcode == "collect"]
        assert len(collects) == 1
        (result,) = engine.executor.run(program)
        assert result == pytest.approx(float((data * 2.0).sum()))
        assert engine.stats.n_collects == 1

    def test_full_agg_uses_tree_reduce(self, rng):
        data = rng.random((5000, 20))
        engine = Engine(mode="base", config=_cluster_config())
        result = api.eval((api.matrix(data, "X") * 2.0).sum(), engine=engine)
        assert result == pytest.approx(float((data * 2.0).sum()))
        assert engine.stats.n_tree_reduces >= 1

    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda x: x.mean(), lambda a: a.mean()),
            (lambda x: x.col_sums(), lambda a: a.sum(axis=0, keepdims=True)),
            (lambda x: x.col_mins(), lambda a: a.min(axis=0, keepdims=True)),
            (lambda x: x.max(), lambda a: a.max()),
        ],
    )
    def test_reduce_aggregations_match_local(self, rng, build, expected):
        data = rng.random((5000, 20))
        engine = Engine(mode="base", config=_cluster_config())
        result = api.eval(build(api.matrix(data, "X")), engine=engine)
        want = expected(data)
        if isinstance(result, MatrixBlock):
            np.testing.assert_allclose(result.to_dense(), want, rtol=1e-12)
        else:
            assert result == pytest.approx(float(want))
        assert engine.stats.n_distributed_ops >= 1

    def test_blocked_spoof_chain(self, rng):
        """Generated operators consume and produce blocked values."""
        data = rng.random((5000, 30))
        engine = Engine(mode="gen", config=_cluster_config())
        x = api.matrix(data, "X")
        result = api.eval(
            ((x * 2.0 + 1.0) * (x - 0.5)).row_sums(), engine=engine
        )
        np.testing.assert_allclose(
            result.to_dense(),
            ((data * 2.0 + 1.0) * (data - 0.5)).sum(axis=1, keepdims=True),
            rtol=1e-9,
        )
        assert engine.stats.n_collects >= 1


class TestLineageCache:
    """The RDD cache keys by lineage, never by value identity."""

    def _run_workload(self):
        """Multi-statement program over eagerly freed intermediates:
        fresh blocks are allocated per statement, so an id()-keyed
        cache would produce nondeterministic hits on reused addresses."""
        engine = Engine(mode="base", config=_cluster_config())
        rng = np.random.default_rng(11)
        for _ in range(6):
            data = rng.random((5000, 20))
            x = api.matrix(data, "X")
            api.eval_all(
                [((x * 2.0) + 1.0).sum(), (x * 3.0).row_sums().sum()],
                engine=engine,
            )
        return engine.stats.sim_seconds

    def test_sim_seconds_deterministic_across_engines(self):
        # Regression: with id()-keyed caching, eager freeing plus
        # CPython address reuse produced spurious cache hits and
        # run-dependent sim_seconds.
        first = self._run_workload()
        second = self._run_workload()
        assert first == second

    def test_input_cache_hits_across_programs(self, rng):
        data = rng.random((5000, 20))
        x_block = MatrixBlock(data)
        engine = Engine(mode="base", config=_cluster_config())
        api.eval((api.matrix(x_block, "X") * 2.0).sum(), engine=engine)
        assert engine.stats.n_rdd_cache_hits == 0
        # Second program re-binds the same input block: cached read.
        api.eval((api.matrix(x_block, "X") * 3.0).sum(), engine=engine)
        assert engine.stats.n_rdd_cache_hits >= 1

    def test_identity_guard_rejects_aliased_block(self, rng):
        from repro.config import ClusterConfig
        from repro.runtime.distributed import SparkExecutor
        from repro.runtime.stats import RuntimeStats

        stats = RuntimeStats()
        spark = SparkExecutor(ClusterConfig(), CodegenConfig(), stats)
        block = MatrixBlock(rng.random((10, 10)))
        key = ("data", 12345)
        spark._cache_put(key, block.size_bytes, value=block)
        assert spark._is_cached(key, block)
        # A different object under the same identity key (the aliasing
        # scenario: freed block, reused address) must MISS and evict.
        impostor = MatrixBlock(rng.random((10, 10)))
        assert not spark._is_cached(key, impostor)
        assert key not in spark._cache

    def test_dead_lineages_do_not_starve_live_inputs(self, rng):
        # Regression: dead per-program entries used to pin the modeled
        # aggregate memory until _cache_put rejected every new entry,
        # silently disabling the cache for long-running engines.
        config = CodegenConfig(
            cluster=ClusterConfig(executor_mem=2e6), local_mem_budget=1e5
        )
        engine = Engine(mode="base", config=config)
        for _ in range(12):  # throwaway inputs saturate aggregate_mem
            throwaway = rng.random((5000, 20))
            api.eval((api.matrix(throwaway, "T") * 2.0).sum(), engine=engine)
        hot = MatrixBlock(rng.random((5000, 20)))
        before = engine.stats.n_rdd_cache_hits
        for _ in range(5):
            api.eval((api.matrix(hot, "X") * 2.0).sum(), engine=engine)
        assert engine.stats.n_rdd_cache_hits - before >= 4

    def test_broadcast_pressure_eviction_is_counted(self, rng):
        data = rng.random((5000, 20))
        side = rng.random((5000, 1))
        config = _cluster_config(executor_mem=2e5)  # tiny aggregate memory
        engine = Engine(mode="base", config=config)
        x = api.matrix(data, "X")
        s = api.matrix(side, "s")
        api.eval(((x * s) + s).sum(), engine=engine)
        assert engine.stats.n_rdd_cache_evictions >= 1


SPARK_ALGO_MODES = ["base", "gen", "gen-fa"]

#: Counters a partition task bumps: one task function serves both
#: backends, so the same program must report them equal.
TASK_COUNTERS = ("n_compiled_runs", "spoof_executions", "n_compressed_ops",
                 "n_decompressions")


def _spark_engine(mode="gen", backend="simulated"):
    return Engine(
        mode=mode,
        config=CodegenConfig(
            cluster=ClusterConfig(n_workers=4, executor_mem=10e6),
            local_mem_budget=2e4,
            distributed_backend=backend,
            mp_workers=2,
        ),
    )


def _task_counters(engine) -> dict:
    return {name: getattr(engine.stats, name) for name in TASK_COUNTERS}


class TestDistributedAlgorithms:
    """Spark-mode execution is numerically equivalent to local for all
    six algorithms of the paper's evaluation — under both the simulated
    and the real multiprocess distributed backend, which must also
    report the same task counters."""

    @pytest.fixture(scope="class", params=["simulated", "multiprocess"])
    def backend(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def first_leg(self):
        """Task counters per test of whichever backend ran it first
        (the class runs one backend's tests, then the other's)."""
        return {}

    @staticmethod
    def _same_counters(first_leg, test, engine):
        counters = _task_counters(engine)
        assert first_leg.setdefault(test, counters) == counters

    @pytest.fixture(scope="class")
    def data(self):
        from repro.data import generators

        return generators.classification_data(400, 12, n_classes=2, seed=1)

    @pytest.mark.parametrize("mode", SPARK_ALGO_MODES)
    def test_l2svm(self, data, mode, backend, first_leg):
        from repro.algorithms import l2svm

        x, y = data
        ref = l2svm(x, y, engine=Engine(mode="base"), max_iter=3)
        engine = _spark_engine(mode, backend)
        got = l2svm(x, y, engine=engine, max_iter=3)
        np.testing.assert_allclose(
            got.model["w"].to_dense(), ref.model["w"].to_dense(),
            rtol=1e-6, atol=1e-9,
        )
        self._same_counters(first_leg, ("l2svm", mode), engine)

    def test_mlogreg(self, data, backend, first_leg):
        from repro.algorithms import mlogreg

        x, y = data
        labels = (y.to_dense() + 3) / 2
        ref = mlogreg(x, labels, 2, engine=Engine(mode="base"),
                      max_iter=2, max_inner=3)
        engine = _spark_engine(backend=backend)
        got = mlogreg(x, labels, 2, engine=engine, max_iter=2, max_inner=3)
        np.testing.assert_allclose(
            got.model["beta"].to_dense(), ref.model["beta"].to_dense(),
            rtol=1e-6, atol=1e-9,
        )
        self._same_counters(first_leg, "mlogreg", engine)

    def test_glm(self, data, backend, first_leg):
        from repro.algorithms import glm_binomial_probit

        x, y = data
        yb = (y.to_dense() + 1) / 2
        ref = glm_binomial_probit(x, yb, engine=Engine(mode="base"),
                                  max_iter=2, max_inner=3)
        engine = _spark_engine(backend=backend)
        got = glm_binomial_probit(x, yb, engine=engine,
                                  max_iter=2, max_inner=3)
        np.testing.assert_allclose(
            got.model["beta"].to_dense(), ref.model["beta"].to_dense(),
            rtol=1e-6, atol=1e-9,
        )
        self._same_counters(first_leg, "glm", engine)

    def test_kmeans(self, data, backend, first_leg):
        from repro.algorithms import kmeans

        x, _ = data
        ref = kmeans(x, n_centroids=4, engine=Engine(mode="base"),
                     max_iter=3, seed=5)
        engine = _spark_engine(backend=backend)
        got = kmeans(x, n_centroids=4, engine=engine, max_iter=3, seed=5)
        np.testing.assert_allclose(
            got.model["centroids"].to_dense(),
            ref.model["centroids"].to_dense(),
            rtol=1e-6, atol=1e-9,
        )
        self._same_counters(first_leg, "kmeans", engine)

    def test_als_cg(self, backend, first_leg):
        from repro.algorithms import als_cg

        x = MatrixBlock.rand(300, 40, sparsity=0.1, seed=9,
                             low=0.2, high=1.0)
        ref = als_cg(x, rank=4, engine=Engine(mode="base"), max_iter=2)
        engine = _spark_engine(backend=backend)
        got = als_cg(x, rank=4, engine=engine, max_iter=2)
        for factor in ("U", "V"):
            np.testing.assert_allclose(
                got.model[factor].to_dense(), ref.model[factor].to_dense(),
                rtol=1e-6, atol=1e-9,
            )
        self._same_counters(first_leg, "als_cg", engine)

    def test_autoencoder(self, backend, first_leg):
        from repro.algorithms import autoencoder
        from repro.data import generators

        x = generators.mnist_like(rows=600, seed=3)
        ref = autoencoder(x, h1=16, h2=2, engine=Engine(mode="base"),
                          batch_size=256, n_epochs=1)
        engine = _spark_engine(backend=backend)
        got = autoencoder(x, h1=16, h2=2, engine=engine,
                          batch_size=256, n_epochs=1)
        np.testing.assert_allclose(
            got.model["W1"].to_dense(), ref.model["W1"].to_dense(),
            rtol=1e-6, atol=1e-9,
        )
        np.testing.assert_allclose(ref.losses, got.losses, rtol=1e-6)
        self._same_counters(first_leg, "autoencoder", engine)


class TestBackendSeam:
    """The plan shapes both backends resolve through one path: a fused
    operator with a sliced *and* a broadcast side input, a zip of two
    co-partitioned blocked inputs, reduces, and a compressed broadcast
    (every task decompresses it, which the counters must show).  Values
    must be ``array_equal`` and the driver's accounting and the task
    counters equal, whichever backend ran the partitions."""

    @staticmethod
    def _run(build, mode, backend):
        engine = _spark_engine(mode, backend)
        shapes = set()
        target = engine._spark.backend
        for name in ("run_map", "run_spoof"):
            def spy(payload, main_blocked, plans, *rest,
                    _inner=getattr(target, name)):
                shapes.add(frozenset(mode for mode, _ in plans))
                return _inner(payload, main_blocked, plans, *rest)

            setattr(target, name, spy)
        return api.eval_all(build(), engine=engine), shapes, engine

    @pytest.mark.parametrize(
        "mode, build, shape",
        [
            ("gen",
             lambda x, col, row, cla: [((x * col) + row).sum(),
                                       ((x * col) + row).row_sums()],
             {"main", "slice", "whole"}),
            ("base",
             lambda x, col, row, cla: [(x * 2.0) * (x + 1.0)],
             {"main", "zip"}),
            ("base",
             lambda x, col, row, cla: [x.col_sums(), x.mean()],
             {"main"}),
            ("base",
             lambda x, col, row, cla: [(x @ cla).row_sums()],
             {"main", "whole"}),
        ],
        ids=["spoof-slice-and-broadcast", "zip", "reduce",
             "compressed-broadcast"],
    )
    def test_backends_agree(self, rng, mode, build, shape):
        from repro.runtime.compressed import compress

        data = rng.random((3000, 20))
        col, row = rng.random((3000, 1)), rng.random((1, 20))
        cla = compress(
            MatrixBlock(rng.integers(0, 3, (20, 20)).astype(float))
        )

        def bound():
            return build(api.matrix(data, "X"), api.matrix(col, "c"),
                         api.matrix(row, "r"), api.matrix(cla, "C"))

        sim, sim_shapes, sim_engine = self._run(bound, mode, "simulated")
        mp, mp_shapes, mp_engine = self._run(bound, mode, "multiprocess")
        assert frozenset(shape) in sim_shapes and sim_shapes == mp_shapes
        for got, want in zip(mp, sim):
            if isinstance(want, MatrixBlock):
                np.testing.assert_array_equal(got.to_dense(),
                                              want.to_dense())
            else:
                assert got == want
        for name in ("n_tree_reduces", "n_collects", "sim_seconds"):
            assert (getattr(mp_engine.stats, name)
                    == getattr(sim_engine.stats, name)), name
        assert _task_counters(mp_engine) == _task_counters(sim_engine)
        assert mp_engine.stats.n_mp_tasks > 0

    @pytest.mark.parametrize("backend", ["simulated", "multiprocess"])
    def test_row_aligned_compressed_side_is_sliced(self, rng, backend):
        """A compressed side input with the main input's row count cannot
        be row-sliced as is: it is decompressed once and sliced."""
        from repro.runtime.compressed import compress

        data = rng.random((4000, 20))
        side = compress(
            MatrixBlock(rng.integers(0, 3, (4000, 20)).astype(float))
        )

        def build():
            return [api.matrix(data, "X") * api.matrix(side, "C")]

        (got,), shapes, engine = self._run(build, "base", backend)
        (want,) = api.eval_all(build(), engine=Engine(mode="base"))
        assert frozenset({"main", "slice"}) in shapes
        np.testing.assert_array_equal(got.to_dense(), want.to_dense())
        assert engine.stats.n_decompressions == 1
