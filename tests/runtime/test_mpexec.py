"""Multiprocess distributed backend (repro.runtime.mpexec).

Covers the transport round-trip contract for all three block formats,
bit-identity against the simulated backend, fault injection (worker
death and straggler timeout recover via lineage recompute), locality
reuse, worker stats/span merge-back, and the ThreadBudget
oversubscription guard when the pool runs under a SessionScheduler.
"""

import json
import multiprocessing
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import api
from repro.compiler.execution import Engine
from repro.config import ClusterConfig, CodegenConfig
from repro.errors import RuntimeExecError
from repro.runtime import mpexec
from repro.runtime import parallel as parallel_mod
from repro.runtime.compressed import CompressedMatrix, compress
from repro.runtime.matrix import MatrixBlock
from repro.runtime.parallel import ThreadBudget


def _mp_config(**kwargs) -> CodegenConfig:
    defaults = dict(
        cluster=ClusterConfig(n_workers=4, executor_mem=10e6),
        local_mem_budget=2e4,
        distributed_backend="multiprocess",
        mp_workers=2,
    )
    defaults.update(kwargs)
    return CodegenConfig(**defaults)


def _mp_engine(**kwargs) -> Engine:
    return Engine(mode="gen", config=_mp_config(**kwargs))


def _backend(engine) -> mpexec.ProcessPoolBackend:
    backend = engine._spark.backend
    assert backend is not None
    return backend


# ----------------------------------------------------------------------
# Transport contract
# ----------------------------------------------------------------------
class TestTransportContract:
    """encode/decode and the real worker round-trip must preserve every
    block format exactly — a silent corruption of a compressed group
    would poison every downstream operator."""

    def test_dense_encodes_shared_memory(self, rng):
        block = MatrixBlock(rng.random((64, 64)))  # 32 KB > threshold
        segments = []
        desc, shm_b, pkl_b = mpexec.encode_value(block, segments)
        assert desc[0] == "shm" and shm_b == block.to_dense().nbytes
        assert pkl_b == 0.0 and len(segments) == 1
        value, seg = mpexec.decode_value(desc)
        try:
            assert isinstance(value, MatrixBlock)
            np.testing.assert_array_equal(
                value.to_dense(), block.to_dense()
            )
            assert not value.to_dense().flags.writeable
        finally:
            del value
            if seg is not None:
                seg.close()
            segments[0].close()
            segments[0].unlink()

    def test_small_dense_takes_pickle_path(self, rng):
        block = MatrixBlock(rng.random((4, 4)))
        desc, shm_b, pkl_b = mpexec.encode_value(block, [])
        assert desc[0] == "raw" and shm_b == 0.0 and pkl_b > 0.0
        value, seg = mpexec.decode_value(desc)
        assert seg is None and value is block

    def test_csr_takes_pickle_path(self):
        block = MatrixBlock.rand(64, 64, sparsity=0.05, seed=3)
        assert block.is_sparse
        desc, shm_b, _pkl_b = mpexec.encode_value(block, [])
        assert desc[0] == "raw" and shm_b == 0.0

    def test_worker_roundtrip_dense_shm(self, rng):
        engine = _mp_engine()
        block = MatrixBlock(rng.random((50, 20)))
        (got,) = _backend(engine).roundtrip([block], force_shm=True)
        assert isinstance(got, MatrixBlock) and not got.is_sparse
        np.testing.assert_array_equal(got.to_dense(), block.to_dense())
        summary = engine.stats.distributed_backend_summary()
        assert summary["mp_shm_mb"] > 0.0

    def test_worker_roundtrip_csr(self):
        engine = _mp_engine()
        block = MatrixBlock.rand(60, 12, sparsity=0.1, seed=5)
        (got,) = _backend(engine).roundtrip([block])
        assert isinstance(got, MatrixBlock) and got.is_sparse
        np.testing.assert_array_equal(got.to_dense(), block.to_dense())

    def test_worker_roundtrip_compressed(self, rng):
        # Low-cardinality columns produce DDC/OLE groups; adjacent
        # low-cardinality pairs co-code into multi-column groups.
        dense = np.column_stack(
            [
                rng.integers(0, 3, 200).astype(float),
                rng.integers(0, 2, 200).astype(float),
                (rng.random(200) < 0.05) * 7.0,  # mostly-zero: OLE
                rng.random(200),  # incompressible fallback column
            ]
        )
        cm = compress(MatrixBlock(dense), co_code=True)
        assert isinstance(cm, CompressedMatrix)
        engine = _mp_engine()
        (got,) = _backend(engine).roundtrip([cm])
        assert isinstance(got, CompressedMatrix)
        assert got.shape == cm.shape
        assert len(got.groups) == len(cm.groups)
        for ours, theirs in zip(cm.groups, got.groups):
            assert theirs.encoding == ours.encoding
            assert theirs.cols == ours.cols
            np.testing.assert_array_equal(
                theirs.dictionary, ours.dictionary
            )
        np.testing.assert_array_equal(
            got.decompress().to_dense(), dense
        )

    def test_scalars_pass_through(self):
        engine = _mp_engine()
        got = _backend(engine).roundtrip([3.5, None, (1, 2)])
        assert got == [3.5, None, (1, 2)]


# ----------------------------------------------------------------------
# Bit-identity vs the simulated backend
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_l2svm_bit_identical_across_backends(self):
        from repro.algorithms import l2svm
        from repro.data import generators

        x, y = generators.classification_data(400, 12, n_classes=2,
                                              seed=1)
        sim = l2svm(x, y, engine=Engine(
            mode="gen",
            config=_mp_config(distributed_backend="simulated"),
        ), max_iter=3)
        engine = _mp_engine()
        got = l2svm(x, y, engine=engine, max_iter=3)
        assert np.array_equal(
            got.model["w"].to_dense(), sim.model["w"].to_dense()
        )
        assert engine.stats.n_mp_tasks > 0

    def test_reduce_and_map_bit_identical(self, rng):
        data = rng.random((3000, 24))

        def run(backend):
            engine = Engine(
                mode="gen",
                config=_mp_config(distributed_backend=backend),
            )
            x = api.matrix(data, "X")
            return api.eval_all(
                [
                    ((x * 2.0) + 1.0).row_sums(),
                    x.col_sums(),
                    (x * x).sum(),
                ],
                engine=engine,
            )

        sim, mp = run("simulated"), run("multiprocess")
        np.testing.assert_array_equal(
            mp[0].to_dense(), sim[0].to_dense()
        )
        np.testing.assert_array_equal(
            mp[1].to_dense(), sim[1].to_dense()
        )
        assert mp[2] == sim[2]


# ----------------------------------------------------------------------
# Fault injection: death and stragglers recover via lineage recompute
# ----------------------------------------------------------------------
class TestFaultInjection:
    def _workload(self, engine, data):
        x = api.matrix(data, "X")
        return api.eval(((x * 2.0) + 1.0).row_sums(), engine=engine)

    def test_worker_death_recovers(self, rng):
        data = rng.random((3000, 20))
        ref = self._workload(Engine(mode="base"), data)
        engine = _mp_engine()
        _backend(engine).inject_failure("die")
        got = self._workload(engine, data)
        np.testing.assert_array_equal(got.to_dense(), ref.to_dense())
        summary = engine.stats.distributed_backend_summary()
        assert summary["n_worker_respawns"] >= 1
        assert summary["n_task_retries"] >= 1
        assert summary["n_lineage_recomputes"] >= 1

    def test_straggler_timeout_recovers(self, rng, monkeypatch):
        data = rng.random((3000, 20))
        ref = self._workload(Engine(mode="base"), data)
        monkeypatch.setattr(mpexec, "_TASK_TIMEOUT_S", 1.5)
        engine = _mp_engine()
        _backend(engine).inject_failure("hang")
        got = self._workload(engine, data)
        np.testing.assert_array_equal(got.to_dense(), ref.to_dense())
        summary = engine.stats.distributed_backend_summary()
        assert summary["n_worker_respawns"] >= 1
        assert summary["n_task_retries"] >= 1

    def test_repeated_death_exhausts_retries(self, rng, monkeypatch):
        data = rng.random((3000, 20))
        monkeypatch.setattr(mpexec, "_MAX_RETRIES", 1)
        engine = _mp_engine()
        # Arm more faults than there are dispatches: first attempts AND
        # their retries die, so the retry budget must run out instead of
        # looping forever.
        _backend(engine).inject_failure("die", count=256)
        with pytest.raises(RuntimeExecError, match="failed after"):
            self._workload(engine, data)
        # Disarm leftover faults so the shared pool is clean.
        _backend(engine)._inject.clear()

    def test_summary_counters_are_zero_on_clean_runs(self, rng):
        engine = _mp_engine()
        self._workload(engine, rng.random((3000, 20)))
        summary = engine.stats.distributed_backend_summary()
        assert summary["n_task_retries"] == 0
        assert summary["n_lineage_recomputes"] == 0
        assert summary["n_worker_respawns"] == 0
        assert summary["n_mp_tasks"] > 0


# ----------------------------------------------------------------------
# Locality, stats merge-back, spans
# ----------------------------------------------------------------------
class TestLocalityAndStats:
    def test_repeated_input_hits_worker_caches(self, rng):
        data = MatrixBlock(rng.random((3000, 20)))
        engine = _mp_engine()
        for _ in range(3):
            api.eval((api.matrix(data, "X") * 2.0).sum(), engine=engine)
        summary = engine.stats.distributed_backend_summary()
        assert summary["n_mp_locality_hits"] > 0
        assert summary["n_mp_block_ships"] < summary["n_mp_tasks"]

    def test_side_inputs_broadcast_once_per_operator(self, rng):
        data = rng.random((3000, 20))
        v = rng.random((20, 1))
        engine = _mp_engine()
        api.eval(
            (api.matrix(data, "X") @ api.matrix(v, "v")).sum(),
            engine=engine,
        )
        # One broadcast per participating worker per operator, never
        # one per task.
        assert 0 < engine.stats.n_mp_broadcasts <= (
            2 * engine.stats.n_distributed_ops
        )

    def test_worker_kernel_stats_merge_back(self, rng):
        engine = _mp_engine()
        data = rng.random((3000, 20))
        api.eval(
            (((api.matrix(data, "X") * 2.0) + 1.0) * 0.5).sum(),
            engine=engine,
        )
        # The fused operator ran only inside workers (the driver never
        # calls execute_operator on the backend path), so any run
        # counter proves worker stats merged back into the parent.
        assert engine.stats.n_mp_tasks > 0
        assert engine.stats.n_compiled_runs > 0

    def test_worker_spans_merge_into_trace(self, rng, tmp_path):
        engine = Engine(
            mode="gen", config=_mp_config(trace_level="instructions")
        )
        data = rng.random((3000, 20))
        api.eval((api.matrix(data, "X") * 2.0).sum(), engine=engine)
        path = tmp_path / "trace.json"
        engine.export_trace(str(path))
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        mp_events = [e for e in events if e["name"] == "mp:task"]
        assert mp_events, "worker task spans missing from the trace"
        assert all(e["tid"] >= 1_000_000 for e in mp_events)


# ----------------------------------------------------------------------
# Fork-safety guards
# ----------------------------------------------------------------------
class TestSpawnGuards:
    def test_start_method_is_spawn(self):
        assert mpexec.start_method() == "spawn"

    def test_ensure_waits_for_each_new_worker_to_boot(self, monkeypatch):
        """An operator gets workers that have finished importing, so the
        segments it creates and its task timeouts never span a boot."""
        booted, worker_ends = [], []

        def spawn(self, wid):
            ours, theirs = multiprocessing.Pipe()
            worker_ends.append(theirs)  # a closed end reads as ready

            def boot():
                time.sleep(0.2)
                booted.append(wid)
                theirs.send(("ready",))

            threading.Thread(target=boot, daemon=True).start()
            proc = SimpleNamespace(is_alive=lambda: True)
            return mpexec._Worker(wid, proc, ours)

        monkeypatch.setattr(mpexec.ProcessPool, "_spawn", spawn)
        pool = mpexec.ProcessPool()
        workers = pool.ensure(2)
        assert sorted(booted) == [0, 1]
        assert not any(worker.conn.poll() for worker in workers)
        # Nothing new to spawn: nothing to wait for.
        assert pool.ensure(2) == workers
        assert len(booted) == 2

    def test_worker_rejects_nondeterministic_source(self, rng):
        """The worker-side regeneration assert: shipped sources that
        the cplan cannot reproduce byte-for-byte must be refused —
        the ``genexec`` module and the whole-block kernel alike."""
        from repro.codegen import pygen
        from repro.runtime.stats import RuntimeStats

        engine = _mp_engine()
        data = rng.random((3000, 20))
        api.eval(
            ((api.matrix(data, "X") * 2.0) + 1.0).sum(), engine=engine
        )
        operators = [
            op for op in engine.plan_cache._cache.values()
            if isinstance(op, pygen.GeneratedOperator)
        ]
        assert operators
        op = operators[0]
        assert len(op.sources) > 1
        for i in range(len(op.sources)):
            sources = tuple(
                source + "\n# tampered" if k == i else source
                for k, source in enumerate(op.sources)
            )
            with pytest.raises(RuntimeExecError, match="diverged"):
                mpexec._materialize_operator(
                    {op.name: (sources, op.cplan)}, op.name,
                    engine.config, RuntimeStats()
                )
        rebuilt = mpexec._materialize_operator(
            {op.name: (op.sources, op.cplan)}, op.name, engine.config,
            RuntimeStats()
        )
        assert rebuilt.sources == op.sources

    def test_pool_under_scheduler_respects_thread_budget(
        self, rng, monkeypatch
    ):
        """A worker pool created from inside a SessionScheduler request
        must not oversubscribe the process-wide ThreadBudget."""
        from repro.serve.scheduler import SessionScheduler

        budget = ThreadBudget(total=4)
        monkeypatch.setattr(parallel_mod, "_BUDGET", budget)
        engine = _mp_engine()
        weights = rng.random((20, 1))

        def builder(inputs):
            x = inputs["X"]
            w = api.matrix(weights, "w")
            return [((x @ w) * 2.0).sum()]

        with SessionScheduler(engine, n_workers=2) as scheduler:
            prepared = scheduler.prepare(builder, name="mp-guarded")
            tickets = [
                scheduler.submit(
                    prepared, {"X": rng.random((3000, 20))}
                )
                for _ in range(4)
            ]
            results = [t.result(timeout=60) for t in tickets]
        assert len(results) == 4
        assert budget.peak <= 4
        assert engine.stats.n_mp_tasks > 0


# ----------------------------------------------------------------------
# Worker-side helpers (in-process units)
# ----------------------------------------------------------------------
class TestWorkerHelpers:
    """Drive the worker-side pieces directly in the parent process —
    the spawned twins run uninstrumented, so these keep the block
    cache, kernel dispatch, and stats export logic under test (and
    under coverage) without a child process in the loop."""

    def test_block_cache_lru_eviction(self, rng):
        block = MatrixBlock(rng.random((100, 10)))  # 8 KB each
        cache = mpexec._BlockCache(cap_bytes=2.5 * block.size_bytes)
        assert cache.put((1, ("v", 0), 0), block, None) == []
        assert cache.put((1, ("v", 0), 1), block, None) == []
        # Touch the oldest entry so the *other* one is evicted.
        assert cache.get((1, ("v", 0), 0)) is block
        evicted = cache.put((1, ("v", 0), 2), block, None)
        assert evicted == [(1, ("v", 0), 1)]
        assert cache.get((1, ("v", 0), 1)) is None
        assert cache.get((1, ("v", 0), 0)) is block

    def test_reshipped_block_supersedes_the_cached_one(self, rng):
        """A ``("data", id)`` key comes back once its source died and a
        new block took the address: the driver ships the new block, and
        every later locality hit must read it, not the dead one."""
        wkey = (1, ("data", 1234), 0)
        caches: dict = {}

        def ship(block):
            task = {"cache_bytes": 1e6, "kind": "echo",
                    "inputs": [("block", wkey, ("raw", block))]}
            return mpexec._run_task(task, caches, {}, {})[0][0]

        def hit():
            task = {"cache_bytes": 1e6, "kind": "echo",
                    "inputs": [("block", wkey, None)]}
            return mpexec._run_task(task, caches, {}, {})[0][0]

        dead = MatrixBlock(rng.random((50, 8)))
        live = MatrixBlock(rng.random((50, 8)))
        assert ship(dead) is dead and hit() is dead
        assert ship(live) is live
        assert hit() is live
        cache = caches["blocks"]
        assert list(cache.entries) == [wkey]
        assert cache.bytes == cache.entries[wkey][2]

    def test_block_cache_prune_drops_dead_epochs(self, rng):
        block = MatrixBlock(rng.random((10, 10)))
        cache = mpexec._BlockCache(cap_bytes=1e9)
        cache.put((1, ("v", 0), 0), block, None)
        cache.put((1, ("v", 5), 0), block, None)
        cache.put((1, ("data", 7), 0), block, None)
        cache.put((2, ("v", 0), 0), block, None)  # other backend
        cache.prune(backend_id=1, live_epoch=5)
        assert cache.get((1, ("v", 0), 0)) is None
        assert cache.get((1, ("v", 5), 0)) is block
        assert cache.get((1, ("data", 7), 0)) is block
        assert cache.get((2, ("v", 0), 0)) is block

    def test_apply_spec_dispatch(self, rng):
        from repro.runtime import ops as rops
        from repro.runtime.stats import RuntimeStats

        stats = RuntimeStats()
        a = MatrixBlock(rng.random((6, 4)) - 0.5)
        b = MatrixBlock(rng.random((6, 4)))
        got = rops.apply_spec(("unary", "abs"), [a], stats)
        np.testing.assert_array_equal(
            got.to_dense(), np.abs(a.to_dense())
        )
        got = rops.apply_spec(("binary", "+"), [a, b], stats)
        np.testing.assert_array_equal(
            got.to_dense(), a.to_dense() + b.to_dense()
        )
        got = rops.apply_spec(("agg_unary", "sum", "row"), [a], stats)
        np.testing.assert_array_equal(
            got.to_dense(), a.to_dense().sum(axis=1, keepdims=True)
        )
        got = rops.apply_spec(
            ("matmult",), [a, MatrixBlock(rng.random((4, 2)))], stats
        )
        assert got.shape == (6, 2)
        with pytest.raises(RuntimeExecError, match="unknown"):
            rops.apply_spec(("frobnicate",), [a], stats)

    def test_export_stats_keeps_nonzero_counters_only(self):
        from repro.runtime.stats import RuntimeStats

        stats = RuntimeStats()
        stats.n_compiled_runs = 3
        stats.sim_seconds = 0.25
        counters, metrics = mpexec._export_stats(stats)
        assert counters["n_compiled_runs"] == 3
        assert counters["sim_seconds"] == 0.25
        assert "n_kernel_compiles" not in counters  # zero: dropped
        assert metrics is None

    def test_run_task_hop_cache_and_miss(self, rng):
        block = MatrixBlock(rng.random((50, 8)) - 0.5)
        desc, _shm, _pkl = mpexec.encode_value(block, [])
        wkey = (1, ("v", 3), 0)
        caches: dict = {}
        task = {
            "cache_bytes": 1e6,
            "inputs": [("value", desc)],
            "kind": "hop",
            "spec": ("unary", "abs"),
            "cache_as": wkey,
        }
        result, stats, evicted, _holds = mpexec._run_task(
            task, caches, {}, {}
        )
        np.testing.assert_array_equal(
            result.to_dense(), np.abs(block.to_dense())
        )
        assert evicted == []
        # A follow-up task reads the cached output without a payload.
        echo = {
            "cache_bytes": 1e6,
            "inputs": [("block", wkey, None), ("bcast", 9, 0)],
            "kind": "echo",
        }
        values, _stats, _evicted, _holds = mpexec._run_task(
            echo, caches, {}, {9: [(4.5,)]}
        )
        np.testing.assert_array_equal(
            values[0].to_dense(), np.abs(block.to_dense())
        )
        assert values[1] == 4.5
        # A cold cache turns the same read into a miss reply.
        missed, payload, _evicted, _holds = mpexec._run_task(
            echo, {}, {}, {9: [(4.5,)]}
        )
        assert missed == wkey and payload is None


# ----------------------------------------------------------------------
# Summary surface
# ----------------------------------------------------------------------
class TestBackendSummary:
    def test_summary_shape(self, rng):
        engine = _mp_engine()
        api.eval(
            (api.matrix(rng.random((3000, 20)), "X") * 2.0).sum(),
            engine=engine,
        )
        summary = engine.stats.distributed_backend_summary()
        expected = {
            "n_mp_tasks", "n_mp_broadcasts", "n_mp_block_ships",
            "n_mp_locality_hits", "n_task_retries",
            "n_lineage_recomputes", "n_worker_respawns", "mp_shm_mb",
            "mp_pickle_mb", "shm_fraction", "mp_max_workers",
        }
        assert expected <= set(summary)
        assert summary["n_mp_tasks"] > 0
        assert summary["mp_max_workers"] >= 1
        assert 0.0 <= summary["shm_fraction"] <= 1.0
