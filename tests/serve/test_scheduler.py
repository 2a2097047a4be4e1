"""SessionScheduler: concurrency, micro-batching, admission control."""

import threading
import time

import numpy as np
import pytest

from repro.errors import ServingError, ShapeError
from repro.serve import SessionScheduler
from tests.conftest import make_engine

RNG = np.random.default_rng(29)
WD = RNG.random((12, 1))
SRC = "input X, w\nscores = X %*% w\n"


def _prepared(engine, batch=True):
    return engine.prepare_script(
        SRC, name="score", batch_inputs=("X",) if batch else ()
    )


class TestScheduling:
    def test_concurrent_submits_equal_serial(self):
        engine = make_engine("gen")
        prepared = _prepared(engine)
        parts = [RNG.random((30, 12)) for _ in range(24)]
        with SessionScheduler(engine, n_workers=4) as server:
            tickets = [
                server.submit(prepared, {"X": part, "w": WD})
                for part in parts
            ]
            results = [t.result(30) for t in tickets]
        for part, out in zip(parts, results):
            np.testing.assert_allclose(
                out["scores"].to_dense(), part @ WD, rtol=1e-10
            )
        assert engine.stats.n_requests_served == 24
        # Identical 30-row requests can only produce stacked batches of
        # 30/60/90/120 rows — at most four cold compiles, everything
        # else reuses a cached specialization.
        assert engine.stats.n_specialization_misses <= 4

    def test_submissions_from_many_threads(self):
        engine = make_engine("gen")
        prepared = _prepared(engine, batch=False)
        parts = [RNG.random((25, 12)) for _ in range(16)]
        results: dict[int, object] = {}

        with SessionScheduler(engine, n_workers=4) as server:
            def client(index):
                ticket = server.submit(prepared, {"X": parts[index], "w": WD})
                results[index] = ticket.result(30)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(parts))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for index, part in enumerate(parts):
            np.testing.assert_allclose(
                results[index]["scores"].to_dense(), part @ WD, rtol=1e-10
            )

    def test_micro_batching_merges_queued_requests(self):
        engine = make_engine("gen")
        prepared = _prepared(engine)
        parts = [RNG.random((10, 12)) for _ in range(8)]
        # A single worker guarantees requests queue up behind the first
        # dispatch, so later ones merge into stacked batches.
        with SessionScheduler(engine, n_workers=1, max_batch=4) as server:
            tickets = [
                server.submit(prepared, {"X": part, "w": WD})
                for part in parts
            ]
            results = [t.result(30) for t in tickets]
        for part, out in zip(parts, results):
            np.testing.assert_allclose(
                out["scores"].to_dense(), part @ WD, rtol=1e-10
            )
        assert engine.stats.n_batches_executed >= 1
        assert engine.stats.n_requests_batched >= 2
        batched = [t for t in tickets if t.telemetry["batch_size"] > 1]
        assert batched

    def test_unbatchable_program_falls_back_per_request(self):
        engine = make_engine("gen")
        prepared = engine.prepare_script(
            "input X, w\nloss = sum(X %*% w)\n", name="agg",
            batch_inputs=("X",),
        )
        parts = [RNG.random((10, 12)) for _ in range(6)]
        with SessionScheduler(engine, n_workers=1, max_batch=4) as server:
            tickets = [
                server.submit(prepared, {"X": part, "w": WD})
                for part in parts
            ]
            results = [t.result(30) for t in tickets]
        for part, out in zip(parts, results):
            assert out["loss"] == pytest.approx(float((part @ WD).sum()))
        assert engine.stats.n_requests_served == 6

    def test_admission_control_under_tiny_budget(self):
        engine = make_engine("gen")
        prepared = _prepared(engine, batch=False)
        parts = [RNG.random((40, 12)) for _ in range(12)]
        # Budget below two concurrent requests: workers must take turns,
        # but every request still completes (oversized requests are
        # admitted alone rather than starved).
        with SessionScheduler(engine, n_workers=4,
                              memory_budget=6000.0) as server:
            tickets = [
                server.submit(prepared, {"X": part, "w": WD})
                for part in parts
            ]
            results = [t.result(60) for t in tickets]
        for part, out in zip(parts, results):
            np.testing.assert_allclose(
                out["scores"].to_dense(), part @ WD, rtol=1e-10
            )

    def test_admission_waits_and_releases(self):
        """Deterministic admission semantics on the scheduler object."""
        engine = make_engine("gen")
        server = SessionScheduler(engine, n_workers=1,
                                  memory_budget=10_000.0)
        try:
            server._admit(8_000.0)  # fits an empty budget
            blocked = threading.Event()

            def second():
                server._admit(8_000.0)  # over budget: must wait
                blocked.set()

            thread = threading.Thread(target=second)
            thread.start()
            time.sleep(0.05)
            assert not blocked.is_set()  # still waiting on the budget
            server._release(8_000.0)
            assert blocked.wait(5.0)
            server._release(8_000.0)
            thread.join()
            assert engine.stats.n_admission_waits == 1
            # An oversized request is admitted alone, never starved.
            server._admit(1e12)
            server._release(1e12)
        finally:
            server.close()

    def test_failed_merged_run_falls_back_per_request(self):
        """An unexpected (non-ServingError) failure of the stacked run
        must not kill the worker or strand tickets: each request is
        retried individually."""
        engine = make_engine("gen")
        prepared = _prepared(engine)
        original = prepared.execute_batch

        def exploding_execute_batch(batch):
            raise RuntimeError("injected stacked-run failure")

        prepared.execute_batch = exploding_execute_batch
        try:
            parts = [RNG.random((10, 12)) for _ in range(6)]
            with SessionScheduler(engine, n_workers=1, max_batch=4) as server:
                tickets = [
                    server.submit(prepared, {"X": part, "w": WD})
                    for part in parts
                ]
                results = [t.result(30) for t in tickets]
        finally:
            prepared.execute_batch = original
        for part, out in zip(parts, results):
            np.testing.assert_allclose(
                out["scores"].to_dense(), part @ WD, rtol=1e-10
            )

    def test_sparse_and_dense_requests_do_not_merge(self):
        """Stacking sparse into dense would densify the batch block,
        blowing the admission estimate — such requests stay separate."""
        from repro.runtime.matrix import MatrixBlock
        from repro.serve.scheduler import _Request

        engine = make_engine("gen")
        prepared = _prepared(engine)
        server = SessionScheduler(engine, n_workers=1)
        try:
            dense = {"X": MatrixBlock(RNG.random((10, 12))), "w": WD}
            sparse = {"X": MatrixBlock.rand(10, 12, sparsity=0.05, seed=9),
                      "w": WD}
            from repro.serve.symbolic import normalize_inputs

            a = _Request(prepared, normalize_inputs(dense), None, 0.0)
            b = _Request(prepared, normalize_inputs(sparse), None, 0.0)
            assert not server._can_merge(a, b)
            c = _Request(prepared, normalize_inputs(dense), None, 0.0)
            assert server._can_merge(a, c)
        finally:
            server.close()

    def test_request_errors_do_not_disable_batching(self):
        """A merged batch failing on *request* validation (missing a
        declared input) must not mark the program unbatchable — later
        well-formed requests still micro-batch."""
        engine = make_engine("gen")
        prepared = _prepared(engine)
        parts = [RNG.random((10, 12)) for _ in range(4)]
        with SessionScheduler(engine, n_workers=1, max_batch=4) as server:
            bad = [server.submit(prepared, {"X": part}) for part in parts]
            for ticket in bad:
                with pytest.raises(ServingError, match="missing declared"):
                    ticket.result(30)
            good = [server.submit(prepared, {"X": part, "w": WD})
                    for part in parts]
            for ticket, part in zip(good, parts):
                out = ticket.result(30)
                np.testing.assert_allclose(
                    out["scores"].to_dense(), part @ WD, rtol=1e-10
                )
        assert engine.stats.n_batches_executed >= 1

    def test_failing_member_of_a_mixed_batch(self):
        """One member of a micro-batch cannot be stacked (its two batch
        inputs disagree on rows): the batch falls back once, every good
        request still gets its own correct result, the bad one gets its
        own error, and later batches of the program still merge."""
        engine = make_engine("gen")
        prepared = engine.prepare_script(
            "input X, Y, w\nscores = (X + Y) %*% w\n", name="pair",
            batch_inputs=("X", "Y"),
        )
        good = [(RNG.random((10, 12)), RNG.random((10, 12)))
                for _ in range(5)]
        bad = (RNG.random((10, 12)), RNG.random((7, 12)))
        with SessionScheduler(engine, n_workers=1, max_batch=4) as server:
            # Holding the queue's condition while submitting makes the
            # worker take all four requests as one batch.
            with server._cv:
                tickets = [
                    server.submit(prepared, {"X": x, "Y": y, "w": WD})
                    for x, y in (good[0], bad, good[1], good[2])
                ]
            with pytest.raises(ShapeError, match=r"\(10, 12\) vs \(7, 12\)"):
                tickets[1].result(30)
            good_tickets = [tickets[0], tickets[2], tickets[3]]
            for ticket, (x, y) in zip(good_tickets, good[:3]):
                np.testing.assert_allclose(
                    ticket.result(30)["scores"].to_dense(), (x + y) @ WD,
                    rtol=1e-10,
                )
            stats = engine.stats
            assert stats.n_batch_fallbacks == 1
            assert stats.n_batches_executed == 0
            assert stats.n_requests_served == 3
            assert sum(cell.count
                       for cell in stats.serve_latency_hist.values()) == 3
            assert prepared not in server._unbatchable

            with server._cv:
                again = [
                    server.submit(prepared, {"X": x, "Y": y, "w": WD})
                    for x, y in good[3:]
                ]
            for ticket, (x, y) in zip(again, good[3:]):
                np.testing.assert_allclose(
                    ticket.result(30)["scores"].to_dense(), (x + y) @ WD,
                    rtol=1e-10,
                )
        assert stats.n_batches_executed == 1
        assert stats.n_batch_fallbacks == 1
        assert stats.serving_summary()["per_tenant"]["default"]["n"] == 5

    def test_errors_propagate_to_the_ticket(self):
        engine = make_engine("gen")
        prepared = _prepared(engine, batch=False)
        with SessionScheduler(engine, n_workers=2) as server:
            ticket = server.submit(prepared, {"X": RNG.random((5, 7))})
            with pytest.raises(ServingError, match="missing declared"):
                ticket.result(30)

    def test_closed_scheduler_rejects_submissions(self):
        engine = make_engine("gen")
        prepared = _prepared(engine, batch=False)
        server = SessionScheduler(engine, n_workers=1)
        server.close()
        with pytest.raises(ServingError, match="closed"):
            server.submit(prepared, {"X": RNG.random((5, 12)), "w": WD})

    def test_telemetry_fields_populated(self):
        engine = make_engine("gen")
        prepared = _prepared(engine, batch=False)
        with SessionScheduler(engine, n_workers=1) as server:
            ticket = server.submit(prepared, {"X": RNG.random((8, 12)),
                                              "w": WD})
            ticket.result(30)
        telemetry = ticket.telemetry
        assert telemetry["latency_seconds"] >= telemetry["queue_seconds"]
        assert telemetry["batch_size"] == 1
        summary = server.serving_summary()
        assert summary["n_requests_served"] == 1
        assert summary["serve_latency_seconds"] > 0.0
        assert summary["mean_latency_seconds"] > 0.0
