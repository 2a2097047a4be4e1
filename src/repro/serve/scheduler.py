"""Concurrent request scheduler over one shared engine.

:class:`SessionScheduler` is the server object of the serving
subsystem: callers :meth:`submit` requests against prepared programs
from any thread and receive a :class:`ServeTicket` (a future).  A pool
of worker threads drains the queue and multiplexes many in-flight
programs over the engine's one executor, each run on its worker's
thread.

Three serving policies live here:

* **admission control** — each request carries a memory estimate
  (input blocks + the specialization's intermediate footprint from
  :mod:`repro.hops.memory`); workers delay dispatch while admitting the
  request would push the in-flight total over the configured budget
  (an oversized request is admitted alone rather than starved),
* **micro-batching** — consecutive queued requests for the same
  prepared program whose batch inputs stack row-wise (and whose other
  inputs are identical) execute as one stacked program run and have
  their outputs split per request; programs whose outputs cannot be
  split fall back to per-request runs,
* **telemetry** — each served request is recorded once, under the
  stats lock, by ``RuntimeStats.observe_request``: its execution time
  and its latency and queue-wait histogram cells.  With the
  batch/specialization counters they make up
  ``RuntimeStats.serving_summary()``.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from collections import deque

from repro.errors import ServingError, UnbatchableProgramError
from repro.serve.prepared import PreparedProgram
from repro.serve.symbolic import normalize_inputs, same_data


class ServeTicket:
    """Future-style handle for one submitted request."""

    __slots__ = ("_event", "_result", "_error", "telemetry")

    def __init__(self):
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None
        #: Filled when the request completes: queue_seconds,
        #: exec_seconds, latency_seconds, batch_size.
        self.telemetry: dict = {}

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block until the request finished; returns its outputs."""
        if not self._event.wait(timeout):
            raise ServingError("timed out waiting for a served request")
        if self._error is not None:
            raise self._error
        return self._result

    def _resolve(self, result) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class _Request:
    __slots__ = ("prepared", "inputs", "ticket", "submitted_at", "tenant")

    def __init__(self, prepared, inputs, ticket, submitted_at,
                 tenant="default"):
        self.prepared = prepared
        self.inputs = inputs
        self.ticket = ticket
        self.submitted_at = submitted_at
        self.tenant = tenant


class SessionScheduler:
    """Thread-safe serving front end over one shared engine."""

    def __init__(self, engine, n_workers: int | None = None,
                 memory_budget: float | None = None, max_batch: int = 8):
        self.engine = engine
        if n_workers is None:
            n_workers = min(4, os.cpu_count() or 1)
        if engine.config.cluster is not None:
            # The simulated distributed backend serializes runs anyway;
            # one worker keeps its cost accounting deterministic.
            n_workers = 1
        self.n_workers = max(1, n_workers)
        self.memory_budget = (
            memory_budget if memory_budget is not None
            else engine.config.local_mem_budget
        )
        self.max_batch = max(1, max_batch)
        self._cv = threading.Condition()
        self._queue: deque[_Request] = deque()
        self._inflight_bytes = 0.0
        self._closed = False
        # Prepared programs whose outputs turned out unbatchable: skip
        # further merge attempts instead of recompiling stacked shapes.
        # Weak references, so a collected program's reused address can
        # never disable batching for an unrelated later program.
        self._unbatchable: "weakref.WeakSet" = weakref.WeakSet()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{index}",
                daemon=True,
            )
            for index in range(self.n_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def prepare(self, builder, name: str = "prepared",
                batch_inputs: tuple = ()) -> PreparedProgram:
        return self.engine.prepare(builder, name=name,
                                   batch_inputs=batch_inputs)

    def prepare_script(self, source: str, name: str = "script",
                       batch_inputs: tuple = ()) -> PreparedProgram:
        return self.engine.prepare_script(source, name=name,
                                          batch_inputs=batch_inputs)

    def submit(self, prepared: PreparedProgram, inputs: dict,
               tenant: str = "default") -> ServeTicket:
        """Enqueue one request; returns a ticket immediately.

        ``tenant`` keys the request's latency/queue-wait histogram
        cells, so ``serving_summary()`` reports per-tenant percentiles.
        """
        normalized = normalize_inputs(inputs)
        ticket = ServeTicket()
        request = _Request(prepared, normalized, ticket,
                           time.perf_counter(), tenant=tenant)
        with self._cv:
            if self._closed:
                raise ServingError("scheduler is closed")
            self._queue.append(request)
            # The condition hosts two predicates (idle workers and
            # admission waiters): notify_all so a wakeup consumed by an
            # admission waiter cannot strand an idle worker.
            self._cv.notify_all()
        return ticket

    def serve(self, prepared: PreparedProgram, inputs: dict,
              timeout: float | None = None, tenant: str = "default"):
        """Submit and wait: the synchronous convenience path."""
        return self.submit(prepared, inputs, tenant=tenant).result(timeout)

    def serving_summary(self) -> dict:
        summary = self.engine.stats.serving_summary()
        summary["queue_depth"] = len(self._queue)
        summary["n_workers"] = self.n_workers
        return summary

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; drain the queue, stop workers."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> "SessionScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue:
                    return  # closed and drained
                batch = self._take_batch()
            try:
                with self.engine.tracer.span("serve-batch", cat="serve",
                                             batch_size=len(batch)):
                    self._execute_batch(batch)
            except BaseException as error:  # backstop: never lose tickets
                for request in batch:
                    if not request.ticket.done():
                        request.ticket._fail(error)

    def _take_batch(self) -> list[_Request]:
        """Pop the head request plus queued batch-mates (cv held)."""
        head = self._queue.popleft()
        batch = [head]
        if (not head.prepared.batch_inputs or self.max_batch < 2
                or head.prepared in self._unbatchable):
            return batch
        kept: deque[_Request] = deque()
        while self._queue and len(batch) < self.max_batch:
            candidate = self._queue.popleft()
            if self._can_merge(head, candidate):
                batch.append(candidate)
            else:
                kept.append(candidate)
        self._queue.extendleft(reversed(kept))
        return batch

    def _can_merge(self, head: _Request, other: _Request) -> bool:
        if other.prepared is not head.prepared:
            return False
        for name, value in head.inputs.items():
            if name not in other.inputs:
                return False
            other_value = other.inputs[name]
            if name in head.prepared.batch_inputs:
                # Stackable: same columns and storage family (merging
                # sparse into dense would densify the stacked block and
                # blow past the admission estimate).
                if (getattr(other_value, "cols", None)
                        != getattr(value, "cols", None)):
                    return False
                if (getattr(other_value, "is_sparse", None)
                        != getattr(value, "is_sparse", None)):
                    return False
            elif isinstance(value, float):
                if other_value != value:
                    return False
            elif not same_data(value, other_value):
                # Non-batch matrices must share their underlying data
                # (model weights reused across requests).
                return False
        return len(other.inputs) == len(head.inputs)

    # ------------------------------------------------------------------
    def _admit(self, estimated: float) -> None:
        """Block until the request fits the in-flight memory budget."""
        stats = self.engine.stats
        with self.engine.tracer.span("serve-admit", cat="serve",
                                     bytes=estimated):
            with self._cv:
                waited = False
                while (self._inflight_bytes > 0.0
                       and (self._inflight_bytes + estimated
                            > self.memory_budget)):
                    waited = True
                    self._cv.wait()
                self._inflight_bytes += estimated
        if waited:
            with stats.lock:
                stats.n_admission_waits += 1

    def _release(self, estimated: float) -> None:
        with self._cv:
            self._inflight_bytes -= estimated
            self._cv.notify_all()

    def _execute_batch(self, batch: list[_Request]) -> None:
        dispatched_at = time.perf_counter()
        if len(batch) > 1:
            try:
                self._run_merged(batch, dispatched_at)
                return
            except UnbatchableProgramError:
                # Structurally unsplittable outputs: serve each request
                # on its own, and stop merging this program for good.
                with self._cv:
                    self._unbatchable.add(batch[0].prepared)
                with self.engine.stats.lock:
                    self.engine.stats.n_batch_fallbacks += 1
            except Exception:
                # Request-specific failure (bad inputs, stacking error,
                # runtime fault): per-request execution still gives
                # every ticket a correct result or its own error, and
                # future batches stay possible.
                with self.engine.stats.lock:
                    self.engine.stats.n_batch_fallbacks += 1
        for request in batch:
            self._run_single(request, dispatched_at)

    def _run_single(self, request: _Request, dispatched_at: float) -> None:
        try:
            bound = request.prepared.bind(request.inputs)
            estimated = bound.estimated_bytes
            self._admit(estimated)
            try:
                result = request.prepared.execute_bound(bound)
            finally:
                self._release(estimated)
        except BaseException as error:
            request.ticket._fail(error)
            return
        self._finish([request], [result], dispatched_at, batch_size=1)

    def _run_merged(self, batch: list[_Request],
                    dispatched_at: float) -> None:
        """One stacked run for the whole batch (may raise ServingError)."""
        prepared = batch[0].prepared
        inputs_list = [request.inputs for request in batch]
        # Bind first so an unbatchable specialization raises before any
        # admission accounting happens.
        batch_bound = prepared.bind_batch(inputs_list)
        estimated = batch_bound.estimated_bytes
        self._admit(estimated)
        try:
            results = prepared.execute_batch(batch_bound)
        finally:
            self._release(estimated)
        with self.engine.stats.lock:
            self.engine.stats.n_batches_executed += 1
            self.engine.stats.n_requests_batched += len(batch)
        self._finish(batch, results, dispatched_at, batch_size=len(batch))

    def _finish(self, batch, results, dispatched_at: float,
                batch_size: int) -> None:
        finished_at = time.perf_counter()
        stats = self.engine.stats
        tracer = self.engine.tracer
        exec_seconds = finished_at - dispatched_at
        with stats.lock:
            for request, result in zip(batch, results):
                queue_seconds = dispatched_at - request.submitted_at
                latency = finished_at - request.submitted_at
                request.ticket.telemetry.update(
                    queue_seconds=queue_seconds,
                    exec_seconds=exec_seconds,
                    latency_seconds=latency,
                    batch_size=batch_size,
                )
                # Queue wait as an instant (not an interval): the wait
                # started on the submitter's thread, so an interval span
                # here would partially overlap this worker's open spans.
                tracer.instant("serve-queue", cat="serve",
                               queue_seconds=queue_seconds,
                               tenant=request.tenant,
                               program=request.prepared.name)
                stats.observe_request(request.prepared.name, request.tenant,
                                      queue_seconds, exec_seconds, latency)
                request.ticket._resolve(result)
