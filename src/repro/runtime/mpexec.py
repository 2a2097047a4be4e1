"""Multiprocess backend of the distributed executor: pool and scheduling.

:class:`~repro.runtime.distributed.SparkExecutor` hands every
partition-wise operator to its backend.  The default backend runs the
partition tasks in the calling thread, so every "distributed" plan
serializes behind one GIL; ``CodegenConfig.distributed_backend =
"multiprocess"`` selects :class:`ProcessPoolBackend`, which ships the
same tasks to a pool of *spawned* worker processes.  The backend is
three modules:

* :mod:`repro.runtime.mptransport` — how a value crosses the process
  boundary (shared memory or pickle) and the worker-side block cache;
* :mod:`repro.runtime.mpworker` — the worker loop: decode a task's
  inputs, rebuild generated operators, run the task, reply;
* this module — the process-global :class:`ProcessPool` and the
  backend: turn the driver's partition plans into task protos, assign
  them to workers by locality, dispatch, collect, retry.  Their public
  and tested names are re-exported here.

What makes the two backends bit-identical: placement, partitioning
(``partition_bounds``), side-input slicing (the one per-part resolver,
``skeletons.partition_values``) and the fixed tree-reduce topology all
stay on the driver, and a worker runs each task through the one
function the in-process backend calls
(``distributed.run_partition_task``).

Side inputs are encoded once per operator and broadcast to every
participating worker; the driver's broadcast-pressure accounting has
already charged them before this module is reached.

Lineage keys belong to the driver: this module treats them as opaque
names.  The backend keeps only ``_locations`` (which worker caches
which partition of which key), asks the driver's ``is_live`` before it
trusts or records a location, and on :meth:`ProcessPoolBackend.retire`
forgets the keys the driver retired and tells the workers which blocks
to drop.

Failure model: a worker that dies or produces no result for
``_TASK_TIMEOUT_S`` seconds is replaced (``n_worker_respawns``) and
its tasks are re-dispatched (``n_task_retries``).  Because every task
spec is retained keyed by the lineage key of the block it produces,
a lost block is recomputed from its lineage (``n_lineage_recomputes``)
instead of re-running the program; driver-held inputs are simply
re-shipped.  Worker-side *exceptions* are deterministic and are raised
to the caller without retry.

Worker counts coordinate with the process-wide ThreadBudget: each
operator acquires up to ``mp_workers`` tokens before dispatching, so
driver threads plus worker processes stay within one shared pool.
"""

from __future__ import annotations

import atexit
import itertools
import os
import sys
import threading
import time
from collections import deque
from dataclasses import replace as dataclass_replace
from multiprocessing import connection as mp_connection
from multiprocessing import get_context

from repro.errors import RuntimeExecError
from repro.obs import trace as obs_trace
from repro.runtime import parallel as parallel_mod
from repro.runtime.mptransport import (  # noqa: F401  (re-exported)
    _BlockCache,
    decode_value,
    encode_value,
)
from repro.runtime.mpworker import (  # noqa: F401  (re-exported)
    _export_stats,
    _materialize_operator,
    _run_task,
    _worker_main,
)
from repro.runtime.skeletons import partition_values
from repro.runtime.stats import RuntimeStats

#: Satellite guard: fork would duplicate held locks (stats RLock, plan
#: cache, thread budget) into children — spawn starts workers clean.
_SPAWN = get_context("spawn")

#: In-flight tasks per worker: keeps pipes shallow (no send/send
#: deadlock) while hiding one task of dispatch latency.
_MAX_INFLIGHT = 2

#: How long the pool waits for a spawned worker's "ready" message.
_BOOT_TIMEOUT_S = 60.0

#: Straggler/failure handling: a worker that produces no result for
#: this many seconds while holding tasks is declared lost, its process
#: is respawned, and its tasks are re-dispatched (lost cached blocks
#: are recomputed from lineage keys).
_TASK_TIMEOUT_S = 60.0

#: Re-dispatch attempts per task before the run fails.
_MAX_RETRIES = 2

#: Per-worker block cache (locality) byte budget; least recently used
#: blocks are evicted and re-shipped on next use.
_WORKER_CACHE_BYTES = 256e6

#: Globally monotonic task ids so results from an aborted operator can
#: never be matched against a later one.
_TASK_IDS = itertools.count(1)


def start_method() -> str:
    """Start method used for worker processes (always ``spawn``)."""
    return _SPAWN.get_start_method()


# ----------------------------------------------------------------------
# Driver-side pool
# ----------------------------------------------------------------------
class _Worker:
    __slots__ = ("id", "proc", "conn", "last_activity")

    def __init__(self, wid: int, proc, conn):
        self.id = wid
        self.proc = proc
        self.conn = conn
        self.last_activity = time.monotonic()


class ProcessPool:
    """Lazily grown, process-global pool of spawned workers.

    Shared by every :class:`ProcessPoolBackend` (worker block caches
    namespace their keys by backend id); lives until interpreter exit.
    """

    def __init__(self):
        self.workers: list[_Worker] = []
        self.lock = threading.Lock()

    def _spawn(self, wid: int) -> _Worker:
        parent_conn, child_conn = _SPAWN.Pipe(duplex=True)
        proc = _SPAWN.Process(target=_worker_main, args=(child_conn, wid),
                              name=f"repro-mp-{wid}", daemon=True)
        # Spawn preparation re-executes the parent's __main__ by path;
        # an interactive/stdin main ("<stdin>") has no re-runnable file
        # and would kill every worker at startup.  The worker target
        # lives in this importable module, so __main__ is not needed —
        # hide the bogus path for the duration of the start.
        main = sys.modules.get("__main__")
        main_path = getattr(main, "__file__", None)
        hide = main_path is not None and not os.path.exists(main_path)
        try:
            if hide:
                del main.__file__
            proc.start()
        finally:
            if hide:
                main.__file__ = main_path
        child_conn.close()
        return _Worker(wid, proc, parent_conn)

    def ensure(self, n: int) -> list[_Worker]:
        with self.lock:
            # Replace workers that died between operators (e.g. killed
            # by fault injection after their run was aborted) silently:
            # no task was lost, so this is not a counted respawn.
            fresh = []
            for wid, worker in enumerate(self.workers[:n]):
                if not worker.proc.is_alive():
                    try:
                        worker.conn.close()
                    except OSError:
                        pass
                    self.workers[wid] = self._spawn(wid)
                    fresh.append(self.workers[wid])
            while len(self.workers) < n:
                self.workers.append(self._spawn(len(self.workers)))
                fresh.append(self.workers[-1])
            self._await_boot(fresh)
            return self.workers[:n]

    @staticmethod
    def _await_boot(workers: list) -> None:
        """Block until each worker spawned for a starting operator has
        finished importing.

        A spawned interpreter takes about a second to import NumPy, SciPy
        and this package.  Dispatching into that boot would hold the
        operator's shared-memory segments mapped for its whole length
        and count it against the first task's ``_TASK_TIMEOUT_S``.  A
        worker that dies or stalls while booting is left to the
        operator's own failure handling; mid-operator respawns are not
        waited for (their "ready" is dropped like any stale message).
        """
        for worker in workers:
            try:
                if worker.conn.poll(_BOOT_TIMEOUT_S):
                    worker.conn.recv()
            except (EOFError, OSError):
                pass
            worker.last_activity = time.monotonic()

    def respawn(self, wid: int) -> _Worker:
        with self.lock:
            old = self.workers[wid]
            try:
                old.conn.close()
            except OSError:
                pass
            if old.proc.is_alive():
                old.proc.terminate()
            old.proc.join(timeout=5.0)
            fresh = self._spawn(wid)
            self.workers[wid] = fresh
            return fresh

    def broadcast(self, message) -> None:
        """Best-effort send to every live worker (drop/free)."""
        with self.lock:
            workers = list(self.workers)
        for worker in workers:
            try:
                worker.conn.send(message)
            except (OSError, ValueError):
                pass

    def shutdown(self) -> None:
        with self.lock:
            workers, self.workers = self.workers, []
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass


_POOL: ProcessPool | None = None
_POOL_LOCK = threading.Lock()


def shared_pool() -> ProcessPool:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ProcessPool()
            atexit.register(_POOL.shutdown)
        return _POOL


def shutdown_pool() -> None:
    """Stop all worker processes (tests / explicit teardown)."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


# ----------------------------------------------------------------------
# Backend
# ----------------------------------------------------------------------
class ProcessPoolBackend:
    """Ships SparkExecutor partition tasks to the worker pool.

    One instance per SparkExecutor; created when
    ``config.distributed_backend == "multiprocess"``, with the driver's
    death rule for lineage keys (``SparkExecutor.is_live``).  All
    methods are called with the executor's stats lock held (the Spark
    run path is serialized), so counter updates are plain attribute
    bumps.
    """

    _IDS = itertools.count(1)

    def __init__(self, config, stats, is_live):
        self.config = config
        self.stats = stats
        self.backend_id = next(self._IDS)
        self._is_live = is_live
        # (lineage_key, p) -> set of worker ids caching that block.
        self._locations: dict[tuple, set] = {}
        self._bids = itertools.count(1)
        self._inject: deque = deque()

    # -- public knobs --------------------------------------------------
    def resolve_workers(self) -> int:
        if self.config.mp_workers > 0:
            return self.config.mp_workers
        return min(4, os.cpu_count() or 1)

    def inject_failure(self, mode: str, count: int = 1) -> None:
        """Arm deterministic fault injection: the next ``count``
        first-attempt task dispatches carry ``mode`` ('die' or 'hang')."""
        if mode not in ("die", "hang"):
            raise ValueError(f"unknown injection mode {mode!r}")
        self._inject.extend([mode] * count)

    # -- SparkExecutor entry points ------------------------------------
    def run_map(self, spec: tuple, main_blocked, plans: list,
                main_key=None, output_key=None) -> list:
        """Per-partition basic-hop execution (map and reduce partials)."""
        proto = {"kind": "hop", "spec": spec, "label": spec[0]}
        return self._run_plans(proto, main_blocked, plans, main_key,
                               output_key)

    def run_spoof(self, operator, main_blocked, plans: list,
                  main_key=None, output_key=None) -> list:
        """Per-partition generated-operator execution."""
        proto = {"kind": "spoof", "op_name": operator.name,
                 "label": operator.name}
        return self._run_plans(
            proto, main_blocked, plans, main_key, output_key,
            ("operator", operator.name, operator.source, operator.cplan)
        )

    def _run_plans(self, proto: dict, main_blocked, plans: list, main_key,
                   output_key, operator_payload=None) -> list:
        """Run one task (``proto`` plus its inputs) per partition.
        ``main`` / ``zip`` blocks ship under their lineage key
        (locality), ``slice`` rows inline, and a ``whole`` input once per
        worker, named by its position among the operator's broadcasts."""
        sides = [value for mode, value in plans if mode == "whole"]
        protos = []
        for p, values in enumerate(partition_values(
                plans, main_blocked.blocks, main_blocked.bounds)):
            inputs = []
            n_bcast = 0
            for (mode, source), value in zip(plans, values):
                if mode == "main":
                    inputs.append(("block", main_key, p, value))
                elif mode == "zip":
                    inputs.append(("block", source.mp_key, p, value))
                elif mode == "slice":
                    inputs.append(("value", value))
                else:
                    inputs.append(("bcast", n_bcast))
                    n_bcast += 1
            protos.append(dict(
                proto, inputs=inputs, partition=p,
                cache_as=(output_key, p) if output_key is not None else None,
            ))
        return self._execute(protos, sides, operator_payload)

    def roundtrip(self, values: list, force_shm: bool = False) -> list:
        """Ship ``values`` to one worker and back through the real
        transport (contract-test hook)."""
        protos = [{"kind": "echo",
                   "inputs": [("value", v) for v in values],
                   "cache_as": None, "label": "echo", "partition": 0}]
        return self._execute(protos, [], None, force_shm=force_shm)[0]

    def lineage_keys(self) -> set:
        """The lineage keys some worker caches a block under."""
        return {key for key, _p in self._locations}

    def retire(self, keys) -> None:
        """Forget every location of keys the driver retired, and have
        the workers drop those blocks."""
        dead = set(keys)
        wkeys = [(self.backend_id, key, p)
                 for key, p in self._locations if key in dead]
        for _bid, key, p in wkeys:
            del self._locations[(key, p)]
        if wkeys and _POOL is not None:
            _POOL.broadcast(("drop", wkeys))

    # -- internals -----------------------------------------------------
    def _worker_config(self):
        return dataclass_replace(
            self.config, distributed_backend="simulated", trace_level="off",
        )

    def _location_hit(self, key, p: int, wid: int) -> bool:
        return (wid in self._locations.get((key, p), ())
                and self._is_live(key))

    def _note_location(self, key, p: int, wid: int) -> None:
        if self._is_live(key):
            self._locations.setdefault((key, p), set()).add(wid)

    def _forget_location(self, key, p: int, wid: int) -> None:
        wids = self._locations.get((key, p))
        if wids is not None:
            wids.discard(wid)
            if not wids:
                del self._locations[(key, p)]

    def _drop_worker_locations(self, wid: int) -> None:
        for key, p in list(self._locations):
            self._forget_location(key, p, wid)

    def _execute(self, protos: list, sides: list, operator_payload,
                 force_shm: bool = False) -> list:
        if not protos:
            return []
        stats = self.stats
        budget = parallel_mod.shared_budget()
        n_workers = self.resolve_workers()
        granted = budget.acquire(min(n_workers, len(protos)), minimum=1)
        segments: list = []
        bid = (self.backend_id, next(self._bids))
        state: dict | None = None
        try:
            pool = shared_pool()
            active = {w.id: w for w in pool.ensure(granted)}
            stats.mp_max_workers = max(stats.mp_max_workers, len(active))
            self._drain_stale(active)

            # Encode side inputs once; every worker attaches the same
            # shared-memory segments (one-time broadcast per operator).
            side_descs = [self._encode(value, segments, force_shm)
                          for value in sides]

            worker_config = self._worker_config()
            trace = stats.tracer.enabled(obs_trace.PHASES)

            # Locality-aware assignment: a partition whose main block
            # already sits in a worker's cache goes to that worker.
            queues: dict[int, deque] = {wid: deque() for wid in active}
            rr = itertools.cycle(sorted(active))
            for index, proto in enumerate(protos):
                entry = {"index": index, "proto": proto, "attempts": 0}
                wid = self._preferred_worker(proto, active)
                queues[wid if wid is not None else next(rr)].append(entry)

            state = {
                "pool": pool, "active": active, "queues": queues,
                "inflight": {wid: [] for wid in active}, "pending": {},
                "setup_sent": set(), "segments": segments,
                "side_descs": side_descs, "bid": bid,
                "operator_payload": operator_payload,
                "worker_config": worker_config, "trace": trace,
                "force_shm": force_shm,
            }
            for wid in list(active):
                self._send_next(wid, state)

            results: list = [None] * len(protos)
            remaining = len(protos)
            while remaining:
                remaining -= self._pump(state, results)
            return results
        except BaseException:
            if state is not None:
                self._sanitize_pool(state)
            raise
        finally:
            budget.release(granted)
            if _POOL is not None:
                _POOL.broadcast(("free", [bid]))
            for seg in segments:
                try:
                    seg.close()
                    seg.unlink()
                except (FileNotFoundError, OSError):
                    pass

    def _encode(self, value, segments: list, force_shm: bool):
        """Encode one value for shipment and count its bytes."""
        desc, shm_bytes, pickle_bytes = encode_value(value, segments,
                                                     force_shm)
        self.stats.mp_shm_bytes += shm_bytes
        self.stats.mp_pickle_bytes += pickle_bytes
        return desc

    def _preferred_worker(self, proto: dict, active: dict):
        for desc in proto["inputs"]:
            if desc[0] != "block":
                continue
            _, key, p, value = desc
            if key is None:
                continue
            for wid in self._locations.get((key, p), ()):
                if wid in active and self._location_hit(key, p, wid):
                    return wid
        return None

    def _send_next(self, wid: int, state: dict) -> None:
        queues, inflight = state["queues"], state["inflight"]
        while queues[wid] and len(inflight[wid]) < _MAX_INFLIGHT:
            entry = queues[wid].popleft()
            try:
                self._dispatch(wid, entry, state)
            except (OSError, ValueError):
                queues[wid].appendleft(entry)
                self._fail_worker(wid, "send failed", state)
                return
            inflight[wid].append(entry)
            state["pending"][entry["task_id"]] = (wid, entry)

    def _dispatch(self, wid: int, entry: dict, state: dict) -> None:
        stats = self.stats
        worker = state["active"][wid]
        if wid not in state["setup_sent"]:
            if state["operator_payload"] is not None:
                worker.conn.send(state["operator_payload"])
            if state["side_descs"]:
                worker.conn.send(("bcast", state["bid"],
                                  state["side_descs"]))
                stats.n_mp_broadcasts += 1
            state["setup_sent"].add(wid)

        proto = entry["proto"]
        shipping = (state["segments"], state["force_shm"])
        inputs = []
        for desc in proto["inputs"]:
            tag = desc[0]
            if tag == "value":
                inputs.append(("value", self._encode(desc[1], *shipping)))
            elif tag == "block":
                _, key, p, value = desc
                wkey = (self.backend_id, key, p)
                if key is None:  # no lineage: nothing to cache it under
                    inputs.append(("value", self._encode(value, *shipping)))
                elif self._location_hit(key, p, wid):
                    stats.n_mp_locality_hits += 1
                    inputs.append(("block", wkey, None))
                else:
                    stats.n_mp_block_ships += 1
                    self._note_location(key, p, wid)
                    inputs.append(
                        ("block", wkey, self._encode(value, *shipping))
                    )
            else:  # ("bcast", i)
                inputs.append(("bcast", state["bid"], desc[1]))

        task_id = next(_TASK_IDS)
        entry["task_id"] = task_id
        cache_as = proto["cache_as"]
        if cache_as is not None:
            cache_as = (self.backend_id, cache_as[0], cache_as[1])
        task = dict(
            proto, id=task_id, inputs=inputs, cache_as=cache_as,
            cache_bytes=_WORKER_CACHE_BYTES,
            config=state["worker_config"], trace=state["trace"],
        )
        if self._inject:
            # Armed fault injection: each armed fault fells exactly one
            # task *dispatch* (so retries can be made to fail too, which
            # is how the retry-exhaustion path is tested).
            task["inject"] = self._inject.popleft()
        worker.conn.send(("task", task))
        worker.last_activity = time.monotonic()

    def _pump(self, state: dict, results: list) -> int:
        """Wait for one round of events; returns completed-task count."""
        active, inflight = state["active"], state["inflight"]
        conn_map, sentinel_map = {}, {}
        deadline = None
        for wid, worker in active.items():
            if not inflight[wid]:
                continue
            conn_map[worker.conn] = wid
            sentinel_map[worker.proc.sentinel] = wid
            worker_deadline = worker.last_activity + _TASK_TIMEOUT_S
            deadline = (worker_deadline if deadline is None
                        else min(deadline, worker_deadline))
        if not conn_map:
            raise RuntimeExecError(
                "multiprocess backend stalled: tasks queued but no "
                "worker holds any in-flight task"
            )
        timeout = max(0.0, deadline - time.monotonic())
        ready = mp_connection.wait(
            list(conn_map) + list(sentinel_map), timeout=timeout
        )
        completed = 0
        if not ready:
            now = time.monotonic()
            for wid in list(active):
                worker = active[wid]
                if inflight[wid] and (
                    now - worker.last_activity > _TASK_TIMEOUT_S
                ):
                    self._fail_worker(wid, "task timeout", state)
            return 0
        for obj in ready:
            if obj in sentinel_map:
                wid = sentinel_map[obj]
                worker = active.get(wid)
                if worker is not None and worker.proc.sentinel == obj:
                    self._fail_worker(wid, "worker died", state)
                continue
            wid = conn_map[obj]
            worker = active.get(wid)
            if worker is None or worker.conn is not obj:
                continue  # worker was replaced this round
            completed += self._drain_worker(wid, state, results)
        return completed

    def _drain_worker(self, wid: int, state: dict, results: list) -> int:
        worker = state["active"][wid]
        completed = 0
        while True:
            try:
                if not worker.conn.poll():
                    return completed
                msg = worker.conn.recv()
            except (EOFError, OSError):
                self._fail_worker(wid, "connection lost", state)
                return completed
            worker.last_activity = time.monotonic()
            tag = msg[0]
            if tag == "ok":
                completed += self._handle_ok(wid, msg, state, results)
            elif tag == "miss":
                self._handle_miss(wid, msg, state)
            elif tag == "err":
                _, task_id, tb = msg
                if task_id in state["pending"]:
                    raise RuntimeExecError(
                        f"multiprocess worker {wid} task failed:\n{tb}"
                    )

    def _handle_ok(self, wid: int, msg, state: dict, results: list) -> int:
        _, task_id, payload, counters, spans, notes = msg
        pending = state["pending"].pop(task_id, None)
        if pending is None:
            return 0  # stale result from an aborted operator
        _, entry = pending
        state["inflight"][wid].remove(entry)
        results[entry["index"]] = payload
        stats = self.stats
        stats.n_mp_tasks += 1
        cache_as = entry["proto"].get("cache_as")
        if cache_as is not None:
            self._note_location(cache_as[0], cache_as[1], wid)
        for wkey in notes:
            # Worker-side LRU evictions: forget stale locality entries.
            if wkey[0] == self.backend_id:
                self._forget_location(wkey[1], wkey[2], wid)
        if counters:
            stats.merge(RuntimeStats(**counters))
        for span in spans or ():
            # Worker lanes sit above any real thread id in the trace.
            self.stats.tracer.record_foreign(*span, tid=1_000_000 + wid)
        self._send_next(wid, state)
        return 1

    def _handle_miss(self, wid: int, msg, state: dict) -> None:
        """Worker no longer caches a block we assumed it held: drop the
        locality entry and re-dispatch with the full payload."""
        _, task_id, wkey = msg
        pending = state["pending"].pop(task_id, None)
        self._forget_location(wkey[1], wkey[2], wid)
        if pending is None:
            return
        _, entry = pending
        state["inflight"][wid].remove(entry)
        state["queues"][wid].appendleft(entry)
        self._send_next(wid, state)

    def _fail_worker(self, wid: int, reason: str, state: dict) -> None:
        """Replace a lost worker and re-dispatch its tasks.

        Lost in-flight tasks are recomputed from their retained specs —
        lineage-keyed outputs count as ``n_lineage_recomputes`` — and
        every locality entry pointing at the dead process is dropped,
        so its lost cache re-ships from the driver on next use.
        """
        stats = self.stats
        active, inflight = state["active"], state["inflight"]
        stats.n_worker_respawns += 1
        lost = list(inflight[wid])
        inflight[wid] = state["inflight"][wid] = []
        for entry in lost:
            state["pending"].pop(entry.get("task_id"), None)
            entry["attempts"] += 1
            if entry["attempts"] > _MAX_RETRIES:
                raise RuntimeExecError(
                    f"multiprocess task {entry['proto'].get('label')} "
                    f"failed after {entry['attempts']} attempts "
                    f"({reason})"
                )
            stats.n_task_retries += 1
            if entry["proto"].get("cache_as") is not None:
                stats.n_lineage_recomputes += 1
        self._drop_worker_locations(wid)
        state["setup_sent"].discard(wid)
        active[wid] = state["pool"].respawn(wid)
        targets = sorted(w for w in active if w != wid) or [wid]
        for i, entry in enumerate(lost):
            state["queues"][targets[i % len(targets)]].append(entry)
        for target in dict.fromkeys(targets + [wid]):
            self._send_next(target, state)

    def _sanitize_pool(self, state: dict) -> None:
        """An operator that failed mid-flight leaves dispatched tasks
        in worker pipes; a worker may still execute one — or die on an
        injected fault — *after* the error unwinds, polluting the next
        operator's failure counters. Replace every worker holding
        outstanding work; the run already failed, so these are hygiene
        respawns, not counted ones."""
        for wid, entries in state["inflight"].items():
            if not entries:
                continue
            self._drop_worker_locations(wid)
            try:
                state["active"][wid] = state["pool"].respawn(wid)
            except (OSError, ValueError):
                pass

    def _drain_stale(self, active: dict) -> None:
        """Discard leftovers from a previous aborted operator."""
        for worker in active.values():
            try:
                while worker.conn.poll():
                    worker.conn.recv()
            except (EOFError, OSError):
                continue
