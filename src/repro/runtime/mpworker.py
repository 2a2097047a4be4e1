"""Worker process of the multiprocess backend: decode, run, reply.

:func:`_worker_main` is the target of every process the pool in
:mod:`repro.runtime.mpexec` spawns.  A task names its inputs (inline
values, cached or shipped partition blocks, broadcast side inputs —
decoded with :mod:`repro.runtime.mptransport`) and what to run on
them; :func:`_run_task` resolves the inputs and calls
:func:`repro.runtime.distributed.run_partition_task`, the same function
the in-process backend calls, then sends back the result, the task's
nonzero ``RuntimeStats`` fields by name (:func:`_export_stats`) and the
block-cache keys it evicted.  Block-cache keys are opaque here: the
worker caches what it is told to cache and drops what it is told to
drop (a ``("drop", keys)`` message); it never decides a block is dead.

Generated operators arrive as ``(name, source, cplan)``;
:func:`_materialize_operator` rebuilds them with the function the
driver's plan cache uses (``plan_cache.build_operator``) and *asserts*
that the rebuilt source equals the shipped one byte-for-byte (the
deterministic ``TMP_<hash10>`` naming makes this checkable), so the
worker executes the same code the driver compiled.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import fields as dataclass_fields

import numpy as np

from repro.errors import RuntimeExecError
from repro.runtime.compressed import CompressedMatrix
from repro.runtime.distributed import run_partition_task
from repro.runtime.matrix import MatrixBlock
from repro.runtime.mptransport import _BlockCache, decode_value
from repro.runtime.stats import RuntimeStats


def _materialize_operator(operators: dict, name: str, config, stats):
    """Rebuild a generated operator from its shipped payload.

    Asserts the fork-safety contract: building the operator from the
    shipped cplan must reproduce the source the driver compiled
    byte-for-byte (deterministic ``TMP_<hash10>`` naming), so the
    driver and worker execution paths can never diverge.  ``operators``
    is the worker's own cache: each operator builds once per worker
    process, bypassing the plan cache (the payload, not a lookup,
    decides what the worker runs).
    """
    entry = operators[name]
    if not isinstance(entry, tuple):
        return entry
    source, cplan = entry
    from repro.codegen.plan_cache import build_operator

    operator = build_operator(cplan, config, stats)
    if operator.name != name or operator.source != source:
        raise RuntimeExecError(
            f"worker regeneration of operator {name} diverged from the "
            "driver's source — generated code is not deterministic"
        )
    operators[name] = operator
    return operator


def _export_stats(stats) -> dict:
    """Nonzero ``RuntimeStats`` fields by name: the task's wire-format
    counters, which ``RuntimeStats(**counters)`` rebuilds."""
    counters = {}
    for spec in dataclass_fields(stats):
        value = getattr(stats, spec.name)
        if value:
            counters[spec.name] = value
    return counters


def _run_task(task: dict, caches: dict, operators: dict,
              broadcasts: dict):
    """Execute one task; returns (result, stats, evicted, holds).

    ``holds`` are the shared-memory segments of *inline* (uncached)
    inputs — the caller closes them after the reply is sent so worker
    file descriptors don't accumulate across tasks.
    """
    inject = task.get("inject")
    if inject == "die":
        os._exit(13)
    elif inject == "hang":
        time.sleep(600.0)

    stats = RuntimeStats()
    cache = caches.get("blocks")
    if cache is None or cache.cap != task["cache_bytes"]:
        cache = caches["blocks"] = _BlockCache(task["cache_bytes"])
    values = []
    holds = []  # segments of inline values: alive for the task only
    evicted: list = []
    for desc in task["inputs"]:
        tag = desc[0]
        if tag == "value":
            value, seg = decode_value(desc[1])
            holds.append(seg)
            values.append(value)
        elif tag == "block":
            _, wkey, payload = desc
            if payload is None:
                value = cache.get(wkey)
                if value is None:
                    return wkey, None, evicted, holds
            else:
                value, seg = decode_value(payload)
                evicted.extend(cache.put(wkey, value, seg))
            values.append(value)
        else:  # ("bcast", bkey, i)
            values.append(broadcasts[desc[1]][desc[2]][0])

    kind = task["kind"]
    if kind == "echo":
        result = values
    else:
        config = task.get("config")
        payload = (
            task["spec"] if kind == "hop"
            else _materialize_operator(operators, task["op_name"], config,
                                       stats)
        )
        result = run_partition_task(kind, payload, values, config, stats)

    cache_as = task.get("cache_as")
    if cache_as is not None:
        cached = result
        if not isinstance(cached, (MatrixBlock, CompressedMatrix)):
            if isinstance(cached, np.ndarray):
                # Mirror the driver's BlockedMatrix wrapping so a later
                # cache hit sees exactly what the driver would ship.
                cached = MatrixBlock(cached)
            else:
                cached = None
        if cached is not None:
            evicted.extend(cache.put(cache_as, cached, None))
    return result, stats, evicted, holds


def _worker_main(conn, worker_id: int) -> None:
    """Worker process main loop: decode, execute, reply — strictly in
    message order (the driver relies on FIFO pipes for setup-before-
    task ordering)."""
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    caches: dict = {}
    operators: dict = {}
    broadcasts: dict = {}
    try:
        conn.send(("ready",))  # imports done: see ProcessPool._await_boot
    except (OSError, ValueError):
        return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        tag = msg[0]
        if tag == "stop":
            break
        if tag == "operator":
            _, name, source, cplan = msg
            if name not in operators:
                operators[name] = (source, cplan)
            continue
        if tag == "bcast":
            _, bkey, descs = msg
            broadcasts[bkey] = [decode_value(d) for d in descs]
            continue
        if tag == "free":
            for bkey in msg[1]:
                broadcasts.pop(bkey, None)
            continue
        if tag == "drop":
            cache = caches.get("blocks")
            if cache is not None:
                cache.drop(msg[1])
            continue
        if tag != "task":
            continue
        task = msg[1]
        task_id = task["id"]
        holds: list = []
        try:
            wall_start = time.time()
            t0 = time.perf_counter()
            result, stats, notes, holds = _run_task(task, caches,
                                                    operators, broadcasts)
            duration = time.perf_counter() - t0
            if stats is None:  # cache miss: ask the driver to re-ship
                conn.send(("miss", task_id, result))
                continue
            counters = _export_stats(stats)
            spans = None
            if task.get("trace"):
                spans = [("mp:task", "mp",
                          {"kind": task["kind"],
                           "label": task.get("label", ""),
                           "partition": task.get("partition", -1),
                           "worker": worker_id},
                          wall_start, duration)]
            conn.send(("ok", task_id, result, counters, spans, notes))
        except SystemExit:
            raise
        except BaseException:
            try:
                conn.send(("err", task_id, traceback.format_exc()))
            except (OSError, ValueError):
                break
        finally:
            # Inline shared-memory inputs are dead once the reply is
            # out; close them so fds don't accumulate.  BufferError
            # means a view escaped into the cache — leave it mapped.
            result = stats = None
            for seg in holds:
                if seg is not None:
                    try:
                        seg.close()
                    except BufferError:
                        pass
    try:
        conn.close()
    except OSError:
        pass
