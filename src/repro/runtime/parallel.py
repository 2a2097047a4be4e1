"""Parallelism policy and the shared intra-operator worker pool.

Lowering applies the policy once, to exact dims (``Instruction.parts``
of every CP fused operator and matrix multiply); the runtime never
decides again.  The executor runs a program's instructions in order on
the calling thread; concurrency comes from the layers below.  Parts pay
only where their work releases the GIL: NumPy's BLAS calls and scipy's
sparse kernels do, ``np.matmul`` over a transposed dense view does not
(hence :func:`repro.runtime.vector.vect_tmatmult`).

The intra-operator parts (:mod:`repro.runtime.skeletons`, fused
operators and matrix multiplies alike) run on one process-wide thread
pool of ``max(8, cpu_count)`` workers.  Its size is the only bound on
part threads: serving workers (:class:`~repro.serve.scheduler.SessionScheduler`)
that run operators concurrently queue their parts on the same pool, so
nesting the two layers never multiplies threads.  The pool bounds only
*scheduling concurrency*: part counts and combine topologies are fixed
at lowering, so results are the same bits whatever the pool's size.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

#: What ``intra_op_threads=0`` means on this host, resolved once:
#: lowering asks per fused operator, and ``os.cpu_count()`` is a syscall.
AUTO_THREADS = min(8, os.cpu_count() or 1)

#: Below this many cells, thread dispatch costs more than it saves.
PARALLEL_MIN_CELLS = 1 << 16


def intra_op_parts(rows: int, cols: int, config) -> int:
    """Parts a fused operator's ``rows x cols`` main input (a matrix
    multiply's left input) splits into:
    the resolved ``intra_op_threads`` when the input has at least
    :data:`PARALLEL_MIN_CELLS` cells and two rows per part, else 1."""
    n = config.intra_op_threads if config.intra_op_threads > 0 else AUTO_THREADS
    if rows * cols < PARALLEL_MIN_CELLS or rows < 2 * n:
        return 1
    return n


_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _shared_pool() -> ThreadPoolExecutor:
    """The process's one worker pool for intra-operator parts, created
    on first use.  Its size is the one bound on how many parts run at
    once, however many operators or serving workers submit to it."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=max(8, os.cpu_count() or 1),
                thread_name_prefix="repro-intra-op",
            )
        return _POOL


def run_tasks(tasks: list) -> list:
    """Run thunks on the shared pool; their results, in task order.

    Returns only once every task has finished, then raises the first
    task's error, if any.  The caller combines the results in task
    order, so values never depend on which worker ran which task.  A
    task must not call ``run_tasks`` itself: a task blocked on tasks
    queued behind it in the same bounded pool could wait forever.
    """
    if len(tasks) <= 1:
        return [task() for task in tasks]
    pool = _shared_pool()
    futures = [pool.submit(task) for task in tasks]
    results: list = []
    error: BaseException | None = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:
            if error is None:
                error = exc
    if error is not None:
        raise error
    return results


__all__ = ["PARALLEL_MIN_CELLS", "intra_op_parts", "run_tasks"]
