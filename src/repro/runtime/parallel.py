"""Parallelism policy, process-wide thread budget and the shared
intra-operator worker pool.

Lowering applies the policy once, to exact dims (``Instruction.parts``
of every CP fused operator and matrix multiply); the runtime never
decides again.  The executor runs a program's instructions in order on
the calling thread; concurrency comes from the layers below.  Parts pay
only where their work releases the GIL: NumPy's BLAS calls and scipy's
sparse kernels do, ``np.matmul`` over a transposed dense view does not
(hence :func:`repro.runtime.vector.vect_tmatmult`).

Two runtime layers can spawn threads: the intra-operator partition
workers (:mod:`repro.runtime.skeletons`, fused operators and matrix
multiplies alike) and the serving
:class:`~repro.serve.scheduler.SessionScheduler` workers; the
multiprocess backend's dispatch draws tokens too.  Without
coordination, nesting them oversubscribes the machine (e.g. 8 serving
workers each fanning out 8 partition workers).  The :class:`ThreadBudget`
is the single token pool they all draw from:

* a layer *acquires* tokens before going parallel and *releases* them
  when the parallel section ends,
* the budget never over-grants — ``active <= total`` is an invariant,
  checked under the lock — so inner layers degrade to serial execution
  when outer layers already claim the machine; a layer that must make
  progress regardless (``minimum``) and finds the pool exhausted is not
  given a token it does not have: it is counted as running on the
  thread it already holds, and never blocks,
* grants only bound *scheduling concurrency* — part counts and combine
  topologies are fixed at lowering, so results are deterministic
  regardless of how many tokens a run was granted.

The total is ``max(8, cpu_count)``: generous enough that a single layer
keeps its configured width on small hosts, while nested layers still
contend and degrade instead of multiplying.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.analysis import lockset

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


class ThreadBudget:
    """A token pool bounding the process's concurrently active workers."""

    def __init__(self, total: int | None = None):
        if total is None or total <= 0:
            total = max(8, os.cpu_count() or 1)
        self.total = total
        # Tracked (lockset.make_lock) so the race detector can verify
        # the token-count protocol; the process-global budget below is
        # created at import, long before any checker is enabled.
        self._lock = lockset.make_lock("ThreadBudget._lock")
        self._active = 0
        # Grants made on ``minimum`` with the pool exhausted: their
        # holders run on threads they already have, outside the pool.
        self._on_own_thread = 0
        #: Peak simultaneously granted tokens (observability for the
        #: oversubscription guard tests).
        self.peak = 0

    @property
    def active(self) -> int:
        return self._active

    def acquire(self, requested: int, minimum: int = 0) -> int:
        """Grant up to ``requested`` tokens, never exceeding the budget.

        Never blocks.  A caller that must make progress passes
        ``minimum``: it is told at least that many even when the pool
        cannot cover them, and the uncovered part is counted as work on
        the thread the caller already holds, not as pool tokens — so
        ``active <= total`` holds at every instant.  Always pair with
        :meth:`release` of the granted count.
        """
        with self._lock:
            lockset.note_access("ThreadBudget", self, "active")
            drawn = min(requested, max(0, self.total - self._active))
            granted = max(minimum, drawn)
            self._active += drawn
            self._on_own_thread += granted - drawn
            if self._active > self.total:
                raise RuntimeError(
                    f"thread budget over-granted: {self._active} active "
                    f"of {self.total}"
                )
            self.peak = max(self.peak, self._active)
            return granted

    def release(self, granted: int) -> None:
        """Return a grant.  Own-thread grants are settled first, so the
        pool frees a token only once no exhausted-pool caller is still
        running uncounted."""
        if granted <= 0:
            return
        with self._lock:
            lockset.note_access("ThreadBudget", self, "active")
            own = min(granted, self._on_own_thread)
            self._on_own_thread -= own
            self._active -= granted - own


_BUDGET = ThreadBudget()
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def shared_budget() -> ThreadBudget:
    """The process-wide budget all runtime layers draw from."""
    return _BUDGET


def _shared_pool() -> ThreadPoolExecutor:
    """Lazily created worker pool for intra-operator partition tasks.

    The pool is sized to the default budget total; actual concurrency
    per operator is bounded by the tokens granted for that operator, so
    the pool size is an upper bound, not a scheduling decision.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=max(8, os.cpu_count() or 1),
                thread_name_prefix="repro-intra-op",
            )
        return _POOL


def run_tasks(tasks: list) -> tuple[list, int]:
    """Run thunks, in parallel when the budget allows.

    Returns ``(results, workers)`` with results in task order.
    ``workers`` is the number of pool workers used (1 = the caller ran
    everything serially).  Tasks are strided over the granted workers
    with a fixed assignment, and results are combined by the *caller*
    in task order, so output values never depend on scheduling.
    """
    n = len(tasks)
    if n <= 1:
        return [task() for task in tasks], 1
    budget = shared_budget()
    granted = budget.acquire(n)
    try:
        if granted <= 1:
            return [task() for task in tasks], 1
        results: list = [None] * n
        pool = _shared_pool()

        def run_chunk(offset: int) -> None:
            for index in range(offset, n, granted):
                results[index] = tasks[index]()

        futures = [pool.submit(run_chunk, offset) for offset in range(granted)]
        # Wait for EVERY chunk before returning (and before the finally
        # block releases the tokens): releasing while stragglers still
        # run would let another operator acquire the same tokens and
        # oversubscribe the machine.
        error: BaseException | None = None
        for future in futures:
            try:
                future.result()
            except BaseException as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return results, granted
    finally:
        budget.release(granted)


__all__ = ["PARALLEL_MIN_CELLS", "ThreadBudget", "intra_op_parts", "run_tasks", "shared_budget"]
