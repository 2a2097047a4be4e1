"""Process-wide thread budget and the shared intra-operator worker pool.

Three runtime layers can spawn concurrency: the inter-instruction
executor pool (:mod:`repro.runtime.executor`), the intra-operator
partition workers (:mod:`repro.runtime.skeletons`), and the serving
:class:`~repro.serve.scheduler.SessionScheduler` workers.  Without
coordination, nesting them oversubscribes the machine (e.g. 8 executor
threads each fanning out 8 partition workers).  The :class:`ThreadBudget`
is the single token pool they all draw from:

* a layer *acquires* tokens before going parallel and *releases* them
  when the parallel section ends,
* the budget never over-grants — ``active <= total`` is an invariant,
  checked under the lock — so inner layers degrade to serial execution
  when outer layers already claim the machine; a layer that must make
  progress regardless (``minimum``) and finds the pool exhausted is not
  given a token it does not have: it is counted as running on the
  thread it already holds, and never blocks,
* grants only bound *scheduling concurrency* — partition counts and
  combine topologies are fixed by configuration, so results are
  deterministic regardless of how many tokens a run was granted.

The total is ``max(8, cpu_count)``: generous enough that a single layer
keeps its configured width on small hosts, while nested layers still
contend and degrade instead of multiplying.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.analysis import lockset


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
        #: oversubscription guard tests and ``parallel_summary``).
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


__all__ = ["ThreadBudget", "shared_budget", "run_tasks"]
