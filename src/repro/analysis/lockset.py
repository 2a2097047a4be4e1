"""Eraser-style lockset race detection over shared runtime structures.

The runtime's thread-safety story is a set of *conventions*: the plan
cache guards its tables with ``PlanCache._lock``, shared stats mutate
under ``RuntimeStats.lock``, the thread budget's token count lives
under ``ThreadBudget._lock``, and the simulated Spark lineage cache is
only touched while an executor run holds its Spark run lock.  This
module turns those conventions into a *checkable protocol* (in the
spirit of Savage et al.'s Eraser): instrumented code paths report each
access to a shared field together with the set of tracked locks the
accessing thread holds, and the checker maintains the running
intersection of those lock sets per field.  A field whose intersection
goes empty has no single lock consistently protecting it — a data race
candidate — and is reported exactly once.

Simplifications relative to full Eraser, chosen for a debug tool:

* every access is treated as a write (the instrumented structures are
  mutated on essentially every touch),
* a field stays in the *exclusive* state while only one thread has
  accessed it; the candidate set is initialized from the second
  thread's held locks (no read-shared refinement),
* only locks created through :func:`make_lock` / :func:`make_rlock`
  participate; they are tracked by object identity, so two executors'
  same-named locks never alias,
* the checker pins every tracked object alive for the debug window:
  fields key on ``id(obj)``, and without the pin a per-run structure
  (run-local stats) could be collected and its id recycled by a later
  run on another thread, corrupting that field's ownership state.
  Memory grows with the number of distinct objects touched while
  enabled — fine for a debug session,
* threads are identified by ``threading.get_ident``, which the
  interpreter may reuse after a thread exits — the detector targets
  workloads whose threads overlap in time (pools, serving), where
  idents are necessarily distinct.

Usage::

    with lockset_debug() as checker:
        ... concurrent workload ...
    assert checker.reports == []

The wrappers always exist (module globals like the process-wide thread
budget are created long before any checker is enabled); when no checker
is active, instrumentation costs one attribute load and a ``None``
check per operation.  This module must stay stdlib-only —
``runtime.stats`` imports it at module load.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

_ACTIVE: "LocksetChecker | None" = None
_ACTIVE_LOCK = threading.Lock()
_TLS = threading.local()


def _held() -> dict:
    """This thread's held tracked locks (lock object -> acquire count)."""
    held = getattr(_TLS, "held", None)
    if held is None:
        held = {}
        _TLS.held = held
    return held


class TrackedLock:
    """A ``threading.Lock``/``RLock`` recording per-thread held sets.

    Drop-in for the plain lock in ``with``-statements and explicit
    acquire/release pairs.  The held-set bookkeeping runs on every
    acquire/release (an enable mid-critical-section must still see a
    consistent set); it is two dict operations against a thread-local.
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str, reentrant: bool = False):
        self.name = name
        self._lock = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            held = _held()
            held[self] = held.get(self, 0) + 1
        return acquired

    def release(self) -> None:
        held = _held()
        count = held.get(self, 0)
        if count <= 1:
            held.pop(self, None)
        else:
            held[self] = count - 1
        self._lock.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TrackedLock({self.name!r})"


def make_lock(name: str) -> TrackedLock:
    """A tracked mutual-exclusion lock (``threading.Lock`` semantics)."""
    return TrackedLock(name)


def make_rlock(name: str) -> TrackedLock:
    """A tracked reentrant lock (``threading.RLock`` semantics)."""
    return TrackedLock(name, reentrant=True)


@dataclass
class LocksetReport:
    """One field whose candidate lockset intersection went empty."""

    struct: str
    field: str
    thread: str  # name of the thread whose access emptied the set
    detail: str = ""

    def __str__(self) -> str:
        note = f" ({self.detail})" if self.detail else ""
        return (
            f"lockset: {self.struct}.{self.field} accessed with no "
            f"consistently held lock (thread {self.thread}){note}"
        )


@dataclass
class LocksetChecker:
    """Running per-field lockset intersections plus emitted reports."""

    stats: object = None  # optional RuntimeStats sink
    reports: list = field(default_factory=list)

    def __post_init__(self):
        self._lock = threading.Lock()
        # key -> [owner thread id, candidate lock set | None, reported,
        #         pinned object reference]
        self._fields: dict = {}

    def note(self, struct: str, obj, field_name: str,
             lockset: frozenset) -> None:
        key = (struct, id(obj), field_name)
        tid = threading.get_ident()
        report = None
        with self._lock:
            entry = self._fields.get(key)
            if entry is None:
                # Pinning obj keeps the id stable for the key's lifetime.
                self._fields[key] = [tid, None, False, obj]
                return
            candidates = entry[1]
            if candidates is None:
                if entry[0] == tid:
                    return  # exclusive: still single-threaded
                candidates = set(lockset)
                entry[1] = candidates
            else:
                candidates.intersection_update(lockset)
            if not candidates and not entry[2]:
                entry[2] = True
                report = LocksetReport(
                    struct=struct,
                    field=field_name,
                    thread=threading.current_thread().name,
                )
                self.reports.append(report)
        if report is not None and self.stats is not None:
            with self.stats.lock:
                self.stats.n_lockset_reports += 1

    def summary(self) -> dict:
        with self._lock:
            return {
                "n_fields_tracked": len(self._fields),
                "n_reports": len(self.reports),
                "reports": [str(r) for r in self.reports],
            }


def active() -> LocksetChecker | None:
    """The currently enabled checker, if any."""
    return _ACTIVE


def note_access(struct: str, obj, field_name: str) -> None:
    """Record one access to ``obj``'s ``field_name`` by this thread.

    No-op unless a checker is enabled.  Call while holding whatever
    locks the code path claims protect the field — the held set is
    sampled here.
    """
    checker = _ACTIVE
    if checker is None:
        return
    checker.note(struct, obj, field_name, frozenset(_held()))


def enable(stats=None) -> LocksetChecker:
    """Enable lockset checking process-wide (idempotent).

    Returns the active checker; a checker already enabled by someone
    else is reused (its stats sink is kept).
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is None:
            _ACTIVE = LocksetChecker(stats=stats)
        return _ACTIVE


def disable() -> LocksetChecker | None:
    """Disable checking; returns the checker with its final reports."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        checker, _ACTIVE = _ACTIVE, None
        return checker


@contextmanager
def lockset_debug(stats=None):
    """Enable the checker for a ``with`` block; always disables after."""
    checker = enable(stats=stats)
    try:
        yield checker
    finally:
        disable()


__all__ = [
    "LocksetChecker",
    "LocksetReport",
    "TrackedLock",
    "active",
    "disable",
    "enable",
    "lockset_debug",
    "make_lock",
    "make_rlock",
    "note_access",
]
