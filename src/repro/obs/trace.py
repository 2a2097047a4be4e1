"""Hierarchical span tracer with Chrome ``trace_event`` export.

One :class:`Tracer` per engine (created from
``CodegenConfig.trace_level``) records named, monotonic-clock spans into
a bounded ring buffer.  Spans nest strictly per thread: each thread
keeps a LIFO stack of open spans, so the recorded intervals of one
thread always form a proper containment forest — the invariant the
Chrome/Perfetto flame view renders and the golden-shape test asserts.

Levels gate instrumentation sites, not span kinds::

    off           no-op tracer (module-level ``NULL_TRACER`` singleton)
    phases        request/evaluate, compiler passes, lowering, verify,
                  operator compile, recompile splices, serving
                  admission/queue/batch/bind
    instructions  adds one span per executed instruction
    full          adds operator-body spans

The ``off`` path is near-zero cost: hot loops hoist one
``tracer.enabled(...)`` check, and every ``NULL_TRACER`` method is a
constant-return no-op.

Thread-safety: the per-thread span stacks are thread-local; the shared
ring buffer is appended under a tracked lock so the lockset race
detector covers the tracer like any other shared runtime structure.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

from repro.analysis import lockset

#: Numeric trace levels (ordered by verbosity).
OFF = 0
PHASES = 1
INSTRUCTIONS = 2
FULL = 3

#: Config-facing level names.
LEVELS = {"off": OFF, "phases": PHASES, "instructions": INSTRUCTIONS,
          "full": FULL}

#: Spans land in a ring buffer of this many entries: bounds tracer
#: memory on long-running servers.
DEFAULT_BUFFER_EVENTS = 65536


def _resolve_level(level) -> int:
    if isinstance(level, str):
        if level not in LEVELS:
            raise ValueError(
                f"unknown trace level '{level}' (use {sorted(LEVELS)})"
            )
        return LEVELS[level]
    return int(level)


class Span:
    """One span: a context manager while open, a record once closed.

    After the ``with`` block exits, ``start`` is seconds since the
    tracer's origin and ``duration`` is seconds.  ``depth`` is the
    nesting depth at open time (0 = no enclosing span on that thread).
    The same object serves both roles so the per-span cost is a single
    allocation — span recording sits on the executor's per-instruction
    hot path.
    """

    __slots__ = ("_tracer", "name", "cat", "args", "start", "duration",
                 "tid", "depth")

    def __init__(self, tracer, name, cat, args):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.start = 0.0
        self.duration = 0.0
        self.tid = 0
        self.depth = 0

    @property
    def end(self) -> float:
        return self.start + self.duration

    def annotate(self, **kwargs) -> None:
        """Attach args to this span while it is open."""
        self.args.update(kwargs)

    def __enter__(self):
        local = self._tracer._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        self.depth = len(stack)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self._tracer
        stack = getattr(tracer._local, "stack", None)
        # LIFO by construction; tolerate a corrupted stack rather than
        # masking the caller's exception with one of our own.
        if stack and stack[-1] is self:
            stack.pop()
        self.duration = end - self.start
        self.start -= tracer._origin
        self.tid = threading.get_ident()
        if lockset.active() is None:
            # deque.append is atomic under the GIL; the locked path
            # below exists so the race detector observes the shared
            # ring buffer whenever it is switched on.
            tracer._events.append(self)
        else:
            with tracer._lock:
                lockset.note_access("Tracer", tracer, "events")
                tracer._events.append(self)
        return False

    def __repr__(self) -> str:  # debugging aid only
        return (f"Span({self.name!r}, cat={self.cat!r}, "
                f"ms={self.duration * 1e3:.3f}, depth={self.depth})")


class _NullSpan:
    """Shared no-op context manager for disabled spans."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def annotate(self, **kwargs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The ``trace_level="off"`` fast path: every method is a no-op."""

    level = OFF

    def enabled(self, level) -> bool:
        return False

    def span(self, name, cat="phase", level=PHASES, **args):
        return _NULL_SPAN

    def annotate(self, **kwargs) -> None:
        pass

    def instant(self, name, cat="event", level=PHASES, **args) -> None:
        pass

    def record_foreign(self, name, cat, args, wall_start, duration,
                       tid) -> None:
        pass

    def events(self) -> list:
        return []

    def clear(self) -> None:
        pass

    def chrome_trace(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path) -> str:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
        return path


#: Module-level no-op singleton: the default ``stats.tracer``.
NULL_TRACER = NullTracer()


class Tracer:
    """Span recorder for one engine (``trace_level != "off"``)."""

    def __init__(self, level="phases", max_events: int = DEFAULT_BUFFER_EVENTS):
        self.level = _resolve_level(level)
        self.pid = os.getpid()
        self._origin = time.perf_counter()
        self._events: deque = deque(maxlen=max(1, int(max_events)))
        # Tracked: the lockset detector checks the shared ring buffer.
        self._lock = lockset.make_lock("Tracer._lock")
        self._local = threading.local()

    # ------------------------------------------------------------------
    def enabled(self, level) -> bool:
        """Is instrumentation at ``level`` active on this tracer?"""
        return self.level >= _resolve_level(level)

    def span(self, name, cat="phase", level=PHASES, **args):
        """A context manager recording one span (no-op below level)."""
        if self.level < level:
            return _NULL_SPAN
        return Span(self, name, cat, args)

    def annotate(self, **kwargs) -> None:
        """Attach args to this thread's innermost open span, if any."""
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].args.update(kwargs)

    def instant(self, name, cat="event", level=PHASES, **args) -> None:
        """A zero-duration event at the current time (nests trivially)."""
        if self.level < level:
            return
        stack = getattr(self._local, "stack", None)
        span = Span(self, name, cat, args)
        span.start = time.perf_counter() - self._origin
        span.tid = threading.get_ident()
        span.depth = len(stack) if stack else 0
        self._append(span)

    def record_foreign(self, name, cat, args, wall_start, duration,
                       tid) -> None:
        """Append a finished span another process measured.

        ``wall_start`` is that process's ``time.time()`` at span start;
        it is mapped onto this tracer's ``perf_counter`` origin (best
        effort: both clocks are the same host's).  ``tid`` names the
        lane the span is drawn in.
        """
        span = Span(self, name, cat, dict(args))
        origin_wall = time.time() - (time.perf_counter() - self._origin)
        span.start = wall_start - origin_wall
        span.duration = duration
        span.tid = tid
        self._append(span)

    # ------------------------------------------------------------------
    def _append(self, span) -> None:
        if lockset.active() is None:
            self._events.append(span)  # GIL-atomic (see Span.__exit__)
            return
        with self._lock:
            lockset.note_access("Tracer", self, "events")
            self._events.append(span)

    # ------------------------------------------------------------------
    def events(self) -> list:
        """Snapshot of the ring buffer (closed spans, completion order)."""
        with self._lock:
            lockset.note_access("Tracer", self, "events")
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            lockset.note_access("Tracer", self, "events")
            self._events.clear()

    def chrome_trace(self) -> dict:
        """The buffer as a Chrome ``trace_event`` JSON object.

        All spans export as complete ("X") events with microsecond
        ``ts``/``dur``; load the written file in Perfetto
        (https://ui.perfetto.dev) or ``chrome://tracing``.
        """
        events = [
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": self.pid,
                "tid": span.tid,
                "args": {key: _json_value(value)
                         for key, value in span.args.items()},
            }
            for span in self.events()
        ]
        # Parents before children: sort each thread's lane by start
        # time, longest-first on ties.
        events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path) -> str:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
        return path


def _json_value(value):
    """Span args coerced to JSON-serializable scalars."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        try:
            return value.item()
        except ValueError:  # an array of more than one element
            pass
    return str(value)


def tracer_for(config):
    """The tracer an engine should use under ``config``.

    ``trace_level="off"`` shares the module-level :data:`NULL_TRACER`
    singleton, so disabled tracing costs one attribute read plus
    constant-return calls.
    """
    if _resolve_level(config.trace_level) == OFF:
        return NULL_TRACER
    return Tracer(level=config.trace_level)


__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "tracer_for",
    "LEVELS",
    "OFF",
    "PHASES",
    "INSTRUCTIONS",
    "FULL",
    "DEFAULT_BUFFER_EVENTS",
]
