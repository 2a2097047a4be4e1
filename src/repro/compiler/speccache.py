"""The specialization cache: compile once per key, serve from memory.

One small class behind both warm paths of an engine — ``Engine.execute``
keys it on a DAG's structural signature
(:func:`repro.compiler.symbolic.dag_signature`), a
:class:`~repro.serve.PreparedProgram` on its input signature — so there
is one discipline for both: a lookup that hits touches no compiler code,
concurrent misses on one key compile exactly once while hits and misses
on other keys proceed, and the least recently used entry goes when the
capacity is reached.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Programs an engine keeps for ``Engine.execute``.  An iterative
#: algorithm presents a handful of DAG shapes (L2SVM 7, ALS-CG 9); the
#: bound only matters to callers that never repeat one.
PROGRAM_CACHE_CAPACITY = 256


class SpecializationCache:
    """Key -> compiled entry, single-flight and LRU-bounded."""

    def __init__(self, capacity: int = PROGRAM_CACHE_CAPACITY):
        self.capacity = max(1, capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()  # oldest use first
        # key -> Event of the compile in flight for it.
        self._building: dict = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_build(self, key, build, stats):
        """The entry for ``key``; ``build()`` makes it on a miss.

        ``build`` runs outside the lock.  A concurrent miss on the same
        key waits for the first thread's result (and takes over if that
        compile raised).  Counts ``n_specialization_hits`` /
        ``n_specialization_misses`` on ``stats``.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                else:
                    in_flight = self._building.get(key)
                    if in_flight is None:
                        in_flight = self._building[key] = threading.Event()
                        break  # this thread owns the compilation
            if entry is not None:
                with stats.lock:
                    stats.n_specialization_hits += 1
                return entry
            in_flight.wait()
        try:
            entry = build()
            with self._lock:
                self._entries[key] = entry
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
        finally:
            with self._lock:
                del self._building[key]
            in_flight.set()
        with stats.lock:
            stats.n_specialization_misses += 1
        return entry
