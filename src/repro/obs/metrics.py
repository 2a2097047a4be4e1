"""Labeled counters, gauges, and log-bucketed latency histograms.

A :class:`MetricsRegistry` hangs off each :class:`RuntimeStats` and
backs the percentile fields of its summaries: the serving scheduler
observes per-request queue/exec/latency seconds into histograms labeled
by ``(tenant, program)``, and ``serving_summary()`` extracts p50/p95/p99
from them (the flat ``serve_*_seconds`` totals stay as before, so every
existing summary dict shape is preserved).

Histograms are log-bucketed: bucket ``i >= 1`` covers
``(base * 2**(i-1), base * 2**i]`` seconds with ``base = 1e-6`` (the
underflow bucket 0 covers ``[0, base]``).  Percentiles interpolate
linearly inside the crossing bucket and clamp to the observed min/max,
so a histogram fed constant values reports that constant exactly.

Thread-safety: all cell mutations happen under one tracked lock per
registry (lockset-checked); merging run-local registries into a shared
one composes with ``RuntimeStats.merge``.
"""

from __future__ import annotations

import math

from repro.analysis import lockset

#: Lower bound of the first histogram bucket [seconds].
BUCKET_BASE = 1e-6
#: Highest bucket index (2**64 * base covers any conceivable latency).
MAX_BUCKET = 64

DEFAULT_PERCENTILES = (50.0, 95.0, 99.0)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def bucket_index(value: float) -> int:
    """The log-bucket index holding ``value`` (seconds)."""
    if value <= BUCKET_BASE:
        return 0
    return min(MAX_BUCKET,
               max(1, math.ceil(math.log2(value / BUCKET_BASE))))


def bucket_bounds(index: int) -> tuple[float, float]:
    """The (lo, hi] value range of one bucket index."""
    if index == 0:
        return 0.0, BUCKET_BASE
    return BUCKET_BASE * 2.0 ** (index - 1), BUCKET_BASE * 2.0 ** index


class HistogramCell:
    """Aggregated observations of one label combination."""

    __slots__ = ("count", "total", "vmin", "vmax", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def combine(self, other: "HistogramCell") -> None:
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in (0, 100])."""
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            in_bucket = self.buckets[index]
            if cumulative + in_bucket >= target:
                lo, hi = bucket_bounds(index)
                fraction = (target - cumulative) / in_bucket
                value = lo + (hi - lo) * fraction
                return min(max(value, self.vmin), self.vmax)
            cumulative += in_bucket
        return self.vmax

    def percentiles(self, qs=DEFAULT_PERCENTILES) -> dict:
        return {f"p{q:g}": self.percentile(q) for q in qs}

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "mean": self.mean,
            **self.percentiles(),
        }

    def copy(self) -> "HistogramCell":
        fresh = HistogramCell()
        fresh.combine(self)
        return fresh


class _Metric:
    """Shared cell plumbing for one named metric family."""

    kind = "metric"

    def __init__(self, name: str, lock):
        self.name = name
        self._lock = lock
        self._cells: dict[tuple, object] = {}

    def _note(self) -> None:
        lockset.note_access("MetricsRegistry", self, "cells")

    def labels(self) -> list[dict]:
        with self._lock:
            self._note()
            return [dict(key) for key in self._cells]

    def _export_cells(self) -> dict:
        """A copy of the cells, safe to pickle or to merge elsewhere."""
        with self._lock:
            self._note()
            return dict(self._cells)


class Counter(_Metric):
    """Monotonic labeled counter (merge = addition)."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._note()
            self._cells[key] = self._cells.get(key, 0.0) + value

    def value(self, **labels) -> float:
        with self._lock:
            self._note()
            return self._cells.get(_label_key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            self._note()
            return sum(self._cells.values())

    def _merge_cells(self, cells: dict) -> None:
        with self._lock:
            self._note()
            for key, value in cells.items():
                self._cells[key] = self._cells.get(key, 0.0) + value

    def snapshot(self) -> dict:
        with self._lock:
            self._note()
            return {str(dict(key)): value
                    for key, value in self._cells.items()}


class Gauge(_Metric):
    """Last-set labeled gauge (merge = max, like the stats gauges)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._note()
            self._cells[key] = value

    def value(self, **labels) -> float:
        with self._lock:
            self._note()
            return self._cells.get(_label_key(labels), 0.0)

    def _merge_cells(self, cells: dict) -> None:
        with self._lock:
            self._note()
            for key, value in cells.items():
                self._cells[key] = max(self._cells.get(key, value), value)

    def snapshot(self) -> dict:
        with self._lock:
            self._note()
            return {str(dict(key)): value
                    for key, value in self._cells.items()}


class Histogram(_Metric):
    """Labeled log-bucketed histogram with percentile extraction."""

    kind = "histogram"

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._note()
            cell = self._cells.get(key)
            if cell is None:
                cell = self._cells[key] = HistogramCell()
            cell.observe(float(value))

    def cells(self) -> list[tuple[dict, HistogramCell]]:
        """Snapshot of every (labels, cell) pair."""
        with self._lock:
            self._note()
            return [(dict(key), cell.copy())
                    for key, cell in self._cells.items()]

    def aggregate(self, **label_filter) -> HistogramCell:
        """One combined cell over all labels matching ``label_filter``."""
        combined = HistogramCell()
        for labels, cell in self.cells():
            if all(labels.get(k) == v for k, v in label_filter.items()):
                combined.combine(cell)
        return combined

    def grouped(self, label: str) -> dict[str, HistogramCell]:
        """Combined cells keyed by one label's values."""
        groups: dict[str, HistogramCell] = {}
        for labels, cell in self.cells():
            key = labels.get(label, "")
            groups.setdefault(key, HistogramCell()).combine(cell)
        return groups

    def percentiles(self, qs=DEFAULT_PERCENTILES, **label_filter) -> dict:
        return self.aggregate(**label_filter).percentiles(qs)

    def count(self, **label_filter) -> int:
        return self.aggregate(**label_filter).count

    def _export_cells(self) -> dict:
        with self._lock:
            self._note()
            return {key: cell.copy() for key, cell in self._cells.items()}

    def _merge_cells(self, cells: dict) -> None:
        with self._lock:
            self._note()
            for key, cell in cells.items():
                mine = self._cells.get(key)
                if mine is None:
                    mine = self._cells[key] = HistogramCell()
                mine.combine(cell)

    def snapshot(self) -> dict:
        return {str(labels): cell.snapshot()
                for labels, cell in self.cells()}


class MetricsRegistry:
    """Get-or-create registry of named metrics (one per stats object)."""

    _CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        # Tracked: shared across executor runs, the serving scheduler,
        # and summary readers; lockset-checked like stats.lock.
        self._lock = lockset.make_lock("MetricsRegistry._lock")
        self._metrics: dict[tuple[str, str], _Metric] = {}

    def _get(self, kind: str, name: str) -> _Metric:
        key = (kind, name)
        with self._lock:
            lockset.note_access("MetricsRegistry", self, "metrics")
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = self._CLASSES[kind](
                    name, self._lock
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get("counter", name)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get("gauge", name)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get("histogram", name)  # type: ignore[return-value]

    def export(self) -> list:
        """Every metric as a picklable ``(kind, name, cells)`` triple:
        what a worker process sends its driver, and what
        :meth:`merge_exported` takes."""
        return [(kind, name, metric._export_cells())
                for (kind, name), metric in self._items()]

    def merge_exported(self, exported: list) -> None:
        """Accumulate the :meth:`export` of another registry."""
        for kind, name, cells in exported:
            self._get(kind, name)._merge_cells(cells)  # type: ignore[attr-defined]

    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate another registry (run-local -> shared)."""
        self.merge_exported(other.export())

    def clear(self) -> None:
        with self._lock:
            lockset.note_access("MetricsRegistry", self, "metrics")
            self._metrics.clear()

    def _items(self) -> list:
        with self._lock:
            lockset.note_access("MetricsRegistry", self, "metrics")
            return list(self._metrics.items())

    def snapshot(self) -> dict:
        """All metrics as plain dicts (JSON-friendly observability)."""
        return {
            f"{kind}:{name}": metric.snapshot()  # type: ignore[attr-defined]
            for (kind, name), metric in self._items()
        }


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramCell",
    "MetricsRegistry",
    "bucket_index",
    "bucket_bounds",
    "DEFAULT_PERCENTILES",
]
