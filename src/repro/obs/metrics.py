"""Log-bucketed latency histogram cells.

A :class:`HistogramCell` aggregates the observations of one key.
``RuntimeStats`` keeps the serving latency and queue-wait histograms as
dict fields keyed by ``(tenant, program)`` whose values are cells, and
``serving_summary()`` extracts p50/p95/p99 from them.

Histograms are log-bucketed: bucket ``i >= 1`` covers
``(base * 2**(i-1), base * 2**i]`` seconds with ``base = 1e-6`` (the
underflow bucket 0 covers ``[0, base]``).  Percentiles interpolate
linearly inside the crossing bucket and clamp to the observed min/max,
so a histogram fed constant values reports that constant exactly.

Cells take no lock: their owner (``RuntimeStats``) mutates them under
its own.
"""

from __future__ import annotations

import math

#: Lower bound of the first histogram bucket [seconds].
BUCKET_BASE = 1e-6
#: Highest bucket index (2**64 * base covers any conceivable latency).
MAX_BUCKET = 64


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
    """Aggregated observations of one key."""

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

    def copy(self) -> "HistogramCell":
        fresh = HistogramCell()
        fresh.combine(self)
        return fresh


__all__ = ["HistogramCell", "bucket_index", "bucket_bounds"]
