"""Log-bucketed histogram cells and the serving summary built on them.

Covers percentile sanity on the histogram cells (ordering, clamping to
observed extremes, interpolation) and the serving-summary integration
(``observe_request`` feeding per-tenant percentiles while every
pre-existing summary key survives).
"""

import numpy as np
import pytest

from repro.obs.metrics import HistogramCell, bucket_bounds, bucket_index
from repro.runtime.stats import RuntimeStats


class TestBuckets:
    def test_bucket_index_monotone(self):
        values = [1e-7, 1e-6, 3e-6, 1e-3, 0.5, 10.0, 1e6]
        indices = [bucket_index(v) for v in values]
        assert indices == sorted(indices)

    def test_value_falls_in_its_bucket(self):
        for value in (2e-6, 5e-5, 1e-3, 0.25, 7.5):
            lo, hi = bucket_bounds(bucket_index(value))
            assert lo < value <= hi


class TestHistogramCell:
    def test_percentile_ordering_and_clamping(self):
        cell = HistogramCell()
        rng = np.random.default_rng(0)
        samples = rng.exponential(0.01, size=500)
        for sample in samples:
            cell.observe(float(sample))
        p50, p95, p99 = (cell.percentile(q) for q in (50, 95, 99))
        assert p50 <= p95 <= p99
        assert samples.min() <= p50
        assert p99 <= samples.max()
        assert cell.percentile(0) == pytest.approx(samples.min())
        assert cell.percentile(100) == pytest.approx(samples.max())

    def test_percentile_approximates_exact(self):
        cell = HistogramCell()
        rng = np.random.default_rng(1)
        samples = rng.uniform(1e-4, 1e-1, size=2000)
        for sample in samples:
            cell.observe(float(sample))
        # Log-bucketed with factor 2: estimates are within one bucket
        # (a factor of 2) of the exact sample percentile.
        for q in (50, 95, 99):
            exact = float(np.percentile(samples, q))
            estimate = cell.percentile(q)
            assert exact / 2 <= estimate <= exact * 2

    def test_single_observation_degenerates(self):
        cell = HistogramCell()
        cell.observe(0.042)
        for q in (50, 95, 99):
            assert cell.percentile(q) == pytest.approx(0.042)
        assert cell.mean == pytest.approx(0.042)

    def test_empty_cell(self):
        cell = HistogramCell()
        assert cell.count == 0
        assert cell.percentile(50) == 0.0

    def test_combine_is_additive(self):
        a, b, both = HistogramCell(), HistogramCell(), HistogramCell()
        for value in (0.001, 0.002, 0.004):
            a.observe(value)
            both.observe(value)
        for value in (0.1, 0.2):
            b.observe(value)
            both.observe(value)
        a.combine(b)
        assert a.count == both.count == 5
        assert a.total == pytest.approx(both.total)
        assert a.vmin == both.vmin
        assert a.vmax == both.vmax
        assert a.buckets == both.buckets


class TestServingSummaryIntegration:
    def test_observe_request_feeds_percentiles(self):
        stats = RuntimeStats()
        rng = np.random.default_rng(2)
        for index in range(40):
            latency = float(rng.uniform(0.005, 0.05))
            stats.observe_request(
                "score", f"tenant{index % 2}",
                queue_seconds=latency / 4, exec_seconds=latency / 2,
                latency_seconds=latency,
            )
        summary = stats.serving_summary()
        assert summary["n_requests_served"] == 40
        assert summary["mean_latency_seconds"] == pytest.approx(
            summary["serve_latency_seconds"] / 40
        )
        assert 0.0 < summary["latency_p50"] <= summary["latency_p95"]
        assert summary["latency_p95"] <= summary["latency_p99"]
        assert summary["queue_p99"] >= summary["queue_p50"] > 0.0
        assert set(summary["per_tenant"]) == {"tenant0", "tenant1"}
        for row in summary["per_tenant"].values():
            assert row["n"] == 20
            assert row["latency_p99"] >= row["latency_p50"] > 0.0
            assert row["mean_latency_seconds"] > 0.0

    def test_summary_keeps_backward_compatible_keys(self):
        summary = RuntimeStats().serving_summary()
        # The pre-obs dict shape: every original key must survive the
        # metrics refactor (downstream benches index these directly).
        for key in (
            "n_requests_served", "n_requests_batched",
            "n_batches_executed", "n_batch_fallbacks",
            "n_specialization_hits", "n_specialization_misses",
            "n_shape_recompiles", "n_admission_waits",
            "serve_queue_seconds", "serve_exec_seconds",
            "serve_latency_seconds", "mean_latency_seconds",
            "plan_cache_hits", "plan_cache_misses", "plan_cache_size",
        ):
            assert key in summary, f"serving_summary lost '{key}'"

    def test_empty_summary_percentiles_are_zero(self):
        summary = RuntimeStats().serving_summary()
        assert summary["latency_p50"] == 0.0
        assert summary["latency_p99"] == 0.0
        assert summary["per_tenant"] == {}
