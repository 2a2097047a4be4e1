"""RuntimeStats.merge / reset field audit.

``merge`` and ``reset`` enumerate ``dataclasses.fields``, so a counter
added to the dataclass can never be silently dropped.  These tests lock
that in: a fully-populated stats object (every numeric field nonzero,
every dict field non-empty) merges into an empty one with nothing lost,
gauges combine via max, histogram cells combine without being shared,
and reset zeroes every declared field.
"""

from dataclasses import MISSING, fields

import pytest

from repro.runtime.stats import RuntimeStats


def _numeric_fields():
    # stats.py uses `from __future__ import annotations`, so f.type is
    # a string; dict fields are identified by their default_factory.
    return [
        f for f in fields(RuntimeStats) if f.default_factory is MISSING
    ]


def _dict_fields():
    return [
        f for f in fields(RuntimeStats)
        if f.default_factory is not MISSING
    ]


def _fully_populated() -> RuntimeStats:
    """Every declared field nonzero/non-empty, values all distinct."""
    stats = RuntimeStats()
    for index, spec in enumerate(_numeric_fields(), start=1):
        current = getattr(stats, spec.name)
        setattr(stats, spec.name, type(current)(index))
    for index, spec in enumerate(_dict_fields(), start=1):
        setattr(stats, spec.name, {f"key{index}": index, "shared": 1})
    return stats


class TestFieldAudit:
    def test_dataclass_has_both_field_kinds(self):
        assert len(_numeric_fields()) > 30
        assert len(_dict_fields()) >= 3

    def test_every_field_is_mergeable_type(self):
        stats = RuntimeStats()
        for spec in fields(RuntimeStats):
            value = getattr(stats, spec.name)
            assert isinstance(value, (int, float, dict)), (
                f"field '{spec.name}' is a {type(value).__name__}: "
                "merge() only handles numeric counters and dicts, so "
                "this field would be silently dropped"
            )


class TestMerge:
    def test_merge_into_empty_drops_nothing(self):
        source = _fully_populated()
        target = RuntimeStats()
        target.merge(source)
        for spec in _numeric_fields():
            assert getattr(target, spec.name) == getattr(
                source, spec.name
            ), f"merge dropped numeric field '{spec.name}'"
        for spec in _dict_fields():
            assert getattr(target, spec.name) == getattr(
                source, spec.name
            ), f"merge dropped dict field '{spec.name}'"

    def test_merge_is_additive_for_counters(self):
        source = _fully_populated()
        target = _fully_populated()
        target.merge(source)
        for spec in _numeric_fields():
            if spec.name in RuntimeStats._GAUGES:
                continue
            assert getattr(target, spec.name) == 2 * getattr(
                source, spec.name
            ), f"counter '{spec.name}' did not add"
        for spec in _dict_fields():
            merged = getattr(target, spec.name)
            assert merged["shared"] == 2
            for key, value in getattr(source, spec.name).items():
                if key != "shared":
                    assert merged[key] == 2 * value

    def test_gauges_merge_via_max(self):
        low, high = RuntimeStats(), RuntimeStats()
        for spec_name in RuntimeStats._GAUGES:
            setattr(low, spec_name, 2)
            setattr(high, spec_name, 9)
        low.merge(high)
        high_copy = RuntimeStats()
        for spec_name in RuntimeStats._GAUGES:
            setattr(high_copy, spec_name, 9)
        high_copy.merge(low)
        for spec_name in RuntimeStats._GAUGES:
            assert getattr(low, spec_name) == 9
            assert getattr(high_copy, spec_name) == 9, (
                f"gauge '{spec_name}' added instead of taking the max"
            )

    def test_merge_skips_zero_fields(self):
        target = _fully_populated()
        before = {
            spec.name: getattr(target, spec.name)
            for spec in fields(RuntimeStats)
        }
        target.merge(RuntimeStats())
        for name, value in before.items():
            assert getattr(target, name) == value

    def test_merge_carries_metrics(self):
        source, target = RuntimeStats(), RuntimeStats()
        source.observe_request("p", "t", 0.001, 0.002, 0.003)
        target.observe_request("p", "t", 0.004, 0.005, 0.006)
        target.observe_request("q", "u", 0.001, 0.001, 0.001)
        target.merge(source)
        latency = target.serve_latency_hist
        assert latency[("t", "p")].count == 2
        assert latency[("t", "p")].total == pytest.approx(0.009)
        assert latency[("u", "q")].count == 1
        assert target.serve_queue_hist[("t", "p")].vmin == 0.001
        assert target.n_requests_served == 3

    def test_merge_without_metrics_stays_lazy(self):
        source, target = RuntimeStats(), RuntimeStats()
        source.n_recompiles = 1
        target.merge(source)
        assert target.serve_latency_hist == {}  # no cell materialized
        assert target.serve_queue_hist == {}

    def test_merge_never_aliases_a_cell(self):
        source, target = RuntimeStats(), RuntimeStats()
        source.observe_request("p", "t", 0.001, 0.002, 0.003)
        target.merge(source)
        target.observe_request("p", "t", 0.5, 0.5, 0.5)
        for hist in (source.serve_latency_hist, source.serve_queue_hist):
            cell = hist[("t", "p")]
            assert cell.count == 1
            assert cell.vmax < 0.5
        assert target.serve_latency_hist[("t", "p")].count == 2


class TestReset:
    def test_reset_zeroes_every_field(self):
        stats = _fully_populated()
        stats.observe_request("p", "t", 0.001, 0.002, 0.003)
        tracer = stats.tracer
        stats.reset()
        fresh = RuntimeStats()
        for spec in fields(RuntimeStats):
            assert getattr(stats, spec.name) == getattr(
                fresh, spec.name
            ), f"reset left field '{spec.name}' populated"
        assert stats.tracer is tracer  # identity survives reset
        assert stats.serve_latency_hist == {}
        assert stats.serve_queue_hist == {}
        assert stats.serving_summary()["latency_p99"] == 0.0

    def test_reset_then_merge_round_trips(self):
        stats = _fully_populated()
        snapshot = {
            spec.name: getattr(stats, spec.name)
            for spec in _numeric_fields()
        }
        donor = _fully_populated()
        stats.reset()
        stats.merge(donor)
        for name, value in snapshot.items():
            assert getattr(stats, name) == value
