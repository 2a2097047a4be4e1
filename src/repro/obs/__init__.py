"""Observability: span tracing, per-operator profiling, histogram cells.

Three cooperating pieces:

* :mod:`repro.obs.trace` — a hierarchical span tracer with a bounded
  ring buffer, gated by ``CodegenConfig.trace_level`` and exportable as
  Chrome ``trace_event`` JSON (``Engine.export_trace``),
* :mod:`repro.obs.profile` — aggregates instruction spans into an
  ``explain()``-style per-operator report (``Engine.profile_report``),
* :mod:`repro.obs.metrics` — the log-bucketed ``HistogramCell`` that
  ``RuntimeStats`` keeps its serving latency and queue-wait histograms
  in, read by ``RuntimeStats.serving_summary()``.

Every counter lives on :class:`repro.runtime.stats.RuntimeStats`.
"""

from repro.obs.metrics import HistogramCell
from repro.obs.trace import (
    FULL,
    INSTRUCTIONS,
    LEVELS,
    NULL_TRACER,
    OFF,
    PHASES,
    Span,
    Tracer,
    tracer_for,
)

__all__ = [
    "HistogramCell",
    "Span",
    "Tracer",
    "tracer_for",
    "NULL_TRACER",
    "LEVELS",
    "OFF",
    "PHASES",
    "INSTRUCTIONS",
    "FULL",
]
