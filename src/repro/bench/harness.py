"""Shared helpers for the benchmark suite (benchmarks/).

Every benchmark regenerates one table or figure of the paper's
evaluation.  Helpers here time expression evaluations under the
experimental engine configurations and collect rows for the printed
summaries.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from repro import api
from repro.compiler.execution import Engine
from repro.config import CodegenConfig

#: Environment variable: when set, benchmark scripts using the harness
#: write their results (timings plus the counters they report) to this
#: JSON file via :func:`maybe_export_json`.
BENCH_JSON_ENV = "REPRO_BENCH_JSON"


@dataclass
class BenchResult:
    """Timings by engine mode for one workload configuration."""

    label: str
    seconds: dict[str, float] = field(default_factory=dict)
    # Per-mode counters the benchmark chose to report (RuntimeStats
    # fields read by name, or values derived from them).
    stats: dict = field(default_factory=dict)
    # Per-mode trace phase breakdown (phase_summary()), filled when the
    # benchmark runs with tracing enabled.
    phases: dict = field(default_factory=dict)

    def speedup(self, baseline: str, mode: str) -> float:
        return self.seconds[baseline] / max(self.seconds[mode], 1e-12)

    def row(self, modes: list[str]) -> str:
        cells = "  ".join(f"{self.seconds.get(m, float('nan'))*1e3:10.1f}" for m in modes)
        return f"{self.label:<28}{cells}"

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "seconds": dict(self.seconds),
            "scheduling": dict(self.stats),
            "phases": dict(self.phases),
        }


def time_once(func) -> float:
    """Wall-clock one invocation."""
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def time_best(func, repeats: int = 3) -> float:
    """Best of ``repeats`` invocations (after the caller's warmup)."""
    return min(time_once(func) for _ in range(repeats))


def phase_summary(engine) -> dict:
    """Trace-derived phase breakdown for one engine's buffered spans.

    Aggregates the engine tracer's span buffer by category: per-cat
    span count and total seconds, plus the compiler's per-pass timings
    from stats.  Empty ``by_category`` when ``trace_level="off"``.
    """
    by_cat: dict[str, dict] = {}
    for span in engine.tracer.events():
        if span.duration <= 0.0:
            continue
        entry = by_cat.setdefault(span.cat, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += span.duration
    return {
        "trace_level": engine.config.trace_level,
        "by_category": by_cat,
        "pipeline_pass_seconds": dict(engine.stats.pipeline_pass_seconds),
    }


def run_modes(build_exprs, modes: list[str], repeats: int = 3,
              config_factory=None, warmup: bool = True,
              collect_phases: dict | None = None) -> dict[str, float]:
    """Time ``eval_all(build_exprs())`` under each engine mode.

    A fresh engine per mode; one warmup run compiles fused operators so
    measured runs hit the plan cache (the paper reports post-JIT means).
    When ``collect_phases`` (a dict) is passed, it receives each mode's
    :func:`phase_summary` after the timed runs.
    """
    results: dict[str, float] = {}
    for mode in modes:
        config = config_factory() if config_factory is not None else CodegenConfig()
        engine = Engine(mode=mode, config=config)

        def evaluate():
            return api.eval_all(build_exprs(), engine=engine)

        if warmup:
            evaluate()
        results[mode] = time_best(evaluate, repeats)
        if collect_phases is not None:
            collect_phases[mode] = phase_summary(engine)
    return results


def print_table(title: str, modes: list[str], results: list[BenchResult]) -> None:
    """Print a paper-style results table (milliseconds)."""
    header = f"{'workload':<28}" + "  ".join(f"{m:>10}" for m in modes)
    print(f"\n=== {title} (ms) ===")
    print(header)
    for result in results:
        print(result.row(modes))


def export_json(path: str, title: str, results: list[BenchResult],
                extra: dict | None = None) -> None:
    """Write results (timings + reported counters) as a JSON report."""
    payload = {
        "title": title,
        "results": [r.as_dict() for r in results],
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def maybe_export_json(title: str, results: list[BenchResult],
                      extra: dict | None = None) -> str | None:
    """Export to ``$REPRO_BENCH_JSON`` if set; returns the path used."""
    path = os.environ.get(BENCH_JSON_ENV)
    if not path:
        return None
    export_json(path, title, results, extra)
    return path
