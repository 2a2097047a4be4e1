"""Per-operator profiler: spans aggregated into an explain-style report.

Consumes a tracer's recorded events (``trace_level="instructions"`` or
``"full"``) and attributes wall-clock to instructions: per operator
label it reports executions, total/mean time, input format (dense /
csr / compressed), bytes moved, observed-vs-estimated nnz at recompile
boundaries, and recompile triggers.  Compile-phase and serving totals ride along so one
report answers "where did the time go" end to end.

``Engine.profile_report()`` is the entry point; the returned
:class:`ProfileReport` renders as a text table (``str(report)``) and
exposes the raw aggregation (``report.data``).
"""

from __future__ import annotations

from repro.obs.trace import NULL_TRACER


class ProfileReport:
    """Aggregated profile: ``.data`` dict plus a text-table rendering."""

    def __init__(self, data: dict, text: str):
        self.data = data
        self.text = text

    @property
    def per_operator(self) -> dict:
        return self.data["operators"]

    @property
    def totals(self) -> dict:
        return self.data["totals"]

    def __str__(self) -> str:
        return self.text


def _operator_entry() -> dict:
    return {
        "executions": 0,
        "seconds": 0.0,
        "bytes": 0.0,
        "formats": {},
        "nnz_estimated": None,
        "nnz_observed": None,
        "recompile_triggers": 0,
    }


def build_profile(events, stats=None) -> dict:
    """Aggregate tracer events into the profile data dict."""
    operators: dict[str, dict] = {}
    phases: dict[str, dict] = {}
    n_requests = 0
    for span in events:
        if span.cat == "instruction":
            entry = operators.setdefault(span.name, _operator_entry())
            entry["executions"] += 1
            entry["seconds"] += span.duration
            args = span.args
            entry["bytes"] += args.get("bytes", 0) or 0
            fmt = args.get("fmt")
            if fmt:
                entry["formats"][fmt] = entry["formats"].get(fmt, 0) + 1
        elif span.cat == "recompile":
            op = span.args.get("op")
            if op:
                entry = operators.setdefault(op, _operator_entry())
                if span.name == "recompile-splice":
                    entry["recompile_triggers"] += 1
                if "nnz_est" in span.args:
                    entry["nnz_estimated"] = span.args["nnz_est"]
                    entry["nnz_observed"] = span.args.get("nnz_obs")
        elif span.cat in ("compile", "serve"):
            phase = phases.setdefault(
                span.name, {"count": 0, "seconds": 0.0}
            )
            phase["count"] += 1
            phase["seconds"] += span.duration
        elif span.cat == "request":
            n_requests += 1
    for entry in operators.values():
        entry["mean_seconds"] = (
            entry["seconds"] / entry["executions"]
            if entry["executions"] else 0.0
        )
    totals = {
        "n_requests": n_requests,
        "instruction_seconds": sum(
            e["seconds"] for e in operators.values()
        ),
        "phases": phases,
    }
    if stats is not None:
        totals["pipeline_pass_seconds"] = dict(stats.pipeline_pass_seconds)
        totals["n_recompiles"] = stats.n_recompiles
    return {"operators": operators, "totals": totals}


def _dominant(counts: dict) -> str:
    if not counts:
        return "-"
    name, hits = max(counts.items(), key=lambda item: item[1])
    return name if len(counts) == 1 else f"{name}*"


def render_profile(data: dict) -> str:
    """The profile data as a paper-style text table."""
    operators = data["operators"]
    lines = [
        f"{'operator':<28}{'execs':>6}{'total ms':>10}{'mean ms':>9}"
        f"{'fmt':>12}{'MB':>8}{'nnz obs/est':>14}{'rc':>4}"
    ]
    ordered = sorted(
        operators.items(), key=lambda item: -item[1]["seconds"]
    )
    for name, entry in ordered:
        if entry["nnz_observed"] is not None:
            nnz = f"{entry['nnz_observed']:.0f}/{entry['nnz_estimated']:.0f}"
        else:
            nnz = "-"
        lines.append(
            f"{name:<28}{entry['executions']:>6}"
            f"{entry['seconds'] * 1e3:>10.3f}"
            f"{entry['mean_seconds'] * 1e3:>9.3f}"
            f"{_dominant(entry['formats']):>12}"
            f"{entry['bytes'] / 1e6:>8.2f}"
            f"{nnz:>14}"
            f"{entry['recompile_triggers']:>4}"
        )
    totals = data["totals"]
    lines.append(
        f"-- {len(operators)} operator(s), "
        f"{totals['n_requests']} request(s), "
        f"{totals['instruction_seconds'] * 1e3:.3f} ms in instructions"
    )
    for phase, info in sorted(totals["phases"].items()):
        lines.append(
            f"   {phase:<25}{info['count']:>6}x"
            f"{info['seconds'] * 1e3:>10.3f} ms"
        )
    return "\n".join(lines)


def profile(tracer, stats=None) -> ProfileReport:
    """Build the per-operator report from a tracer's buffered spans."""
    if tracer is NULL_TRACER or tracer.level <= 0:
        data = {"operators": {}, "totals": {"n_requests": 0,
                                            "instruction_seconds": 0.0,
                                            "phases": {}}}
        return ProfileReport(
            data,
            "profiling disabled: set CodegenConfig.trace_level to "
            "'instructions' or 'full'",
        )
    data = build_profile(tracer.events(), stats)
    if not data["operators"]:
        hint = (
            "no instruction spans recorded"
            + ("" if tracer.level >= 2
               else " (trace_level='phases' records phases only; use "
                    "'instructions' or 'full')")
        )
        return ProfileReport(data, hint)
    return ProfileReport(data, render_profile(data))


__all__ = ["ProfileReport", "build_profile", "render_profile", "profile"]
