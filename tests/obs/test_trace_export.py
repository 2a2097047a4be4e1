"""Golden-shape tests for the Chrome trace-event export (repro.obs).

A traced L2SVM run must export valid Chrome ``trace_event`` JSON:
every event carries the required keys with the right types, and the
span intervals of each thread nest strictly (a proper containment
forest — what Perfetto's flame view renders).  ``trace_level="off"``
must emit zero events, and a recompiling run must show the
``recompile-splice`` span nested inside its ``request`` span.
"""

import json

import numpy as np
import pytest

from repro import api
from repro.algorithms import l2svm
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.data import generators
from repro.runtime.matrix import MatrixBlock

#: Interval-nesting slack in microseconds: exported ts/dur are exact
#: float conversions of perf_counter differences, so only float
#: rounding (far below 1e-3 us) can perturb containment.
EPS_US = 1e-3

REQUIRED_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid"}


def _traced_l2svm(trace_level: str, tmp_path):
    x, y = generators.classification_data(120, 8, n_classes=2, seed=3)
    engine = Engine(
        mode="gen", config=CodegenConfig(trace_level=trace_level)
    )
    l2svm(x, y, engine=engine, max_iter=3)
    path = tmp_path / f"trace_{trace_level}.json"
    engine.export_trace(str(path))
    engine.close()
    with open(path) as handle:
        return json.load(handle)


class TestChromeTraceShape:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        return _traced_l2svm(
            "full", tmp_path_factory.mktemp("trace")
        )

    def test_top_level_shape(self, trace):
        assert set(trace) >= {"traceEvents", "displayTimeUnit"}
        assert isinstance(trace["traceEvents"], list)
        assert trace["traceEvents"], "traced run produced no events"

    def test_event_keys_and_types(self, trace):
        for event in trace["traceEvents"]:
            assert REQUIRED_KEYS <= set(event), (
                f"event missing keys: {sorted(REQUIRED_KEYS - set(event))}"
            )
            assert event["ph"] == "X"
            assert isinstance(event["name"], str) and event["name"]
            assert isinstance(event["cat"], str) and event["cat"]
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            args = event.get("args", {})
            assert isinstance(args, dict)
            for value in args.values():
                assert value is None or isinstance(
                    value, (str, int, float, bool)
                ), f"non-JSON-scalar arg in {event['name']}: {value!r}"

    def test_expected_span_names(self, trace):
        names = {event["name"] for event in trace["traceEvents"]}
        cats = {event["cat"] for event in trace["traceEvents"]}
        # Request -> compile phases -> instructions -> operator bodies.
        assert {"evaluate", "compile", "lowering", "request"} <= names
        assert {"request", "compile", "instruction", "operator"} <= cats

    def test_strict_nesting_per_thread(self, trace):
        """Each thread's intervals form a proper containment forest.

        Replaying events (sorted by start, longest-first on ties)
        against a stack: each event must either nest fully inside the
        stack top or start at/after its end — partial overlap fails.
        """
        by_tid: dict = {}
        for event in trace["traceEvents"]:
            if event["dur"] <= 0.0:
                continue  # instants nest trivially
            by_tid.setdefault(event["tid"], []).append(event)
        assert by_tid, "no interval events recorded"
        for tid, events in by_tid.items():
            events.sort(key=lambda e: (e["ts"], -e["dur"]))
            stack: list = []
            for event in events:
                start, end = event["ts"], event["ts"] + event["dur"]
                while stack and start >= stack[-1][1] - EPS_US:
                    stack.pop()
                if stack:
                    assert end <= stack[-1][1] + EPS_US, (
                        f"tid {tid}: '{event['name']}' "
                        f"[{start}, {end}] partially overlaps "
                        f"'{stack[-1][2]}' ending at {stack[-1][1]}"
                    )
                stack.append((start, end, event["name"]))


class TestTraceLevels:
    def test_off_emits_zero_events(self, tmp_path):
        trace = _traced_l2svm("off", tmp_path)
        assert trace["traceEvents"] == []

    def test_phases_has_no_instruction_spans(self, tmp_path):
        trace = _traced_l2svm("phases", tmp_path)
        cats = {event["cat"] for event in trace["traceEvents"]}
        assert "compile" in cats
        assert "instruction" not in cats
        assert "operator" not in cats

    def test_instructions_level_adds_instruction_spans(self, tmp_path):
        trace = _traced_l2svm("instructions", tmp_path)
        cats = {event["cat"] for event in trace["traceEvents"]}
        assert "instruction" in cats
        assert "operator" not in cats  # operator bodies are full-only

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown trace level"):
            Engine(mode="gen",
                   config=CodegenConfig(trace_level="verbose"))


class TestRecompileSpliceNesting:
    def test_splice_nested_inside_request(self, tmp_path):
        """A recompiling run's splice span sits inside its request span."""
        rng = np.random.default_rng(5)
        arr = np.zeros((400, 300))
        mask = rng.random((400, 300)) < 0.01
        arr[mask] = rng.random(int(mask.sum())) + 0.5
        engine = Engine(
            mode="base", config=CodegenConfig(trace_level="phases")
        )
        x = api.matrix(MatrixBlock(arr), name="X", nnz_unknown=True)
        api.eval_all([(x * 3.0) * api.abs_(x)], engine=engine)
        assert engine.stats.n_recompiles > 0, (
            "workload did not trigger an adaptive recompile"
        )
        path = tmp_path / "recompile.json"
        engine.export_trace(str(path))
        engine.close()
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        splices = [e for e in events if e["name"] == "recompile-splice"]
        assert splices, "no recompile-splice span recorded"
        for splice in splices:
            start = splice["ts"]
            end = start + splice["dur"]
            enclosing = [
                e for e in events
                if e["name"] == "request" and e["tid"] == splice["tid"]
                and e["ts"] <= start + EPS_US
                and e["ts"] + e["dur"] >= end - EPS_US
            ]
            assert enclosing, (
                "recompile-splice span is not nested inside a request "
                "span on its thread"
            )
            # The splice wraps a full nested compile of the remainder.
            nested_compiles = [
                e for e in events
                if e["name"] == "compile" and e["tid"] == splice["tid"]
                and e["ts"] >= start - EPS_US
                and e["ts"] + e["dur"] <= end + EPS_US
            ]
            assert nested_compiles, (
                "recompile-splice did not wrap a nested compile span"
            )


class TestSpanArgs:
    def test_array_arg_exports_as_its_str(self):
        """A numpy scalar exports as its value; an array of several
        elements, whose ``.item()`` raises, as its ``str``."""
        from repro.obs.trace import Tracer

        tracer = Tracer(level="full")
        pair = np.array([1.0, 2.0])
        with tracer.span("probe", pair=pair, count=np.int64(3)):
            pass
        (event,) = [e for e in tracer.chrome_trace()["traceEvents"]
                    if e["name"] == "probe"]
        assert event["args"] == {"pair": str(pair), "count": 3}
