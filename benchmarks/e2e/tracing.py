"""Per-layer tracing from outside the program.

:func:`install` wraps the public functions that mark ``repro``'s layer
boundaries; each call records one span (name, thread, start, end, the
span that caused it, op id) in memory.  Nothing inside ``repro`` is
edited and its own ``repro.obs`` tracer stays off.

A span's *name* is a per-layer metric without its ``_s`` suffix
(``codegen.optimize``); the part before the dot is the layer, which is
the package under ``src/repro/``.  Times are inclusive: ``codegen.cost``
spans lie inside ``codegen.enumerate`` spans, which lie inside
``codegen.optimize``, and all three metrics count that time; spans that
ran at once on several threads each count in full.  A span's *self* time
is its duration minus what its children cover.  A layer's ``self_share``
is wall-clock attribution: the self time of its spans on the op's thread
over the op time, so the shares of all layers add up to
``trace.coverage``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

_NAME, _TID, _START, _END, _PARENT, _OP = range(6)

LAYERS = ("hops", "codegen", "compiler", "runtime", "algorithms")


def _spoof_name(args) -> str:
    """``execute_operator`` spans are named by the operator's template."""
    return "runtime.spoof_" + args[0].cplan.ttype.value.lower()


#: span name -> the public callables it wraps, as (module, qualified name).
TARGETS = {
    "hops.rewrites": [("repro.hops.rewrites", "apply_rewrites")],
    "codegen.optimize": [("repro.codegen.optimizer", "CodegenOptimizer.optimize")],
    "codegen.explore": [("repro.codegen.explore", "explore")],
    "codegen.enumerate": [("repro.codegen.enumerate", "mpskip_enum")],
    "codegen.cost": [("repro.codegen.cost", "CostEstimator.cost_partition")],
    "codegen.construct": [("repro.codegen.construct", "construct_cplan"),
                          ("repro.codegen.construct", "construct_multi_agg")],
    "codegen.plan_cache": [("repro.codegen.plan_cache", "PlanCache.get_or_compile")],
    "codegen.source_gen": [("repro.codegen.pygen", "generate_source"),
                           ("repro.codegen.npgen", "generate_kernel_source")],
    "codegen.class_compile": [("repro.codegen.plan_cache", "compile_source"),
                              ("repro.codegen.plan_cache", "compile_operator"),
                              ("repro.codegen.npgen", "compile_kernel")],
    "compiler.compile": [("repro.compiler.pipeline", "compile_program")],
    "compiler.lower": [("repro.compiler.program", "lower_program")],
    "runtime.execute": [("repro.runtime.executor", "ProgramExecutor.run")],
    "runtime.instr_busy": [("repro.runtime.executor", "execute_instruction")],
    _spoof_name: [("repro.runtime.skeletons", "execute_operator")],
    "runtime.kernel": [("repro.runtime.npexec", "execute_kernel")],
    "runtime.basic": [("repro.runtime.ops", name) for name in (
        "unary", "cumsum", "binary", "ternary", "agg_unary", "matmult",
        "transpose", "rix", "cbind", "rbind")],
    "runtime.convert": [("repro.runtime.matrix", "MatrixBlock.to_dense"),
                        ("repro.runtime.matrix", "MatrixBlock.to_csr"),
                        ("repro.runtime.matrix", "MatrixBlock.examine_representation"),
                        ("repro.runtime.compressed", "compress"),
                        ("repro.runtime.compressed", "CompressedMatrix.decompress")],
    "runtime.dist_execute": [("repro.runtime.distributed", "SparkExecutor.execute_instruction")],
    "runtime.dist_partition": [("repro.runtime.distributed", "BlockedMatrix.partition")],
    "runtime.dist_collect": [("repro.runtime.distributed", "SparkExecutor.collect_value")],
    "runtime.tree_reduce": [("repro.runtime.skeletons", "tree_reduce")],
    "runtime.mp_run": [("repro.runtime.mpexec", "ProcessPoolBackend.run_map"),
                       ("repro.runtime.mpexec", "ProcessPoolBackend.run_spoof")],
    "runtime.mp_encode": [("repro.runtime.mpexec", "encode_value")],
    "algorithms.evaluate": [("repro.algorithms.common", "evaluate")],
}


class SpanTracer:
    """In-memory span recorder for one traced trial."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        #: HOP DAG nodes left after ``apply_rewrites``, summed over calls.
        self.dag_nodes = 0
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()

    def wrap(self, name, fn):
        """Return ``fn`` recording one span per call.

        A span opened on a thread with nothing open was caused by
        whatever the op's thread has open: the benchmark has one client,
        so pool threads only ever work for its current call.
        """
        spans, stacks, main = self.spans, self._stacks, self._main
        clock, ident = time.perf_counter, threading.get_ident
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main)
                parent = main_stack[-1] if tid != main and main_stack else None
            span = [namer(args) if namer else name, tid, 0.0, 0.0, parent,
                    self.op_id]
            spans.append(span)
            stack.append(span)
            span[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target, wherever ``repro`` holds a reference to it."""
        from repro.hops.hop import collect_dag

        for name, targets in TARGETS.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(owner, attr,
                                classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(owner, attr, self.wrap(name, raw))
                    continue
                original = getattr(module, attr)
                traced = self.wrap(name, original)
                if attr == "apply_rewrites":
                    traced = self._counting_dag_nodes(traced, collect_dag)
                # ``from x import f`` copies the reference: replace it in
                # every repro module that holds one.
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.partition(".")[0] != "repro" or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)

    def _counting_dag_nodes(self, fn, collect_dag):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            roots = fn(*args, **kwargs)
            self.dag_nodes += len(collect_dag(roots))
            return roots

        return counted

    # ------------------------------------------------------------------
    def summarize(self, op_walls: list[float]) -> dict:
        """Per-op seconds by span name, layer self shares and coverage.

        ``op_walls`` are the wall times of the traced ops, in op-id
        order; every span carries the id of the op it ran in.
        """
        spans = self.spans
        n_ops = len(op_walls)
        total_wall = sum(op_walls)
        children: dict[int, list] = defaultdict(list)
        for span in spans:
            if span[_PARENT] is not None:
                children[id(span[_PARENT])].append(span)

        main = self._main
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        layer_wall: dict[str, float] = defaultdict(float)
        executor_self = 0.0
        roots_by_op: dict[int, list] = defaultdict(list)
        for span in spans:
            name = span[_NAME]
            calls[name] += 1
            ancestor = span[_PARENT]
            while ancestor is not None and ancestor[_NAME] != name:
                ancestor = ancestor[_PARENT]
            if ancestor is None:  # outermost span of this name
                inclusive[name] += span[_END] - span[_START]
            kids = children.get(id(span), ())
            if name == "runtime.execute":
                # The executor's own scheduling: its run minus the
                # instructions, on whichever thread they ran.
                executor_self += _self_time(span, kids)
            if span[_TID] != main:
                continue
            # Wall-clock attribution follows the op's thread: while it
            # waits for pool threads, the span that waits owns the time.
            layer_wall[name.partition(".")[0]] += _self_time(
                span, [k for k in kids if k[_TID] == main]
            )
            if span[_PARENT] is None:
                roots_by_op[span[_OP]].append((span[_START], span[_END]))
        root_cover = sum(_union_length(intervals)
                         for intervals in roots_by_op.values())

        out = {f"{name}_s": inclusive.get(name, 0.0) / n_ops
               for name in span_names()}
        out.update({f"{layer}.self_share": layer_wall[layer] / total_wall
                    for layer in LAYERS})
        out["runtime.executor_self_s"] = executor_self / n_ops
        out["trace.coverage"] = root_cover / total_wall
        out["algorithms.blocks_per_op"] = calls["algorithms.evaluate"] / n_ops
        out["hops.dag_nodes"] = self.dag_nodes / n_ops
        return out

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON (load in Perfetto or chrome://tracing)."""
        origin = min((s[_START] for s in self.spans), default=0.0)
        index = {id(span): i for i, span in enumerate(self.spans)}
        events = [
            {
                "name": span[_NAME], "ph": "X", "pid": 1, "tid": span[_TID],
                "ts": (span[_START] - origin) * 1e6,
                "dur": (span[_END] - span[_START]) * 1e6,
                "args": {
                    "id": i, "op": span[_OP],
                    "parent": index[id(span[_PARENT])]
                    if span[_PARENT] is not None else None,
                },
            }
            for i, span in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def span_names() -> list[str]:
    """Every span name the targets can produce."""
    names = [name for name in TARGETS if not callable(name)]
    names += [f"runtime.spoof_{t}" for t in ("cell", "magg", "row", "outer")]
    return names


def _self_time(span, kids) -> float:
    """``span``'s duration minus the part of it that ``kids`` cover."""
    covered = _union_length(
        [(max(k[_START], span[_START]), min(k[_END], span[_END]))
         for k in kids]
    )
    return span[_END] - span[_START] - covered


def _union_length(intervals) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= max(start, reach):  # empty once clipped, or already covered
            continue
        total += end - max(start, reach)
        reach = end
    return total
