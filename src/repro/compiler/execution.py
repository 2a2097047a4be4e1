"""Execution engines: the experimental configurations of Section 5.

* ``base``     — basic operators only, every intermediate materialized,
* ``numpy``    — like base but without CSE sharing (the eager-library
                 reference standing in for Julia/TF),
* ``fused``    — base plus SystemML's hand-coded fused operators,
* ``gen``      — the cost-based codegen optimizer (Gen),
* ``gen-fa``   — the fuse-all heuristic (Gen-FA),
* ``gen-fnr``  — the fuse-no-redundancy heuristic (Gen-FNR).

:class:`Engine` is a thin façade over the staged pipeline:

1. the **compiler front half** (:mod:`repro.compiler.pipeline`) runs
   rewrites → codegen optimization → exec-type selection as named
   passes over a shared :class:`CompilationContext`,
2. the **lowering layer** (:mod:`repro.compiler.program`) converts the
   optimized multi-root HOP DAG into a ``Program`` of instructions with
   explicit symbol-table slots and dependency edges (hand-coded fused
   patterns lower at compile time — no runtime pattern recursion),
3. the **runtime executor** (:mod:`repro.runtime.executor`) schedules
   the program serially or over a thread pool by dependency readiness,
   eagerly freeing dead intermediates.

An engine owns a plan cache, a program cache and runtime statistics.
Every ``execute`` call plays the role of one statement-block
compilation, and iterative scripts rebuild the same few DAGs over new
data, so the engine compiles once per DAG *shape*
(:mod:`repro.compiler.symbolic`): the first call with a shape compiles
a copy of the DAG over symbolic leaves and keeps the lowered program;
every later call binds its blocks and run-time scalars into that
program's constant slots and runs it — no rewrites, no codegen, no
lowering.  Generated operators are still shared across shapes through
the plan cache.  Engines are thread-safe: compilations serialize on the
context's compile lock while runtime execution overlaps, which is what
the serving subsystem (:mod:`repro.serve`) builds on.

:func:`shared_engine` hands out one long-lived engine per mode, so
interpreter entry points (``run_script``, ``api.eval``) that are called
without an explicit engine reuse warm plan caches instead of paying the
full compile pipeline on every call.
"""

from __future__ import annotations

import dataclasses
import threading

from repro.compiler.pipeline import (
    MODE_POLICIES,
    CompilationContext,
    build_pipeline,
    compile_program,
)
from repro.compiler.recompile import Recompiler
from repro.compiler.speccache import SpecializationCache
from repro.compiler.symbolic import (
    DagShape,
    SymbolicBlock,
    dag_signature,
    symbolic_roots,
)
from repro.config import CodegenConfig, DEFAULT_CONFIG
from repro.errors import RuntimeExecError
from repro.hops.hop import Hop, LiteralOp
from repro.runtime.distributed import SparkExecutor
from repro.runtime.executor import ProgramExecutor

_MODES = tuple(MODE_POLICIES)

_shared_engines: dict[str, "Engine"] = {}
_shared_engines_lock = threading.Lock()


def shared_engine(mode: str = "gen") -> "Engine":
    """A process-wide engine for ``mode``, created on first use.

    Callers that do not manage an engine themselves (``run_script``
    without an ``engine=``, bare ``api.eval``) share these instances so
    repeated invocations hit warm plan and specialization caches.
    """
    with _shared_engines_lock:
        engine = _shared_engines.get(mode)
        if engine is None:
            engine = Engine(mode=mode)
            _shared_engines[mode] = engine
        return engine


class CachedProgram:
    """A program compiled for one DAG shape, and where a run's values go.

    ``leaf_slots`` / ``scalar_slots`` pair a constant slot with the leaf
    or bound-scalar ordinal (:class:`~repro.compiler.symbolic.DagShape`)
    whose value a run puts there.  Nothing here references a caller's
    data: the program's own constants are symbolic blocks.
    """

    __slots__ = ("program", "leaf_slots", "scalar_slots")

    def __init__(self, program, symbols: list):
        self.program = program
        ordinal_of = {id(symbol): n for n, symbol in enumerate(symbols)
                      if symbol is not None}
        self.leaf_slots = [
            (slot, ordinal_of[id(value)])
            for slot, value in program.constants
            if isinstance(value, SymbolicBlock)
        ]
        self.scalar_slots = [
            (slot, hop.bound)
            for slot, hop in program.slot_hops.items()
            if isinstance(hop, LiteralOp) and hop.bound >= 0
        ]

    def bindings(self, shape: DagShape) -> dict:
        """The executor's ``bindings`` overlay for one run."""
        bound = {slot: shape.leaves[n] for slot, n in self.leaf_slots}
        for slot, n in self.scalar_slots:
            bound[slot] = shape.scalars[n]
        return bound


class Engine:
    """Executes HOP DAGs under one of the experimental configurations.

    ``execute`` is the warm path: it looks the DAG's structural
    signature up in the engine's program cache and compiles only on a
    miss (see the module docstring).  The cache key also carries the
    three config fields a compile reads that a caller may change on a
    live engine — ``verify_level``, ``cluster`` and
    ``local_mem_budget`` — so changing one never runs a stale program;
    ``plan_cache_enabled=False`` turns the program cache off together
    with the plan cache.  ``compile`` stays the plain pipeline: the
    caller's DAG as it is, every literal by value.
    """

    def __init__(self, mode: str = "gen", config: CodegenConfig | None = None):
        if mode not in _MODES:
            raise RuntimeExecError(f"unknown engine mode '{mode}' (use {_MODES})")
        self.mode = mode
        self.config = config or DEFAULT_CONFIG.copy()
        self.context = CompilationContext(mode, self.config)
        self._pipeline = build_pipeline(mode)
        self._programs = SpecializationCache()
        self._spark = (
            SparkExecutor(self.config.cluster, self.config, self.stats)
            if self.config.cluster is not None
            else None
        )
        self.executor = ProgramExecutor(
            self.config, self.stats, self._spark,
            recompiler=Recompiler(self.context),
        )

    # Backward-compatible views onto the shared compilation context.
    @property
    def stats(self):
        return self.context.stats

    @property
    def plan_cache(self):
        return self.context.plan_cache

    @property
    def tracer(self):
        """The engine's span tracer (no-op unless config.trace_level)."""
        return self.context.tracer

    # ------------------------------------------------------------------
    def compile(self, roots: list[Hop]):
        """Run the compiler pipeline and lower to a runtime Program.

        The plain pipeline, uncached: ``roots`` are optimized in place
        (the DAG is spliced) and every literal compiles by value.
        """
        return compile_program(roots, self.context, self._pipeline)

    def execute(self, roots: list[Hop]) -> list:
        """Execute a multi-root DAG; returns root values.

        Compiles at most once per DAG shape, from a copy: the caller's
        DAG is left as built.  A DAG without a structural signature (it
        already contains fused operators) compiles the ordinary way,
        every time.
        """
        with self.tracer.span("evaluate", cat="request",
                              n_roots=len(roots)):
            config = self.config
            shape = (
                dag_signature(roots) if config.plan_cache_enabled else None
            )
            if shape is None:
                return self.executor.run(self.compile(roots))
            key = (
                shape.key, config.verify_level, config.local_mem_budget,
                config.cluster and dataclasses.astuple(config.cluster),
            )
            cached = self._programs.get_or_build(
                key, lambda: self._compile_shape(shape), self.stats
            )
            return self.executor.run(cached.program, cached.bindings(shape))

    def _compile_shape(self, shape: DagShape) -> CachedProgram:
        roots, symbols = symbolic_roots(shape)
        return CachedProgram(self.compile(roots), symbols)

    # ------------------------------------------------------------------
    # Observability (repro.obs).
    # ------------------------------------------------------------------
    def export_trace(self, path: str) -> str:
        """Write buffered spans as Chrome trace-event JSON.

        Load the file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``.  With ``trace_level="off"`` the file holds
        an empty ``traceEvents`` list.  Returns ``path``.
        """
        return self.tracer.export_chrome_trace(path)

    def profile_report(self):
        """Per-operator profile aggregated from the span buffer.

        Returns a :class:`~repro.obs.profile.ProfileReport`: ``str()``
        renders the explain-style text table, ``.data`` holds the raw
        per-operator aggregation.  Requires
        ``trace_level="instructions"`` or ``"full"`` for per-operator
        rows (phases-level traces profile compile phases only).
        """
        from repro.obs.profile import profile

        return profile(self.tracer, self.stats)

    # ------------------------------------------------------------------
    # Serving entry points (thin delegates into repro.serve).
    # ------------------------------------------------------------------
    def prepare(self, builder, name: str = "prepared",
                batch_inputs: tuple = (), **options):
        """Prepare an expression builder for repeated serving.

        ``builder`` receives a dict of named input placeholders
        (:class:`~repro.api.Mat`) and returns the output expression(s).
        Returns a :class:`~repro.serve.PreparedProgram` whose lowered
        plans are cached per input-shape signature.
        """
        from repro.serve import PreparedProgram

        return PreparedProgram(self, builder, name=name,
                               batch_inputs=tuple(batch_inputs), **options)

    def prepare_script(self, source: str, name: str = "script",
                       batch_inputs: tuple = (), **options):
        """Prepare a parameterized script (declared ``input`` slots)."""
        from repro.serve import PreparedProgram

        return PreparedProgram.from_script(self, source, name=name,
                                           batch_inputs=tuple(batch_inputs),
                                           **options)

    def close(self) -> None:
        """Release the executor's thread pool (idempotent)."""
        self.executor.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
