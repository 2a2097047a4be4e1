"""The staged compiler pipeline (front half of the engine).

Mirrors the paper's compilation chain (Section 2.1): rewrites and CSE,
codegen plan optimization, then operator (exec-type) selection — each a
named, independently testable pass over a shared
:class:`CompilationContext`.  The pipeline ends with lowering the
optimized HOP DAG into a runtime :class:`~repro.compiler.program.Program`
(:func:`compile_program`), which the executor schedules.

Pass order notes:

* Codegen runs *before* exec-type selection: the optimizer's cost model
  reasons about cluster placement analytically (it never reads
  ``hop.exec_type``), and selection must see the spliced ``SpoofOp``s
  to type them.  Selection therefore runs exactly once per compile —
  ``RuntimeStats.n_exec_type_selections`` asserts this.
"""

from __future__ import annotations

import time

from repro.analysis import lockset
from repro.codegen.optimizer import CodegenOptimizer
from repro.config import CodegenConfig
from repro.hops import memory
from repro.hops.hop import Hop, collect_dag
from repro.hops.rewrites import apply_rewrites
from repro.hops.types import ExecType, OpKind
from repro.obs import trace as obs_trace
from repro.runtime.stats import RuntimeStats

#: Engine modes and the codegen policy (None = no codegen pass).
MODE_POLICIES = {
    "base": None,
    "numpy": None,
    "fused": None,
    "gen": "cost",
    "gen-fa": "fa",
    "gen-fnr": "fnr",
}


class CompilationContext:
    """Shared state threaded through all compiler passes.

    Owns the long-lived pieces — config, stats, and the codegen
    optimizer.  Compiled operators are not its own: the optimizer looks
    them up in the process-wide plan cache
    (:data:`repro.codegen.plan_cache.PLAN_CACHE`), so every context —
    each engine, serving specialization and recompile — reuses what
    any other compiled.
    """

    def __init__(self, mode: str, config: CodegenConfig,
                 stats: RuntimeStats | None = None):
        self.mode = mode
        self.config = config
        self.stats = stats or RuntimeStats()
        # One tracer per context (config.trace_level), attached to the
        # stats object so every layer that already receives stats —
        # executor, skeletons, kernels, plan cache, scheduler — can
        # open spans without new plumbing.
        self.tracer = obs_trace.tracer_for(config)
        self.stats.tracer = self.tracer
        self.optimizer = CodegenOptimizer(config, self.stats)
        # Serializes compilations through this context: the rewrite /
        # codegen passes mutate shared optimizer and stats state, so
        # concurrent serving requests compile one at a time (runtime
        # execution overlaps freely).  Reentrant so a compile hook may
        # trigger a nested recompilation.  Tracked for the lockset
        # race detector (compile-time counters mutate under it).
        self.lock = lockset.make_rlock("CompilationContext.lock")


class CompilerPass:
    """One named transformation of a multi-root HOP DAG."""

    name = "pass"

    def run(self, roots: list[Hop], ctx: CompilationContext) -> list[Hop]:
        raise NotImplementedError


class RewritePass(CompilerPass):
    """Static simplification rewrites plus CSE (disabled for ``numpy``,
    the no-sharing eager-library reference configuration)."""

    name = "rewrites"

    def run(self, roots: list[Hop], ctx: CompilationContext) -> list[Hop]:
        return apply_rewrites(roots, enable_cse=ctx.mode != "numpy")


class CodegenPass(CompilerPass):
    """Codegen plan optimization: explore, select, compile, splice."""

    name = "codegen"

    def __init__(self, policy: str):
        self.policy = policy

    def run(self, roots: list[Hop], ctx: CompilationContext) -> list[Hop]:
        return ctx.optimizer.optimize(roots, policy=self.policy)


class ExecTypeSelectionPass(CompilerPass):
    """Operator selection: local (CP) vs distributed (SPARK) placement
    by memory estimate.  Runs once per compile, after codegen, so the
    spliced fused operators are typed as well."""

    name = "exec-type-selection"

    def run(self, roots: list[Hop], ctx: CompilationContext) -> list[Hop]:
        ctx.stats.n_exec_type_selections += 1
        if ctx.config.cluster is None:
            return roots
        budget = ctx.config.local_mem_budget
        for hop in collect_dag(roots):
            if hop.kind in (OpKind.DATA, OpKind.LITERAL):
                hop.exec_type = ExecType.CP
                continue
            over_budget = memory.operation_bytes(hop) > budget
            hop.exec_type = ExecType.SPARK if over_budget else ExecType.CP
        return roots


def build_pipeline(mode: str) -> list[CompilerPass]:
    """The pass sequence for one engine mode."""
    policy = MODE_POLICIES[mode]
    passes: list[CompilerPass] = [RewritePass()]
    if policy is not None:
        passes.append(CodegenPass(policy))
    passes.append(ExecTypeSelectionPass())
    return passes


def run_passes(roots: list[Hop], passes: list[CompilerPass],
               ctx: CompilationContext) -> list[Hop]:
    """Run the passes in order, recording per-pass wall-clock.

    At ``verify_level="full"`` the IR verifier re-checks the DAG after
    every pass, so a violation is pinned to the pass that introduced it
    (``boundaries`` checks only the final optimized DAG, in
    :func:`compile_program`).
    """
    # Imported at call time: repro.analysis.verify needs the compiler
    # package (program helpers), so a module-level import here would
    # close a cycle whenever the analysis package loads first.
    per_pass_verify = ctx.config.verify_level == "full"
    if per_pass_verify:
        from repro.analysis.verify import check_dag
    for compiler_pass in passes:
        start = time.perf_counter()
        with ctx.tracer.span(compiler_pass.name, cat="compile"):
            roots = compiler_pass.run(roots, ctx)
        elapsed = time.perf_counter() - start
        seconds = ctx.stats.pipeline_pass_seconds
        seconds[compiler_pass.name] = seconds.get(compiler_pass.name, 0.0) + elapsed
        if per_pass_verify:
            check_dag(roots, ctx, stage=f"after-{compiler_pass.name}")
    return roots


def compile_program(roots: list[Hop], ctx: CompilationContext,
                    passes: list[CompilerPass] | None = None):
    """Front half + lowering: HOP roots to a runtime ``Program``.

    Thread-safe: the whole pipeline runs under the context's compile
    lock, so engines and prepared-program specializations sharing one
    context (plan cache, optimizer, stats) never interleave passes.
    """
    from repro.compiler.program import annotate_recompile_markers, lower_program

    with ctx.lock, ctx.tracer.span("compile", cat="compile"):
        if passes is None:
            passes = build_pipeline(ctx.mode)
        roots = run_passes(roots, passes, ctx)
        verify = ctx.config.verify_level in ("boundaries", "full")
        if verify:
            # Call-time import: see the note in run_passes.
            from repro.analysis.verify import check_dag, check_program

            with ctx.tracer.span("verify-dag", cat="compile"):
                check_dag(roots, ctx, stage="post-optimization")
        start = time.perf_counter()
        with ctx.tracer.span("lowering", cat="compile"):
            program = lower_program(roots, ctx.mode, ctx.config)
            # Partition the lowered program into recompilation segments:
            # instructions whose exec-type / fusion / format choices
            # rest on unknown or unknown-derived estimates are marked,
            # and the executor may re-enter this pipeline at those
            # boundaries with observed metadata spliced in
            # (compiler/recompile.py).
            ctx.stats.n_marked_instructions += annotate_recompile_markers(
                program
            )
        elapsed = time.perf_counter() - start
        seconds = ctx.stats.pipeline_pass_seconds
        seconds["lowering"] = seconds.get("lowering", 0.0) + elapsed
        if verify:
            # Covers adaptive recompiles too: spliced remainder programs
            # re-enter this pipeline and re-verify automatically.
            with ctx.tracer.span("verify-program", cat="compile"):
                check_program(program, ctx, stage="post-lowering")
            ctx.stats.n_verified_programs += 1
        ctx.stats.n_programs_compiled += 1
        ctx.stats.n_instructions_lowered += program.n_instructions
        return program
