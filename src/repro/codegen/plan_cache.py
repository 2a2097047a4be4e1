"""The plan cache and operator compilation (codegen steps 4-5).

Generated operators live in one process-wide plan cache,
:data:`PLAN_CACHE`, keyed by the CPlan's semantic hash and the compiler
backend.  Every engine, serving specialization and dynamic
recompilation in the process looks its operators up there, so an
equivalent operator is generated and compiled once per process, across
DAGs and recompilations (Section 2.1).  ``plan_cache_enabled=False``
bypasses it: every lookup builds, with no cache at any level (the
no-cache legs of Table 3 and Figure 11).  Each operator compiles exactly
one source, its ``genbody``, under ``CodegenConfig.compiler``; the two
backends mirror the paper's janino vs javac comparison (Figure 11):

* ``exec``: in-memory ``compile()`` + ``exec()`` (the fast janino path),
* ``file``: write the source to a temporary directory, byte-compile it,
  and import it as a module (the heavyweight javac path).

The cache is thread-safe: serving requests and engines on several
threads share it.  Lookup/insert run under a single lock, and a
concurrent miss on the same key compiles exactly once — later threads
wait on the first thread's in-flight compilation instead of
duplicating it.  Per-engine hits and lookups are the
``plan_cache_hits`` / ``plan_cache_lookups`` fields of the engine's
``RuntimeStats``.
"""

from __future__ import annotations

import builtins
import importlib.util
import os
import py_compile
import tempfile
import threading
import time

from repro.analysis import lockset
from repro.codegen.cplan import CPlan
from repro.codegen.npgen import compile_kernel
from repro.codegen.pygen import (
    GENERATED_IMPORT_MODULES,
    GeneratedOperator,
    operator_name,
)
from repro.errors import CodegenError
from repro.obs import trace as obs_trace


class PlanCache:
    """(CPlan semantic hash, compiler backend) -> compiled operator
    (thread-safe)."""

    def __init__(self):
        self._cache: dict[tuple, GeneratedOperator] = {}
        self._lock = lockset.make_lock("PlanCache._lock")
        # key -> Event set once the owning thread finished compiling.
        self._building: dict[tuple, threading.Event] = {}

    @property
    def size(self) -> int:
        """Number of cached operators."""
        with self._lock:
            return len(self._cache)

    def _record(self, stats, **deltas) -> None:
        """Apply counter deltas to an engine stats object (locked)."""
        if stats is None:
            return
        with stats.lock:
            for name, delta in deltas.items():
                setattr(stats, name, getattr(stats, name) + delta)
            stats.plan_cache_size = max(
                stats.plan_cache_size, len(self._cache)
            )

    def get_or_compile(self, cplan: CPlan, config, stats=None) -> GeneratedOperator:
        """Return a compiled operator, reusing cached equivalents.

        On a concurrent miss for the same key only one thread compiles;
        the others block until the operator lands in the cache.  With
        ``config.plan_cache_enabled`` off every call builds.
        """
        self._record(stats, plan_cache_lookups=1)
        if not config.plan_cache_enabled:
            operator = build_operator(cplan, config, stats)
            self._record(stats, n_classes_compiled=1)
            return operator
        key = (cplan.semantic_hash(), config.compiler)
        while True:
            with self._lock:
                lockset.note_access("PlanCache", self, "cache")
                operator = self._cache.get(key)
                if operator is not None:
                    self._record(stats, plan_cache_hits=1)
                    return operator
                event = self._building.get(key)
                if event is None:
                    event = self._building[key] = threading.Event()
                    break  # this thread owns the compilation
            # Another thread is compiling this key: wait, then re-check
            # (a hit if it succeeded; ownership if it failed).
            event.wait()

        try:
            operator = build_operator(cplan, config, stats)
            with self._lock:
                lockset.note_access("PlanCache", self, "cache")
                self._cache[key] = operator
        finally:
            with self._lock:
                del self._building[key]
            event.set()
        self._record(stats, n_classes_compiled=1)
        return operator


#: The process's one plan cache.  Engines read it when they are built.
PLAN_CACHE = PlanCache()


def build_operator(cplan: CPlan, config, stats=None) -> GeneratedOperator:
    """Generate and compile a fused operator's ``genbody``.

    The one place generated code comes from: the plan cache calls it on
    a miss and the worker processes of the multiprocess backend call it
    on the shipped CPlan, so both sides hold the same source.
    """
    tracer = stats.tracer if stats is not None else obs_trace.NULL_TRACER
    start = time.perf_counter()
    with tracer.span("operator-compile", cat="compile",
                     op=operator_name(cplan), template=cplan.ttype.value):
        operator = compile_kernel(cplan, config, stats)
    if stats is not None:
        with stats.lock:
            stats.codegen_seconds += time.perf_counter() - start
    return operator


def compile_source(name: str, source: str, backend: str = "exec",
                   stats=None) -> dict:
    """Compile generated source into a namespace under ``backend``."""
    start = time.perf_counter()
    namespace = _compile_namespace(name, source, backend)
    if stats is not None:
        with stats.lock:
            stats.class_compile_seconds += time.perf_counter() - start
    return namespace


def compile_operator(name: str, source: str, backend: str = "exec",
                     stats=None):
    """Compile generated source and return its ``genbody``."""
    return compile_source(name, source, backend, stats=stats)["genbody"]


def _restricted_import(name, globals=None, locals=None, fromlist=(),
                       level=0):
    """``__import__`` hook for generated code: allowlisted modules only.

    Generated sources import exactly the surface the kernel lint
    permits (numpy/scipy and the runtime cell-function table); anything
    else — smuggled past the lint — fails here at exec time.
    """
    if level == 0 and any(
        name == prefix or name.startswith(prefix + ".")
        for prefix in GENERATED_IMPORT_MODULES
    ):
        return builtins.__import__(name, globals, locals, fromlist, level)
    raise CodegenError(
        f"generated code may not import '{name}' "
        f"(allowed: {', '.join(GENERATED_IMPORT_MODULES)})"
    )


#: The only builtins generated code executes with.  Mirrors the kernel
#: lint's name allowlist; no I/O, no introspection, no dynamic eval.
_GENERATED_BUILTINS = {
    "__import__": _restricted_import,
    "abs": abs,
    "bool": bool,
    "enumerate": enumerate,
    "float": float,
    "int": int,
    "len": len,
    "max": max,
    "min": min,
    "range": range,
    "repr": repr,
    "round": round,
    "sum": sum,
    "zip": zip,
}


def _compile_namespace(name: str, source: str, backend: str) -> dict:
    if backend == "exec":
        # Restricted namespace: generated code never sees full builtins
        # (the file backend imports a real module instead — the javac
        # analogue — and is covered by the source lint).
        namespace: dict = {"__builtins__": dict(_GENERATED_BUILTINS)}
        code = compile(source, f"<generated {name}>", "exec")
        exec(code, namespace)
        return namespace
    if backend == "file":
        with tempfile.TemporaryDirectory(prefix="repro_codegen_") as tmpdir:
            path = os.path.join(tmpdir, f"{name.lower()}.py")
            with open(path, "w") as handle:
                handle.write(source)
            # Byte-compile explicitly (the expensive out-of-process step
            # of javac, approximated in-process) and import the module.
            py_compile.compile(path, doraise=True)
            spec = importlib.util.spec_from_file_location(
                f"repro_gen_{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        return module.__dict__
    raise CodegenError(f"unknown compiler backend '{backend}'")
