"""Plan cache and operator compilation (codegen steps 4-5).

Generated operators are maintained in a plan cache keyed by the CPlan's
semantic hash, avoiding redundant code generation and compilation for
equivalent operators — across DAGs and during dynamic recompilation
(Section 2.1).  Each operator compiles exactly one source, its
``genbody``, under ``CodegenConfig.compiler``; the two backends mirror
the paper's janino vs javac comparison (Figure 11):

* ``exec``: in-memory ``compile()`` + ``exec()`` (the fast janino path),
* ``file``: write the source to disk, byte-compile it, and import it as
  a module (the heavyweight javac path).

The cache is thread-safe: a serving scheduler shares one cache across
concurrent request compilations.  Lookup/insert run under a single
lock, and a concurrent miss on the same key compiles exactly once —
later threads wait on the first thread's in-flight compilation instead
of duplicating it.
"""

from __future__ import annotations

import builtins
import hashlib
import importlib.util
import os
import py_compile
import sys
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

# Process-wide exec()-compile cache keyed by source hash: semantically
# identical operators regenerated across recompiles, specializations,
# and engines produce byte-identical source (operator names are
# deterministic functions of the semantic hash), so the compiled
# callable is reused instead of re-``exec``-ing identical code.
_SOURCE_CACHE: dict = {}
_SOURCE_CACHE_LOCK = lockset.make_lock("plan_cache._SOURCE_CACHE_LOCK")


def _source_cache_key(name: str, source: str, backend: str) -> str:
    digest = hashlib.sha256(source.encode()).hexdigest()
    return f"{backend}:{name}:{digest}"


class PlanCache:
    """CPlan-hash -> compiled operator cache (thread-safe)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._cache: dict[str, GeneratedOperator] = {}
        self._lock = lockset.make_lock("PlanCache._lock")
        # key -> Event set once the owning thread finished compiling.
        self._building: dict[str, threading.Event] = {}
        self.hits = 0
        self.lookups = 0

    @property
    def size(self) -> int:
        """Number of cached operators."""
        with self._lock:
            return len(self._cache)

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self.hits = 0
            self.lookups = 0

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
        the others block until the operator lands in the cache.
        """
        key = cplan.semantic_hash()
        with self._lock:
            lockset.note_access("PlanCache", self, "lookups")
            self.lookups += 1
        self._record(stats, plan_cache_lookups=1)
        while True:
            with self._lock:
                lockset.note_access("PlanCache", self, "cache")
                if self.enabled and key in self._cache:
                    self.hits += 1
                    operator = self._cache[key]
                    self._record(stats, plan_cache_hits=1)
                    return operator
                event = self._building.get(key)
                if event is None:
                    if self.enabled:
                        self._building[key] = threading.Event()
                    break  # this thread owns the compilation
            # Another thread is compiling this key: wait, then re-check
            # (a hit if it succeeded; ownership if it failed).
            event.wait()

        try:
            operator = build_operator(cplan, config, stats)
        except BaseException:
            with self._lock:
                failed = self._building.pop(key, None)
            if failed is not None:
                failed.set()
            raise

        with self._lock:
            lockset.note_access("PlanCache", self, "cache")
            if self.enabled:
                self._cache[key] = operator
            finished = self._building.pop(key, None)
        if finished is not None:
            finished.set()
        self._record(stats, n_classes_compiled=1)
        return operator


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
    """Compile generated source into a namespace, via the source cache.

    Byte-identical source compiles exactly once per process; later
    requests (recompiles, serving specializations, other engines) reuse
    the namespace and record a ``n_source_cache_hits``.
    """
    key = _source_cache_key(name, source, backend)
    with _SOURCE_CACHE_LOCK:
        lockset.note_access("plan_cache", _SOURCE_CACHE, "source_cache")
        namespace = _SOURCE_CACHE.get(key)
    if namespace is not None:
        if stats is not None:
            with stats.lock:
                stats.n_source_cache_hits += 1
        return namespace
    start = time.perf_counter()
    namespace = _compile_namespace(name, source, backend)
    if stats is not None:
        with stats.lock:
            stats.class_compile_seconds += time.perf_counter() - start
    with _SOURCE_CACHE_LOCK:
        lockset.note_access("plan_cache", _SOURCE_CACHE, "source_cache")
        _SOURCE_CACHE.setdefault(key, namespace)
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
    else — smuggled past the lint or injected into a cached source —
    fails here at exec time.
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
        tmpdir = tempfile.mkdtemp(prefix="repro_codegen_")
        path = os.path.join(tmpdir, f"{name.lower()}.py")
        with open(path, "w") as handle:
            handle.write(source)
        # Byte-compile explicitly (the expensive out-of-process step of
        # javac, approximated in-process) and import the module.
        py_compile.compile(path, doraise=True)
        spec = importlib.util.spec_from_file_location(f"repro_gen_{name}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        return module.__dict__
    raise CodegenError(f"unknown compiler backend '{backend}'")
