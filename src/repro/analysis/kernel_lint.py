"""AST lint over generated sources before they are compiled.

Every fused operator has one generated source, its ``genbody``
(:mod:`repro.codegen.pygen`), which :func:`repro.codegen.npgen
.compile_kernel` lints here before the plan cache compiles it.  This
pass checks the source against the contract the templates are supposed
to honor:

* **Imports**: only the allowed generated-code surface
  (``repro.codegen.pygen.GENERATED_IMPORT_MODULES`` — numpy, scipy,
  and the runtime cell-function table :mod:`repro.runtime.vector`).
  No ``__import__``, no I/O, no introspection builtins.
* **Names**: every loaded global must be a parameter, a local
  assignment, an import alias, or an allowlisted builtin.
* **Determinism**: no ``random``/``time``/``datetime``/``uuid`` use —
  generated operators must be pure functions of their inputs (the
  differential harness depends on it).
* **Whole-value discipline**: generated functions are straight-line
  calls over whole arrays and contain no Python-level loops;
  Row bodies that take their main input or a side input as CSR must
  not densify it (no ``.toarray()``/``.todense()``, no
  ``np.asarray(a, ...)`` / ``np.asarray(b[k], ...)``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.errors import KernelLintError

#: Builtins generated code may reference by name.
ALLOWED_BUILTINS = frozenset({
    "abs", "bool", "enumerate", "float", "int", "len", "max", "min",
    "range", "repr", "round", "sum", "zip",
})

#: Call targets that are never acceptable in generated code.
FORBIDDEN_CALLS = frozenset({
    "__import__", "breakpoint", "compile", "delattr", "eval", "exec",
    "exit", "getattr", "globals", "input", "locals", "open", "print",
    "quit", "setattr", "vars",
})

#: Names / attribute accesses implying nondeterminism or wall-clock.
NONDETERMINISTIC = frozenset({
    "datetime", "perf_counter", "rand", "randint", "randn", "random",
    "secrets", "seed", "shuffle", "time", "urandom", "uuid",
})

#: Densifying accesses forbidden in Row kernels that take CSR inputs.
DENSIFYING_ATTRS = frozenset({"toarray", "todense"})
DENSIFYING_CALLS = frozenset({
    "array", "asarray", "ascontiguousarray", "asfortranarray",
})

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)


@dataclass
class LintFinding:
    """One violation of the generated-code contract."""

    name: str  # operator / kernel name
    rule: str
    message: str
    line: int = 0

    def __str__(self) -> str:
        return f"{self.name}:{self.line}: [{self.rule}] {self.message}"


def _allowed_import(module: str, allowed_modules: tuple) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in allowed_modules
    )


def _collect_bound_names(tree: ast.Module) -> set:
    """Every name the module binds: imports, assignments, defs, params,
    loop and comprehension targets."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                bound.add(arg.arg)
            if args.vararg:
                bound.add(args.vararg.arg)
            if args.kwarg:
                bound.add(args.kwarg.arg)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
    return bound


def _csr_operand(node: ast.AST, csr_main_safe: bool, csr_sides) -> str:
    """The source text of ``node`` if it names an input the kernel
    takes as CSR — ``a``, or ``b[k]`` for a CSR side ``k`` — else ''."""
    if isinstance(node, ast.Name):
        return "a" if csr_main_safe and node.id == "a" else ""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name) and node.value.id == "b"
        and isinstance(node.slice, ast.Constant)
        and node.slice.value in csr_sides
    ):
        return f"b[{node.slice.value}]"
    return ""


def lint_source(name: str, source: str, csr_main_safe: bool = False,
                csr_sides: tuple = ()) -> list[LintFinding]:
    """Lint one generated source; returns all findings (empty = clean).

    ``csr_main_safe`` / ``csr_sides`` name the inputs the kernel takes
    as CSR (``a``, positions of ``b``): those it must not densify.
    """
    from repro.codegen.pygen import GENERATED_IMPORT_MODULES

    findings: list[LintFinding] = []

    def flag(rule: str, message: str, node: ast.AST) -> None:
        findings.append(
            LintFinding(name, rule, message, getattr(node, "lineno", 0))
        )

    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [LintFinding(name, "syntax", str(exc), exc.lineno or 0)]

    bound = _collect_bound_names(tree)
    allowed_names = bound | ALLOWED_BUILTINS
    takes_csr = csr_main_safe or bool(csr_sides)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not _allowed_import(alias.name, GENERATED_IMPORT_MODULES):
                    flag("import", f"import of '{alias.name}' not allowed",
                         node)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or not _allowed_import(
                module, GENERATED_IMPORT_MODULES
            ):
                flag("import", f"import from '{module}' not allowed", node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in FORBIDDEN_CALLS:
                flag("forbidden-call",
                     f"use of forbidden builtin '{node.id}'", node)
            elif node.id in NONDETERMINISTIC:
                flag("nondeterminism",
                     f"nondeterministic name '{node.id}'", node)
            elif node.id not in allowed_names:
                flag("unknown-name",
                     f"load of unbound name '{node.id}'", node)
        elif isinstance(node, ast.Attribute):
            if node.attr in NONDETERMINISTIC:
                flag("nondeterminism",
                     f"nondeterministic attribute '.{node.attr}'", node)
            elif takes_csr and node.attr in DENSIFYING_ATTRS:
                flag("densification",
                     f"'.{node.attr}()' densifies a CSR input", node)
        elif isinstance(node, _LOOP_NODES):
            flag("python-loop", "Python-level loop in generated code", node)
        elif isinstance(node, ast.Call) and takes_csr:
            func = node.func
            operand = (
                _csr_operand(node.args[0], csr_main_safe, csr_sides)
                if isinstance(func, ast.Attribute)
                and func.attr in DENSIFYING_CALLS and node.args else ""
            )
            if operand:
                flag("densification",
                     f"'np.{func.attr}({operand}, ...)' densifies a CSR "
                     "input", node)
    return findings


def check_source(name: str, source: str, csr_main_safe: bool = False,
                 csr_sides: tuple = (), stats=None) -> None:
    """Lint and raise :class:`KernelLintError` on any finding.

    Records one ``n_lint_rejects`` per rejected source when ``stats``
    is provided.
    """
    findings = lint_source(name, source, csr_main_safe=csr_main_safe,
                           csr_sides=csr_sides)
    if not findings:
        return
    if stats is not None:
        with stats.lock:
            stats.n_lint_rejects += 1
    details = "\n  ".join(str(f) for f in findings)
    raise KernelLintError(
        f"generated source '{name}' failed lint with "
        f"{len(findings)} finding(s):\n  {details}"
    )


__all__ = [
    "ALLOWED_BUILTINS",
    "FORBIDDEN_CALLS",
    "LintFinding",
    "check_source",
    "lint_source",
]
