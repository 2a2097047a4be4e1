"""Code generation: CPlans to Python source (codegen step 4).

Mirrors the paper's recursive template expansion: each CPlan body
expands depth-first into straight-line calls of the shared
vector-primitive library ``vp``.  This module emits ``genexec``, the
body over aligned value batches that the drivers in
:mod:`repro.runtime.npexec` call for the non-zero batches of a
sparse-safe Cell operator and for every Outer batch;
:mod:`repro.codegen.npgen` wraps the same expansion into the
whole-block ``genkernel`` functions.  The hand-written drivers own the
data access, exactly as in the paper's runtime integration (Figure 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.codegen.cplan import Access, CNode, CPlan
from repro.codegen.template import TemplateType
from repro.errors import CodegenError
from repro.runtime.vector import BINARY_PRIMITIVES, UNARY_PRIMITIVES

#: Import surface of generated sources.  Both emitters produce only
#: ``import numpy as np`` / ``from repro.runtime import vector as
#: vp`` (scipy is reserved for sparse kernel bodies); the kernel lint
#: (:mod:`repro.analysis.kernel_lint`) and the restricted ``exec``
#: namespace (:mod:`repro.codegen.plan_cache`) enforce exactly this
#: contract — extend it here, in one place, if a template grows a new
#: dependency.
GENERATED_IMPORT_MODULES = ("numpy", "scipy", "repro.runtime")


def operator_name(cplan: CPlan) -> str:
    """Deterministic operator name derived from the semantic hash.

    Equivalent CPlans always generate the same name regardless of
    process history or test ordering, so source dumps and goldens are
    stable — unlike a process-global id counter.
    """
    return f"TMP_{cplan.semantic_hash()[:10]}"


@dataclass(frozen=True)
class GeneratedOperator:
    """A compiled fused operator: metadata plus its generated functions.

    Built once by :func:`repro.codegen.plan_cache.build_operator` and
    never mutated, so the instance the semantic-hash plan cache shares
    across programs, serving specializations, adaptive recompiles and
    threads needs no lock.  A template carries only the functions its
    driver calls: ``genexec`` is ``None`` for Row, ``kernel`` (a
    :class:`~repro.codegen.npgen.CompiledKernel`) is ``None`` for Outer.
    """

    name: str
    cplan: CPlan
    source: str
    genexec: object  # callable | None
    kernel: object = None

    @property
    def template(self) -> TemplateType:
        return self.cplan.ttype

    @property
    def sources(self) -> tuple[str, ...]:
        """Every generated source, in build order (the worker processes
        of the multiprocess backend compare these byte for byte)."""
        if self.kernel is None:
            return (self.source,)
        return (self.source, self.kernel.source, self.kernel.comp_source)


def generate_source(cplan: CPlan) -> tuple[str, str]:
    """Generate the ``genexec`` source of a fused operator.

    Returns ``(class_name, source)``.  The genexec signature depends on
    the template:

    * Cell/MAgg: ``genexec(a, b, s)`` over aligned value batches,
    * Row: ``genexec(a, b, s)`` over a dense row block,
    * Outer: ``genexec(a, uv, b, s)`` over a batch of cells and their
      ``U V^T`` products.
    """
    name = operator_name(cplan)
    emitter = _Emitter(cplan)
    if cplan.ttype is TemplateType.OUTER:
        header = "def genexec(a, uv, b, s):"
    else:
        header = "def genexec(a, b, s):"
    lines = [
        f"# generated fused operator {name}: {cplan.ttype.value} "
        f"({cplan.out_type.value})",
        "import numpy as np",
        "from repro.runtime import vector as vp",
        "",
        header,
    ]
    body_lines, result_vars = emitter.emit_roots()
    lines.extend("    " + line for line in body_lines)
    if len(result_vars) == 1:
        lines.append(f"    return {result_vars[0]}")
    else:
        lines.append(f"    return ({', '.join(result_vars)},)")
    return name, "\n".join(lines) + "\n"


class _Emitter:
    """Depth-first template expansion of a CPlan body DAG."""

    def __init__(self, cplan: CPlan):
        self.cplan = cplan
        self.lines: list[str] = []
        self.vars: dict[int, str] = {}
        self.counter = itertools.count(1)
        # Side-slot mapping: non-main matrix inputs in spec order.
        self.side_slot: dict[int, int] = {}
        self.scalar_slot: dict[int, int] = {}
        side, scalar = 0, 0
        for idx, spec in enumerate(cplan.inputs):
            if idx == cplan.main_index:
                continue
            if spec.access is Access.SCALAR:
                self.scalar_slot[idx] = scalar
                scalar += 1
            else:
                self.side_slot[idx] = side
                side += 1

    # ------------------------------------------------------------------
    def emit_roots(self) -> tuple[list[str], list[str]]:
        results = [self._emit(root) for root in self.cplan.roots]
        if not self.lines:
            # Ensure at least one statement for trivial bodies.
            self.lines.append("pass")
        return self.lines, results

    def _fresh(self) -> str:
        return f"t{next(self.counter)}"

    def _assign(self, expr: str) -> str:
        var = self._fresh()
        self.lines.append(f"{var} = {expr}")
        return var

    def _ref(self, node: CNode) -> str:
        return self.vars[node.id]

    def _emit(self, node: CNode) -> str:
        # Iterative post-order over the body DAG (which can be thousands
        # of nodes deep for long fused chains).
        stack = [node]
        while stack:
            cur = stack[-1]
            if cur.id in self.vars:
                stack.pop()
                continue
            if cur.op in ("lit", "data", "uv"):
                self.vars[cur.id] = self._emit_node(cur)
                stack.pop()
                continue
            missing = [c for c in cur.inputs if c.id not in self.vars]
            if missing:
                stack.extend(reversed(missing))
                continue
            self.vars[cur.id] = self._emit_node(cur)
            stack.pop()
        return self.vars[node.id]

    def _emit_node(self, node: CNode) -> str:
        """Emit one node whose inputs are already in ``self.vars``."""
        op = node.op
        if op == "lit":
            return repr(node.value)
        if op == "data":
            return self._data_expr(node.input_index)
        if op == "uv":
            return "uv"
        args = [self.vars[c.id] for c in node.inputs]
        kind, _, detail = op.partition(":")
        if kind == "u":
            func = UNARY_PRIMITIVES.get(detail)
            if func is None:
                raise CodegenError(f"no primitive for unary '{detail}'")
            return self._assign(f"vp.{func}({args[0]})")
        if kind == "b":
            func = BINARY_PRIMITIVES.get(detail)
            if func is None:
                raise CodegenError(f"no primitive for binary '{detail}'")
            return self._assign(f"vp.{func}({args[0]}, {args[1]})")
        if kind == "t":
            if detail == "+*":
                return self._assign(f"vp.vect_add({args[0]}, vp.vect_mult({args[1]}, {args[2]}))")
            if detail == "-*":
                return self._assign(f"vp.vect_minus({args[0]}, vp.vect_mult({args[1]}, {args[2]}))")
            if detail == "ifelse":
                return self._assign(f"vp.vect_ifelse({args[0]}, {args[1]}, {args[2]})")
            raise CodegenError(f"unknown ternary '{detail}'")
        if kind == "rowagg":
            func = {
                "sum": "vect_sum_kd",
                "min": "vect_min_kd",
                "max": "vect_max_kd",
                "mean": "vect_mean_kd",
                "sumsq": "vect_sum_kd",
            }[detail]
            arg = args[0]
            if detail == "sumsq":
                arg = self._assign(f"vp.vect_pow2({arg})")
            return self._assign(f"vp.{func}({arg})")
        if kind == "colagg":
            reducer = {"sum": "np.sum", "min": "np.min", "max": "np.max"}[detail]
            return self._assign(f"{reducer}({args[0]}, axis=0, keepdims=True)")
        if kind == "fullagg":
            reducer = {"sum": "np.sum", "min": "np.min", "max": "np.max"}[detail]
            return self._assign(f"{reducer}({args[0]})")
        if kind == "mm":
            return self._assign(f"vp.vect_matmult({args[0]}, {args[1]})")
        if kind == "touter":
            return self._assign(f"({args[0]}).T @ ({args[1]})")
        if kind == "rix":
            cl, cu = node.meta
            return self._assign(f"({args[0]})[:, {cl}:{cu}]")
        raise CodegenError(f"cannot generate code for CNode '{op}'")

    def _data_expr(self, input_index: int) -> str:
        if input_index == self.cplan.main_index:
            return "a"
        if input_index in self.scalar_slot:
            return f"s[{self.scalar_slot[input_index]}]"
        return f"b[{self.side_slot[input_index]}]"
