"""Code generation: CPlans to Python source (codegen step 4).

Mirrors the paper's recursive template expansion: each CPlan body
expands in :func:`~repro.hops.hop.topological_order` into straight-line
calls into the one cell-function table, :mod:`repro.runtime.vector`
imported as ``vp`` — ``vp.UNARY['exp'](t1)``, ``vp.BINARY['*'](t1,
t2)``, ``vp.AGG['sum'](t3, axis=-1, keepdims=True)`` — the same
functions the basic kernels of :mod:`repro.runtime.ops` apply, with
``t<k>`` variables numbered in that order.  Matrix products are
``vp.vect_matmult`` and, for ``t(a) %*% b``, ``vp.vect_tmatmult``,
which keeps a dense transposed product off the GIL so that the row
parts of a Row operator run on several cores.  This is the only module
that builds source text, and it emits one function per fused operator,
``genbody``, which returns the operator's root values.  Everything
around the body belongs to the hand-written template drivers in
:mod:`repro.runtime.npexec` — data access over dense, CSR and
compressed inputs, the output aggregation and the einsum contraction —
exactly as the paper's skeletons own the loops around the generated
code (Figure 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.codegen.cplan import Access, CNode, CPlan
from repro.codegen.template import TemplateType
from repro.errors import CodegenError
from repro.hops.hop import topological_order
from repro.runtime.vector import AGG, BINARY, UNARY

#: Import surface of generated sources.  ``genbody`` imports only
#: ``from repro.runtime import vector as vp`` (numpy and scipy stay
#: allowed for hand-written bodies and tests); the kernel lint
#: (:mod:`repro.analysis.kernel_lint`) and the restricted ``exec``
#: namespace (:mod:`repro.codegen.plan_cache`) enforce exactly this
#: contract — extend it here, in one place, if a template grows a new
#: dependency.
GENERATED_IMPORT_MODULES = ("numpy", "scipy", "repro.runtime")


#: Reduction arguments per aggregation node: per-row scalars stay
#: ``(rows, 1)`` columns, column aggregates ``(1, cols)`` rows.
_AGG_AXIS = {
    "rowagg": ", axis=-1, keepdims=True",
    "colagg": ", axis=0, keepdims=True",
    "fullagg": "",
}

_TABLES = {"UNARY": UNARY, "BINARY": BINARY, "AGG": AGG}


def _call(table: str, op: str, args: str) -> str:
    """A generated call of ``op``'s entry in a cell-function table."""
    if op not in _TABLES[table]:
        raise CodegenError(f"no {table} entry for '{op}'")
    return f"vp.{table}[{op!r}]({args})"


def operator_name(cplan: CPlan) -> str:
    """Deterministic operator name derived from the semantic hash.

    Equivalent CPlans always generate the same name regardless of
    process history or test ordering, so source dumps and goldens are
    stable — unlike a process-global id counter.
    """
    return f"TMP_{cplan.semantic_hash()[:10]}"


@dataclass(frozen=True)
class GeneratedOperator:
    """A compiled fused operator: its one source and ``genbody``, plus
    the CPlan analyses of :mod:`repro.codegen.npgen` its driver reads.

    Built once by :func:`repro.codegen.npgen.compile_kernel` and never
    mutated, so the instance the semantic-hash plan cache shares across
    programs, serving specializations, adaptive recompiles and threads
    needs no lock.
    """

    name: str
    cplan: CPlan
    source: str
    genbody: object  # callable
    # Row: whether ``a`` may be CSR, and the positions in ``b`` of the
    # row-aligned sides that may.
    csr_main_safe: bool
    csr_sides: tuple
    # FULL/MULTI_AGG Cell and MAgg, per root: the positions in
    # ``(a, *b)`` of the factors one ``np.einsum`` sums, or None.
    einsum: tuple
    # Block-sized arrays the body holds at once; the drivers' chunks
    # scale it by the block's widths (``npexec.chunk_bounds``).
    temporaries: int


def generate_source(cplan: CPlan) -> tuple[str, str]:
    """Generate the ``genbody`` source of a fused operator.

    Returns ``(name, source)``.  ``genbody(a, b, s)`` takes the main
    input, the side inputs and the scalars in spec order, and Outer's
    ``genbody(a, uv, b, s)`` also the ``U V^T`` products of the cells in
    ``a``.  It returns one value, or a tuple for several roots; the
    drivers call it once per block — dense rows, CSR rows, a block's
    non-zero values — or per column's dictionary values.
    """
    name = operator_name(cplan)
    emitter = _Emitter(cplan)
    if cplan.ttype is TemplateType.OUTER:
        header = "def genbody(a, uv, b, s):"
    else:
        header = "def genbody(a, b, s):"
    lines = [
        f"# generated fused operator {name}: {cplan.ttype.value} "
        f"({cplan.out_type.value})",
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
    """Post-order template expansion of a CPlan body DAG."""

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
        for node in topological_order(self.cplan.roots):
            self.vars[node.id] = self._emit_node(node)
        results = [self.vars[root.id] for root in self.cplan.roots]
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
            return self._assign(_call("UNARY", detail, args[0]))
        if kind == "b":
            return self._assign(_call("BINARY", detail, ", ".join(args)))
        if kind == "t":
            if detail in ("+*", "-*"):
                product = _call("BINARY", "*", f"{args[1]}, {args[2]}")
                return self._assign(_call("BINARY", detail[0], f"{args[0]}, {product}"))
            if detail == "ifelse":
                return self._assign(f"vp.vect_ifelse({args[0]}, {args[1]}, {args[2]})")
            raise CodegenError(f"unknown ternary '{detail}'")
        if kind in ("rowagg", "colagg", "fullagg"):
            arg = args[0]
            if detail == "sumsq":
                arg = self._assign(_call("UNARY", "pow2", arg))
                detail = "sum"
            return self._assign(_call("AGG", detail, arg + _AGG_AXIS[kind]))
        if kind == "mm":
            return self._assign(f"vp.vect_matmult({args[0]}, {args[1]})")
        if kind == "touter":
            return self._assign(f"vp.vect_tmatmult({args[0]}, {args[1]})")
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
