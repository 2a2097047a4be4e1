"""Code generation: whole-block kernels (codegen step 4).

:mod:`repro.codegen.pygen` emits ``genexec``, the fused body over
aligned value batches.  This module wraps the same template expansion
into one ``genkernel`` per Cell, MAgg or Row operator that consumes
whole runtime values in a single call —

* **Cell/MAgg** kernels run over the full dense value array with the
  output aggregation folded into the body; sum-of-products bodies
  contract into a single ``np.einsum`` pass (no materialized
  intermediates, the paper's fused single-pass claim),
* **Row** kernels run over the whole row block with side inputs
  prepared once; an input the body only ever multiplies — the main
  when every use of it is a matrix multiply (*CSR-main-safe*), a
  row-aligned side when every use is the left operand of one — is
  passed as CSR and never densified (:func:`csr_safe_inputs`),
* compressed-eligible Cell plans additionally get ``genkernel_comp``,
  which runs the body over a column's distinct dictionary values and
  combines with their counts (Figure 9).

Outer operators have no ``genkernel``: their driver in
:mod:`repro.runtime.npexec` calls ``genexec`` once per batch of cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.kernel_lint import check_source
from repro.codegen.cplan import (
    Access,
    CNode,
    CPlan,
    OutType,
    compressed_cell_eligible,
)
from repro.codegen.pygen import _Emitter, operator_name
from repro.codegen.template import TemplateType
from repro.errors import CodegenError

_REDUCERS = {"sum": "np.sum", "min": "np.min", "max": "np.max"}

#: Cell-template output variants (the MAgg template shares them).
_CELL_TEMPLATES = (TemplateType.CELL, TemplateType.MAGG)


@dataclass(frozen=True)
class CompiledKernel:
    """The compiled whole-block functions of a generated operator."""

    name: str
    source: str
    entry: object  # genkernel callable
    csr_main_safe: bool = False
    # Positions in ``b`` of the row-aligned sides a Row body takes as CSR.
    csr_sides: tuple = ()
    # Compressed-CELL variant (compressed-eligible cell plans only).
    comp_source: str = ""
    comp_entry: object = None


def kernel_name(cplan: CPlan) -> str:
    """Deterministic kernel name (operator name + kernel suffix)."""
    return operator_name(cplan) + "_k"


# ----------------------------------------------------------------------
# Whole-array NumPy kernel emission
# ----------------------------------------------------------------------
def generate_kernel_source(cplan: CPlan) -> tuple[str, str, bool]:
    """Emit the vectorized kernel for a CPlan.

    Returns ``(name, source, csr_main_safe)``.  ``genkernel(a, b, s)``
    has the signature of ``genexec`` but ``a``/``b`` are whole runtime
    values and the output aggregation is folded into the kernel, so one
    call produces the finished raw result.
    """
    name = kernel_name(cplan)
    body_lines, result_vars = _Emitter(cplan).emit_roots()
    csr_safe, csr_sides = _csr_bindings(cplan)

    if cplan.ttype is TemplateType.ROW:
        final = _finalize_row(cplan, result_vars)
    elif cplan.ttype in _CELL_TEMPLATES:
        body_lines, final = _finalize_cell(cplan, body_lines, result_vars)
    else:
        raise CodegenError(f"no whole-block kernel for {cplan.ttype}")

    lines = [
        f"# generated vectorized kernel {name}: {cplan.ttype.value} "
        f"({cplan.out_type.value})",
        "import numpy as np",
        "from repro.runtime import vector as vp",
        "",
        f"CSR_MAIN_SAFE = {csr_safe}",
        f"CSR_SIDES = {csr_sides}",
        "",
        "def genkernel(a, b, s):",
    ]
    lines.extend("    " + line for line in body_lines)
    lines.extend("    " + line for line in final)
    return name, "\n".join(lines) + "\n", csr_safe


def _finalize_row(cplan: CPlan, result_vars: list[str]) -> list[str]:
    res = result_vars[0]
    out = cplan.out_type
    if out in (OutType.NO_AGG, OutType.ROW_AGG):
        width = "1" if out is OutType.ROW_AGG else f"np.shape({res})[-1]"
        return [
            f"return np.ascontiguousarray("
            f"np.broadcast_to({res}, (a.shape[0], {width})))"
        ]
    if out in (OutType.COL_AGG, OutType.COL_AGG_T):
        return [
            f"_r = np.asarray({res})",
            "return _r.reshape(1, -1) if _r.ndim == 1 else _r",
        ]
    if out is OutType.FULL_AGG:
        return [f"return float({res})"]
    raise CodegenError(f"bad row out type {out}")


def _finalize_cell(cplan: CPlan, body_lines: list[str],
                   result_vars: list[str]) -> tuple[list[str], list[str]]:
    """Fold the cell/multi-agg output aggregation into the kernel.

    Sum-aggregated roots that are pure products of full-shape inputs
    drop their emitted body and contract through a single
    ``np.einsum`` pass instead (no materialized intermediates).
    """
    out = cplan.out_type
    agg = cplan.agg_ops[0] if cplan.agg_ops else "sum"
    red = _REDUCERS.get(agg, "np.sum")
    res = result_vars[0]
    if out is OutType.NO_AGG:
        final = [
            f"return np.ascontiguousarray(np.broadcast_to("
            f"{res}, (a.shape[0], np.shape({res})[-1])))"
        ]
        return body_lines, final
    if out is OutType.ROW_AGG:
        final = [
            f"return {red}(np.broadcast_to({res}, a.shape), "
            "axis=1, keepdims=True)"
        ]
        return body_lines, final
    if out is OutType.COL_AGG:
        final = [
            f"return {red}(np.broadcast_to({res}, a.shape), "
            "axis=0).reshape(1, -1)"
        ]
        return body_lines, final
    if out is OutType.FULL_AGG:
        einsum = _einsum_expr(cplan, cplan.roots[0], agg)
        if einsum is not None:
            return [], [f"return float({einsum})"]
        return body_lines, [f"return float({red}({res}))"]
    if out is OutType.MULTI_AGG:
        # Per-root aggregations; einsum-eligible roots contract in one
        # pass, the rest reduce their emitted body value.
        final = []
        parts = []
        for k, root in enumerate(cplan.roots):
            agg_k = cplan.agg_ops[k] if k < len(cplan.agg_ops) else "sum"
            red_k = _REDUCERS.get(agg_k, "np.sum")
            einsum = _einsum_expr(cplan, root, agg_k)
            expr = einsum if einsum is not None else f"{red_k}({result_vars[k]})"
            final.append(f"_p{k} = float({expr})")
            parts.append(f"[_p{k}]")
        final.append(f"return np.array([{', '.join(parts)}])")
        return body_lines, final
    raise CodegenError(f"bad cell out type {out}")


def _einsum_expr(cplan: CPlan, root: CNode, agg: str) -> str | None:
    """Single-pass einsum contraction for sum(product-of-inputs) roots.

    Eligible when the aggregation is a sum and the root is a (possibly
    squared) product of plain input references that all share one shape
    class — einsum does not broadcast, so mixed vector/matrix products
    keep the generic body.
    """
    if agg != "sum":
        return None
    factors: list[CNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.op == "b:*":
            stack.extend(node.inputs)
        elif node.op == "u:pow2":
            stack.extend([node.inputs[0], node.inputs[0]])
        elif node.op == "data":
            spec = cplan.inputs[node.input_index]
            if spec.access is Access.SCALAR:
                return None
            factors.append(node)
        else:
            return None
    if len(factors) < 2:
        return None
    classes = {cplan.inputs[f.input_index].shape_class() for f in factors}
    if len(classes) != 1:
        return None
    operands = []
    for factor in factors:
        if factor.input_index == cplan.main_index:
            operands.append("a")
        else:
            side = [
                idx for idx, spec in enumerate(cplan.inputs)
                if idx != cplan.main_index and spec.access is not Access.SCALAR
            ]
            operands.append(f"b[{side.index(factor.input_index)}]")
    subscript = ",".join(["ij"] * len(operands)) + "->"
    return f"np.einsum('{subscript}', {', '.join(operands)})"


def _csr_bindings(cplan: CPlan) -> tuple[bool, tuple]:
    """``(csr_main_safe, csr_sides)`` of a kernel: whether ``a`` may be
    CSR, and which positions of ``b`` may."""
    if cplan.ttype is not TemplateType.ROW:
        return False, ()
    safe = csr_safe_inputs(cplan)
    sides = [idx for idx, spec in enumerate(cplan.inputs)
             if idx != cplan.main_index and spec.access is not Access.SCALAR]
    return (cplan.main_index in safe,
            tuple(slot for slot, idx in enumerate(sides) if idx in safe))


def csr_safe_inputs(cplan: CPlan) -> frozenset:
    """Inputs of a Row body that can stay CSR through the kernel.

    An input qualifies when the body only ever multiplies it — scipy
    sparse @ dense yields dense, so the rest of the body runs on dense
    intermediates: the main input, when every reference to it feeds a
    matrix multiply (``mm``/``touter``); a row-aligned side input, when
    every reference is the left operand of an ``mm``.  An input the
    body never reads, or returns as is, does not qualify.  Returns
    indices into ``cplan.inputs``.
    """
    main = cplan.main_index
    safe = {
        idx for idx, spec in enumerate(cplan.inputs)
        if idx == main or spec.access is Access.SIDE_ROW
    }
    referenced: set[int] = set()
    seen: set[int] = set()
    stack = list(cplan.roots)
    for root in cplan.roots:
        if root.op == "data":
            safe.discard(root.input_index)
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        for position, child in enumerate(node.inputs):
            if child.op == "data":
                idx = child.input_index
                referenced.add(idx)
                if idx == main:
                    multiplied = node.op in ("mm", "touter")
                else:
                    multiplied = node.op == "mm" and position == 0
                if not multiplied:
                    safe.discard(idx)
        stack.extend(node.inputs)
    return frozenset(safe & referenced)


# ----------------------------------------------------------------------
# Compressed-CELL variant (dictionary-direct)
# ----------------------------------------------------------------------
def generate_compressed_cell_source(cplan: CPlan) -> tuple[str, str]:
    """Emit the compressed-CELL kernel variant for an eligible plan.

    ``genkernel_comp(a, c, b, s)`` evaluates the vectorized cell body
    over one column member's distinct dictionary values ``a`` (1-D) and
    combines each root with the value counts ``c`` — the Figure 9
    dictionary-direct execution.  The driver in
    :mod:`repro.runtime.npexec` sums the per-column contributions.
    Callers must check :func:`~repro.codegen.cplan
    .compressed_cell_eligible` first (sparse-safe, side-input-free,
    sum-aggregated cell plans only).
    """
    if not compressed_cell_eligible(cplan):
        raise CodegenError(
            f"plan not compressed-cell eligible: {cplan.ttype}"
        )
    name = kernel_name(cplan) + "_comp"
    body_lines, result_vars = _Emitter(cplan).emit_roots()
    final = []
    parts = []
    for k, res in enumerate(result_vars):
        final.append(
            f"_p{k} = float(np.dot(np.broadcast_to({res}, a.shape), c))"
        )
        parts.append(f"_p{k}")
    if cplan.out_type is OutType.MULTI_AGG:
        final.append(f"return np.array([{', '.join(parts)}])")
    else:
        final.append("return _p0")
    lines = [
        f"# generated compressed-cell kernel {name}: {cplan.ttype.value} "
        f"({cplan.out_type.value})",
        "import numpy as np",
        "from repro.runtime import vector as vp",
        "",
        "def genkernel_comp(a, c, b, s):",
    ]
    lines.extend("    " + line for line in body_lines)
    lines.extend("    " + line for line in final)
    return name, "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Kernel compilation
# ----------------------------------------------------------------------
def compile_kernel(cplan: CPlan, config, stats=None) -> CompiledKernel:
    """Emit and compile the whole-block kernel(s) for a CPlan.

    Byte-identical kernel source is shared through the process-wide
    source cache, so equivalent operators across engines never
    re-``exec`` identical code.
    """
    from repro.codegen.plan_cache import compile_source

    verify = config.verify_level != "off"
    name, source, _ = generate_kernel_source(cplan)
    csr_safe, csr_sides = _csr_bindings(cplan)
    if verify:
        check_source(name, source, csr_main_safe=csr_safe,
                     csr_sides=csr_sides, stats=stats)
    entry = compile_source(name, source, "exec", stats=stats)["genkernel"]
    comp_source, comp_entry = "", None
    if compressed_cell_eligible(cplan):
        comp_name, comp_source = generate_compressed_cell_source(cplan)
        if verify:
            check_source(comp_name, comp_source, stats=stats)
        comp_entry = compile_source(comp_name, comp_source, "exec",
                                    stats=stats)["genkernel_comp"]
    if stats is not None:
        with stats.lock:
            stats.n_kernel_compiles += 1
    return CompiledKernel(name, source, entry, csr_safe, csr_sides,
                          comp_source, comp_entry)
