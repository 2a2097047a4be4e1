"""Code generation: compile ``genbody`` with the CPlan analyses its driver reads.

:mod:`repro.codegen.pygen` emits an operator's one source, ``genbody``.
:func:`compile_kernel` lints and compiles it into the
:class:`~repro.codegen.pygen.GeneratedOperator` the drivers in
:mod:`repro.runtime.npexec` run, together with what those drivers take
from the CPlan rather than from generated text:

* **einsum operands** (:func:`einsum_operands`) — a sum-aggregated
  Cell/MAgg root that is a product of same-shape inputs contracts in a
  single ``np.einsum`` pass over those inputs, with no materialized
  intermediates (the paper's fused single-pass claim);
* **CSR bindings** (:func:`csr_safe_inputs`) — a Row input the body
  only ever multiplies (the main when every use of it is a matrix
  multiply, *CSR-main-safe*; a row-aligned side when every use is the
  left operand of one) is passed as CSR and never densified;
* **temporaries** (:func:`body_temporaries`) — how many block-sized
  arrays ``genbody`` holds at once, which
  :func:`~repro.runtime.npexec.chunk_bounds` scales by the block's
  widths to size the driver's chunks.
"""

from __future__ import annotations

from repro.analysis.kernel_lint import check_source
from repro.codegen.cplan import Access, CNode, CPlan, OutType
from repro.codegen.pygen import GeneratedOperator, generate_source
from repro.codegen.template import TemplateType
from repro.hops.hop import topological_order


def generate_kernel_source(cplan: CPlan) -> tuple[str, str, bool, tuple]:
    """The operator's one source plus its CSR bindings.

    Returns ``(name, source, csr_main_safe, csr_sides)``: whether
    ``genbody`` may receive ``a`` as CSR, and which positions of ``b``
    it may receive as CSR — the inputs the lint forbids it to densify.
    """
    name, source = generate_source(cplan)
    return (name, source, *_csr_bindings(cplan))


def einsum_operands(cplan: CPlan) -> tuple:
    """Per root of a FULL/MULTI_AGG Cell or MAgg plan: the positions in
    ``(a, *b)`` of the factors one ``np.einsum`` contracts, or None when
    the root reduces its body value.  Empty for every other plan."""
    if (cplan.ttype not in (TemplateType.CELL, TemplateType.MAGG)
            or cplan.out_type not in (OutType.FULL_AGG, OutType.MULTI_AGG)):
        return ()
    return tuple(
        _einsum_operands(cplan, root, cplan.agg_op(k))
        for k, root in enumerate(cplan.roots)
    )


def _einsum_operands(cplan: CPlan, root: CNode, agg: str) -> tuple | None:
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
    position = {idx: k + 1 for k, idx in enumerate(_side_indices(cplan))}
    position[cplan.main_index] = 0
    return tuple(position[f.input_index] for f in factors)


def _side_indices(cplan: CPlan) -> list[int]:
    """Indices into ``cplan.inputs`` of the sides, in ``b`` order."""
    return [idx for idx, spec in enumerate(cplan.inputs)
            if idx != cplan.main_index and spec.access is not Access.SCALAR]


def _csr_bindings(cplan: CPlan) -> tuple[bool, tuple]:
    """``(csr_main_safe, csr_sides)``: whether ``a`` may be CSR, and
    which positions of ``b`` may."""
    if cplan.ttype is not TemplateType.ROW:
        return False, ()
    safe = csr_safe_inputs(cplan)
    return (cplan.main_index in safe,
            tuple(slot for slot, idx in enumerate(_side_indices(cplan))
                  if idx in safe))


def csr_safe_inputs(cplan: CPlan) -> frozenset:
    """Inputs of a Row body that can stay CSR through ``genbody``.

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


def body_temporaries(cplan: CPlan) -> int:
    """The arrays ``genbody`` holds at once: one per body node that is
    not an input or a literal (``uv`` included), since every ``t<k>``
    stays alive until the body returns."""
    return sum(1 for node in topological_order(cplan.roots)
               if node.op not in ("data", "lit"))


def compile_kernel(cplan: CPlan, config, stats=None) -> GeneratedOperator:
    """Emit, lint and compile a fused operator's ``genbody``.

    Every source is linted before it compiles, at any
    ``config.verify_level``: the process-wide plan cache hands the
    operator to every engine in the process.
    """
    from repro.codegen.plan_cache import compile_operator

    name, source, csr_main_safe, csr_sides = generate_kernel_source(cplan)
    check_source(name, source, csr_main_safe=csr_main_safe,
                 csr_sides=csr_sides, stats=stats)
    genbody = compile_operator(name, source, config.compiler, stats=stats)
    if stats is not None:
        with stats.lock:
            stats.n_kernel_compiles += 1
    return GeneratedOperator(name, cplan, source, genbody, csr_main_safe,
                             csr_sides, einsum_operands(cplan),
                             body_temporaries(cplan))
