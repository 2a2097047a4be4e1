"""CPlan construction from selected operator plans (codegen step 3).

Maps the covered HOP sub-DAG of a selected fusion plan to a CPlan body
of CNodes, determines the template binding (main input, row-aligned and
full side inputs, scalars), the output variant, and sparse-safety (by
partial evaluation: a plan is sparse-safe iff its body is exactly zero
whenever the main input value is zero, whatever the other inputs hold).

Every template builds its body with :func:`_build_body`, one
:func:`~repro.hops.hop.topological_order` walk of the covered hops, so
the CPlan's input order (and with it the plan-cache hash) follows that
walk.  A template supplies only its leaf rule, how an uncovered side
input is read, and the non-cellwise operators its body admits.
"""

from __future__ import annotations

import math

from repro.codegen.cost import OperatorPlan
from repro.codegen.cplan import Access, CNode, CPlan, InputSpec, OutType
from repro.codegen.template import TemplateType
from repro.codegen.tpl_row import row_dim
from repro.errors import CodegenError
from repro.hops.hop import (
    AggBinaryOp,
    AggUnaryOp,
    BinaryOp,
    Hop,
    IndexingOp,
    LiteralOp,
    ReorgOp,
    TernaryOp,
    UnaryOp,
    topological_order,
)
from repro.hops.types import AggDir, AggOp

_AGG_NAME = {
    AggOp.SUM: "sum",
    AggOp.SUM_SQ: "sumsq",
    AggOp.MIN: "min",
    AggOp.MAX: "max",
    AggOp.MEAN: "mean",
}


def construct_cplan(plan: OperatorPlan, config):
    """Build a CPlan for a selected plan.

    Returns ``(cplan, input_hops)`` or ``None`` when the plan cannot be
    realized as a generated operator (the engine then falls back to
    basic operators for the covered hops).
    """
    try:
        if plan.ttype is TemplateType.CELL:
            return _construct_cell(plan, config)
        if plan.ttype is TemplateType.MAGG:
            return construct_multi_agg([plan], config)
        if plan.ttype is TemplateType.ROW:
            return _construct_row(plan, config)
        if plan.ttype is TemplateType.OUTER:
            return _construct_outer(plan)
    except CodegenError:
        return None
    return None


# ----------------------------------------------------------------------
# Shared body construction
# ----------------------------------------------------------------------
class _Builder:
    """Maps covered hops to CNodes; uncovered inputs to data nodes."""

    def __init__(self, plan_inputs: list[Hop], covered_ids: set[int]):
        self.input_hops = list(plan_inputs)
        self.index_of = {h.id: i for i, h in enumerate(self.input_hops)}
        self.covered_ids = covered_ids
        self.cache: dict[int, CNode] = {}
        self.access_votes: dict[int, set[Access]] = {}

    def data(self, hop: Hop, access: Access) -> CNode:
        # Literals are never covered, so they arrive here as scalar
        # inputs: one is its value in the body, unless it is bound at
        # run time — then it is an input like any other, read ``s[k]``.
        if isinstance(hop, LiteralOp) and hop.bound < 0:
            return CNode("lit", value=hop.value)
        if hop.id not in self.index_of:
            self.index_of[hop.id] = len(self.input_hops)
            self.input_hops.append(hop)
        idx = self.index_of[hop.id]
        self.access_votes.setdefault(idx, set()).add(access)
        node = CNode("data", input_index=idx)
        return node

    def finalize_inputs(self, main_hop: Hop | None,
                        default_side: Access) -> tuple[list[InputSpec], int]:
        specs: list[InputSpec] = []
        main_index = -1
        for idx, hop in enumerate(self.input_hops):
            if main_hop is not None and hop.id == main_hop.id:
                access = Access.MAIN
                main_index = idx
            elif hop.is_scalar:
                access = Access.SCALAR
            else:
                votes = self.access_votes.get(idx, set())
                if Access.SIDE_FULL in votes:
                    access = Access.SIDE_FULL
                elif Access.SIDE_ROW in votes:
                    access = Access.SIDE_ROW
                else:
                    access = default_side
            rows, cols = (hop.rows, hop.cols)
            specs.append(InputSpec(hop.id, rows, cols, access))
        return specs, main_index


def _build_body(builder: _Builder, root: Hop, side, admit=None) -> CNode:
    """The CNode body of the covered hops under ``root``.

    An uncovered hop is a data leaf, read as a scalar or with the access
    the template's leaf rule ``side(hop)`` gives (the rule raises for a
    side the template cannot read).  A covered cell-wise hop maps
    through :func:`_cell_like`; any other covered hop needs
    ``admit(builder, hop)`` to return ``(operands, make)``: the hops its
    node reads and a function of their CNodes that makes the node.
    Hops an earlier call built are reused from ``builder.cache``.
    """
    cache, covered = builder.cache, builder.covered_ids
    admitted: dict[int, tuple] = {}

    def children(hop: Hop):
        if hop.id in cache or hop.id not in covered:
            return ()
        if isinstance(hop, (UnaryOp, BinaryOp, TernaryOp)):
            return hop.inputs
        rule = admit(builder, hop) if admit is not None else None
        if rule is None:
            raise CodegenError(f"unsupported body op {hop.opcode()}")
        admitted[hop.id] = rule
        return rule[0]

    for hop in topological_order([root], children):
        if hop.id in cache:
            continue
        if hop.id not in covered:
            access = Access.SCALAR if hop.is_scalar else side(hop)
            cache[hop.id] = builder.data(hop, access)
        elif hop.id in admitted:
            operands, make = admitted[hop.id]
            cache[hop.id] = make([cache[c.id] for c in operands])
        else:
            cache[hop.id] = _cell_like(hop, [cache[c.id] for c in hop.inputs])
    return cache[root.id]


def _cell_like(hop: Hop, children: list[CNode]) -> CNode:
    if isinstance(hop, UnaryOp):
        return CNode(f"u:{hop.op}", children)
    if isinstance(hop, BinaryOp):
        return CNode(f"b:{hop.op}", children)
    return CNode(f"t:{hop.op}", children)


def _row_side(n_rows: int):
    """Cell and Row leaf rule: a side with the body's row count is read
    row-aligned, any other in full."""
    return lambda hop: Access.SIDE_ROW if hop.rows == n_rows else Access.SIDE_FULL


def _agg_body(body: CNode, agg_op: AggOp) -> tuple[CNode, str]:
    """``body`` and the skeleton's reduction for ``agg_op``: SUM_SQ
    squares inside the body and reduces with a plain sum."""
    if agg_op is AggOp.SUM_SQ:
        return CNode("u:pow2", [body]), "sum"
    return body, _AGG_NAME[agg_op]


# ----------------------------------------------------------------------
# Cell template
# ----------------------------------------------------------------------
def _construct_cell(plan: OperatorPlan, config):
    root = plan.root
    covered_ids = {h.id for h in plan.covered}
    agg_op = None
    out_type = OutType.NO_AGG
    body_root_hop = root
    if isinstance(root, AggUnaryOp):
        agg_op = root.agg_op
        out_type = {
            AggDir.FULL: OutType.FULL_AGG,
            AggDir.ROW: OutType.ROW_AGG,
            AggDir.COL: OutType.COL_AGG,
        }[root.direction]
        body_root_hop = root.inputs[0]
    if body_root_hop.id not in covered_ids:
        raise CodegenError("cell body root not covered")
    builder = _Builder(plan.inputs, covered_ids)
    body = _build_body(builder, body_root_hop, _row_side(body_root_hop.rows))
    agg_ops: list[str] = []
    if agg_op is not None:
        # MEAN is never fused (Cell template conditions).
        body, agg = _agg_body(body, agg_op)
        agg_ops = [agg]

    main_hop = _pick_cell_main(builder.input_hops, body_root_hop.dims, config)
    if main_hop is None:
        raise CodegenError("cell plan without matrix input")
    specs, main_index = builder.finalize_inputs(main_hop, Access.SIDE_ROW)

    sparse_safe = _sparse_safe([body], specs, main_index) and (
        agg_op in (None, AggOp.SUM, AggOp.SUM_SQ)
    )
    cplan = CPlan(
        ttype=TemplateType.CELL,
        out_type=out_type,
        roots=[body],
        inputs=specs,
        main_index=main_index,
        sparse_safe=sparse_safe,
        agg_ops=agg_ops,
        out_rows=root.rows,
        out_cols=root.cols,
        covered_hop_ids=sorted(covered_ids),
    )
    return cplan, builder.input_hops


def _pick_cell_main(input_hops: list[Hop], dims: tuple[int, int], config) -> Hop | None:
    aligned = [h for h in input_hops if h.is_matrix and h.dims == dims]
    if aligned:
        # Prefer the sparsest aligned input as the driver (the paper's
        # "correctly selects X as sparse driver").
        return min(aligned, key=lambda h: (h.sparsity, -h.cells))
    mats = [h for h in input_hops if h.is_matrix]
    if mats:
        return max(mats, key=lambda h: h.cells)
    return None


# ----------------------------------------------------------------------
# Multi-aggregate template
# ----------------------------------------------------------------------
def construct_multi_agg(plans: list[OperatorPlan], config):
    """One CPlan computing several full aggregates in a single pass."""
    roots: list[CNode] = []
    agg_ops: list[str] = []
    all_inputs: list[Hop] = []
    seen: set[int] = set()
    for plan in plans:
        for hop in plan.inputs:
            if hop.id not in seen:
                seen.add(hop.id)
                all_inputs.append(hop)
    covered_ids = {h.id for p in plans for h in p.covered}
    builder = _Builder(all_inputs, covered_ids)

    dims = None
    for plan in plans:
        root = plan.root
        if not isinstance(root, AggUnaryOp):
            raise CodegenError("multi-agg root is not an aggregation")
        body_hop = root.inputs[0]
        dims = body_hop.dims if dims is None else dims
        body, agg = _agg_body(
            _build_body(builder, body_hop, _row_side(body_hop.rows)), root.agg_op
        )
        roots.append(body)
        agg_ops.append(agg)

    main_hop = _pick_cell_main(builder.input_hops, dims, config)
    if main_hop is None:
        raise CodegenError("multi-agg plan without matrix input")
    specs, main_index = builder.finalize_inputs(main_hop, Access.SIDE_ROW)
    sparse_safe = _sparse_safe(roots, specs, main_index) and all(
        a == "sum" for a in agg_ops
    )
    cplan = CPlan(
        ttype=TemplateType.MAGG,
        out_type=OutType.MULTI_AGG if len(roots) > 1 else OutType.FULL_AGG,
        roots=roots,
        inputs=specs,
        main_index=main_index,
        sparse_safe=sparse_safe,
        agg_ops=agg_ops,
        out_rows=len(roots),
        out_cols=1,
        covered_hop_ids=sorted(covered_ids),
    )
    return cplan, builder.input_hops


# ----------------------------------------------------------------------
# Row template
# ----------------------------------------------------------------------
def _construct_row(plan: OperatorPlan, config):
    root = plan.root
    covered_ids = {h.id for h in plan.covered}
    n_rows = row_dim(root)
    builder = _Builder(plan.inputs, covered_ids)

    def build(root_hop: Hop) -> CNode:
        return _build_body(builder, root_hop, _row_side(n_rows), _row_op)

    agg_ops: list[str] = []
    if isinstance(root, AggUnaryOp) and root.direction in (AggDir.COL, AggDir.FULL):
        inner, agg = _agg_body(build(root.inputs[0]), root.agg_op)
        if root.direction is AggDir.COL:
            out_type = OutType.COL_AGG
            body = CNode(f"colagg:{agg}", [inner])
        else:
            out_type = OutType.FULL_AGG
            body = CNode(f"fullagg:{agg}", [inner])
        agg_ops = [agg]
    elif isinstance(root, AggBinaryOp) and isinstance(root.inputs[0], ReorgOp):
        reorg, right = root.inputs
        z_hop = reorg.inputs[0]
        lhs = build(z_hop)
        rhs = build(right)
        out_type = OutType.COL_AGG_T
        body = CNode("touter", [lhs, rhs])
        agg_ops = ["sum"]
        covered_ids.add(reorg.id)
    else:
        body = build(root)
        out_type = OutType.ROW_AGG if root.cols == 1 else OutType.NO_AGG

    main_hop = _pick_row_main(builder.input_hops, n_rows)
    if main_hop is None:
        raise CodegenError("row plan without row-aligned matrix input")
    specs, main_index = builder.finalize_inputs(main_hop, Access.SIDE_ROW)
    # The main input must be read row-wise; if it was voted SIDE_FULL
    # (e.g. used as a matmult operand), the plan is not realizable.
    if any(
        s.access is Access.SIDE_FULL and s.hop_id == main_hop.id for s in specs
    ):
        raise CodegenError("row main input used as full side")

    cplan = CPlan(
        ttype=TemplateType.ROW,
        out_type=out_type,
        roots=[body],
        inputs=specs,
        main_index=main_index,
        sparse_safe=False,
        agg_ops=agg_ops,
        out_rows=root.rows if root.is_matrix else 0,
        out_cols=root.cols if root.is_matrix else 0,
        covered_hop_ids=sorted(covered_ids),
    )
    return cplan, builder.input_hops


def _pick_row_main(input_hops: list[Hop], n_rows: int) -> Hop | None:
    aligned = [
        h for h in input_hops if h.is_matrix and h.rows == n_rows and h.cols >= 2
    ]
    if not aligned:
        aligned = [h for h in input_hops if h.is_matrix and h.rows == n_rows]
    if not aligned:
        return None
    return max(aligned, key=lambda h: h.cells)


def _row_op(builder: _Builder, hop: Hop):
    """The non-cellwise ops a Row body admits: row aggregation, a matrix
    multiply by an uncovered right operand (read in full), and column
    indexing."""
    if isinstance(hop, AggUnaryOp):
        if hop.direction is not AggDir.ROW:
            raise CodegenError("non-row aggregation inside a Row body")
        return hop.inputs, lambda kids: CNode(f"rowagg:{_AGG_NAME[hop.agg_op]}", kids)
    if isinstance(hop, AggBinaryOp):
        left, right = hop.inputs
        if isinstance(left, ReorgOp) and left.id in builder.covered_ids:
            raise CodegenError("t(Z) %*% Q only valid at the operator root")
        if right.id in builder.covered_ids:
            raise CodegenError("matmult with fused right operand in Row body")
        return (left,), lambda kids: CNode(
            "mm", [kids[0], builder.data(right, Access.SIDE_FULL)]
        )
    if isinstance(hop, IndexingOp):
        return hop.inputs, lambda kids: CNode("rix", kids, meta=(hop.cl, hop.cu))
    return None


# ----------------------------------------------------------------------
# Outer template
# ----------------------------------------------------------------------
def _construct_outer(plan: OperatorPlan):
    from repro.codegen.tpl_outer import is_outer_product_like

    root = plan.root
    covered_ids = {h.id for h in plan.covered}
    outer_mm = None
    for hop in plan.covered:
        if isinstance(hop, AggBinaryOp) and is_outer_product_like(hop):
            outer_mm = hop
            break
    if outer_mm is None:
        raise CodegenError("no outer-product matmult in cover")
    u_hop = outer_mm.inputs[0]
    vt_hop = outer_mm.inputs[1]
    if u_hop.id in covered_ids or (
        vt_hop.id in covered_ids and not isinstance(vt_hop, ReorgOp)
    ):
        raise CodegenError("computed factor inputs are not supported")
    v_transposed = False
    v_hop = vt_hop
    if isinstance(vt_hop, ReorgOp):
        v_hop = vt_hop.inputs[0]
        covered_ids.discard(vt_hop.id)
    else:
        v_transposed = True  # right factor given as k x n

    inputs = [h for h in plan.inputs if h.id != vt_hop.id]
    if all(h.id != v_hop.id for h in inputs):
        inputs.append(v_hop)
    builder = _Builder(inputs, covered_ids)

    def side(hop: Hop) -> Access:
        if hop.dims != outer_mm.dims:
            raise CodegenError("outer side input with foreign dims")
        return Access.SIDE_ROW

    def outer_op(_, hop: Hop):
        # The outer-product matmult is the body's ``uv`` leaf.
        return ((), lambda kids: CNode("uv")) if hop is outer_mm else None

    def build(root_hop: Hop) -> CNode:
        return _build_body(builder, root_hop, side, outer_op)

    side_w_hop = None
    if isinstance(root, AggUnaryOp):
        body, _ = _agg_body(build(root.inputs[0]), root.agg_op)
        out_type = OutType.OUTER_FULL_AGG
        out_rows, out_cols = 0, 0
    elif isinstance(root, AggBinaryOp) and root is not outer_mm:
        left, right = root.inputs
        if isinstance(left, ReorgOp) and left.id in covered_ids:
            body = build(left.inputs[0])
            side_w_hop = right
            out_type = OutType.OUTER_LEFT
        else:
            body = build(left)
            side_w_hop = right
            out_type = OutType.OUTER_RIGHT
        out_rows, out_cols = root.rows, root.cols
    else:
        body = build(root)
        out_type = OutType.OUTER_NO_AGG
        out_rows, out_cols = root.rows, root.cols

    if side_w_hop is not None:
        builder.data(side_w_hop, Access.SIDE_FULL)

    main_hop = _pick_outer_driver(builder.input_hops, outer_mm.dims, u_hop, v_hop)
    if main_hop is None:
        raise CodegenError("outer plan without driver input")
    specs, main_index = builder.finalize_inputs(main_hop, Access.SIDE_ROW)
    u_index = next(i for i, h in enumerate(builder.input_hops) if h.id == u_hop.id)
    v_index = next(i for i, h in enumerate(builder.input_hops) if h.id == v_hop.id)
    specs[u_index].access = Access.SIDE_FULL
    specs[v_index].access = Access.SIDE_FULL
    w_index = -1
    if side_w_hop is not None:
        w_index = next(
            i for i, h in enumerate(builder.input_hops) if h.id == side_w_hop.id
        )

    if not _sparse_safe([body], specs, main_index):
        raise CodegenError("outer plan is not sparse-safe over the driver")

    cplan = CPlan(
        ttype=TemplateType.OUTER,
        out_type=out_type,
        roots=[body],
        inputs=specs,
        main_index=main_index,
        sparse_safe=True,
        agg_ops=["sum"],
        out_rows=out_rows,
        out_cols=out_cols,
        covered_hop_ids=sorted(covered_ids),
        u_index=u_index,
        v_index=v_index,
        w_index=w_index,
        v_transposed=v_transposed,
    )
    return cplan, builder.input_hops


def _pick_outer_driver(input_hops, outer_dims, u_hop, v_hop):
    candidates = [
        h
        for h in input_hops
        if h.is_matrix and h.dims == outer_dims and h.id not in (u_hop.id, v_hop.id)
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda h: h.sparsity)


# ----------------------------------------------------------------------
# Sparse safety
# ----------------------------------------------------------------------
def eval_cnode(node: CNode, env: dict) -> float | None:
    """Scalar interpretation of a CNode body (sparse safety and tests).

    ``env`` maps 'in<k>' to input values and 'uv' to the outer-product
    value; row-agg/matmult nodes are treated as their scalar analogue.
    A None value is unknown and propagates, except where the known
    inputs decide a node (``0 * y``, ``0 & y``, ``0 / y``, matrix
    products, ``x + 0 * y``, a known ``ifelse`` condition).  Each node
    is evaluated once per call.
    """
    memo: dict[int, float | None] = {}
    for cur in topological_order([node]):
        vals = [memo[c.id] for c in cur.inputs]
        kind, _, op = cur.op.partition(":")
        if kind == "lit":
            value = cur.value
        elif kind == "data":
            value = env[f"in{cur.input_index}"]
        elif kind == "uv":
            value = env["uv"]
        elif None in vals:
            value = _partial_value(kind, op, vals)
        elif kind == "u":
            value = _scalar_unary(op, vals[0])
        elif kind == "b":
            value = _scalar_binary(op, vals[0], vals[1])
        elif kind == "t":
            if op == "+*":
                value = vals[0] + vals[1] * vals[2]
            elif op == "-*":
                value = vals[0] - vals[1] * vals[2]
            else:
                value = vals[1] if vals[0] != 0 else vals[2]
        elif kind in ("rowagg", "colagg", "fullagg", "rix"):
            value = vals[0]
        elif kind in ("mm", "touter"):
            value = vals[0] * vals[1]
        else:
            raise CodegenError(f"cannot evaluate CNode op {cur.op}")
        memo[cur.id] = value
    return memo[node.id]


def _partial_value(kind: str, op: str, vals: list) -> float | None:
    """A node's value when some inputs are unknown (None): known only
    where the known inputs decide it."""
    if kind in ("rowagg", "colagg", "fullagg", "rix"):
        return vals[0]
    if kind == "t":
        if op == "ifelse":
            cond, x, y = vals
            if cond is not None:
                return x if cond != 0 else y
            return x if x == y else None
        return vals[0] if 0.0 in vals[1:] else None  # x +- 0 * y
    zero_dominates = (kind in ("mm", "touter") or op in ("*", "&")
                      or (op == "/" and vals[0] == 0.0))
    return 0.0 if zero_dominates and 0.0 in vals else None


def _scalar_unary(op: str, x: float) -> float:
    """``op`` on one known value, for the sparse-safety proof.

    Deliberately not :data:`repro.runtime.vector.UNARY`: these are the
    proof's own semantics, where a ``math`` domain error or overflow
    ends the proof and zero dominates ``*`` and ``/``
    (:func:`_scalar_binary`).  Routing them through the table would
    change which plans are proven sparse-safe in corner cases such as
    ``X * log(-1)`` or ``X * sigmoid(-1000)``.
    """
    table = {
        "exp": math.exp,
        "log": lambda v: math.log(v) if v > 0 else float("-inf"),
        "sqrt": lambda v: math.sqrt(abs(v)),
        "abs": abs,
        "sign": lambda v: (v > 0) - (v < 0),
        "round": round,
        "floor": math.floor,
        "ceil": math.ceil,
        "neg": lambda v: -v,
        "not": lambda v: 0.0 if v != 0 else 1.0,
        "sigmoid": lambda v: 1.0 / (1.0 + math.exp(-v)),
        "sprop": lambda v: v * (1.0 - v),
        "pow2": lambda v: v * v,
        "erf": math.erf,
        "normpdf": lambda v: math.exp(-0.5 * v * v) / math.sqrt(2 * math.pi),
    }
    return float(table[op](x))


def _scalar_binary(op: str, a: float, b: float) -> float:
    """``op`` on two known values, for the sparse-safety proof; kept
    apart from :data:`repro.runtime.vector.BINARY` for the reason
    :func:`_scalar_unary` gives."""
    table = {
        "+": lambda: a + b,
        "-": lambda: a - b,
        # Zero dominates multiplication (sparse execution skips zero
        # cells, so 0 * f(side) contributes 0 even when f overflows).
        "*": lambda: 0.0 if a == 0.0 or b == 0.0 else a * b,
        "/": lambda: 0.0 if a == 0.0 else (a / b if b != 0 else float("inf")),
        "^": lambda: a ** b if a >= 0 or b == int(b) else float("nan"),
        "min": lambda: min(a, b),
        "max": lambda: max(a, b),
        "==": lambda: float(a == b),
        "!=": lambda: float(a != b),
        "<": lambda: float(a < b),
        ">": lambda: float(a > b),
        "<=": lambda: float(a <= b),
        ">=": lambda: float(a >= b),
        "&": lambda: float(a != 0 and b != 0),
        "|": lambda: float(a != 0 or b != 0),
    }
    return float(table[op]())


def _sparse_safe(roots: list[CNode], specs: list[InputSpec],
                 main_index: int) -> bool:
    """Whether every root is exactly 0 wherever the main input is 0,
    whatever the other inputs hold: the body evaluated with the main at
    0 and every other input unknown (a proof, where sampled side values
    would only test a few).
    """
    if main_index < 0:
        return False
    env = {f"in{i}": None for i in range(len(specs))}
    env[f"in{main_index}"] = 0.0
    env["uv"] = None
    try:
        return all(eval_cnode(root, env) == 0.0 for root in roots)
    except (ValueError, OverflowError, ZeroDivisionError):
        return False
