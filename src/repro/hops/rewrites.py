"""Static and dynamic HOP DAG rewrites, including CSE elimination.

SystemML applies size-independent (static) rewrites plus common
subexpression elimination before inter-procedural analysis, and
size-dependent (dynamic) rewrites afterwards (Section 2.1).  The code
generator runs after dynamic rewrites, so the rewrites below execute at
the start of every engine invocation.
"""

from __future__ import annotations

from repro.hops.hop import (
    AggUnaryOp,
    BinaryOp,
    DataOp,
    Hop,
    LiteralOp,
    ReorgOp,
    TernaryOp,
    UnaryOp,
    collect_dag,
    topological_order,
)
from repro.hops.types import AggDir, OpKind


def apply_rewrites(roots: list[Hop], enable_cse: bool = True) -> list[Hop]:
    """Run simplification rewrites and CSE; returns the new root list."""
    roots = _simplify(roots)
    if enable_cse:
        roots = eliminate_cse(roots)
        # CSE can expose new simplifications (e.g. shared double
        # transposes); one more pass reaches a fixpoint for our rules.
        roots = _simplify(roots)
    return roots


# ----------------------------------------------------------------------
# Algebraic simplifications
# ----------------------------------------------------------------------
def _simplify(roots: list[Hop]) -> list[Hop]:
    replaced: dict[int, Hop] = {}
    for hop in topological_order(roots):
        new = _simplify_hop(hop)
        if new is not hop:
            hop.rewire_to(new)
            replaced[hop.id] = new
    return [replaced.get(r.id, r) for r in roots]


def _literal_value(hop: Hop):
    """The value rewrites may fold; a run-time-bound scalar has none."""
    if isinstance(hop, LiteralOp) and hop.bound < 0:
        return hop.value
    return None


def _simplify_hop(hop: Hop) -> Hop:
    if isinstance(hop, ReorgOp):
        inner = hop.inputs[0]
        if isinstance(inner, ReorgOp):  # t(t(X)) -> X
            return inner.inputs[0]
        return hop
    if isinstance(hop, UnaryOp):
        inner = hop.inputs[0]
        if hop.op == "neg" and isinstance(inner, UnaryOp) and inner.op == "neg":
            return inner.inputs[0]
        return hop
    if isinstance(hop, AggUnaryOp):
        inner = hop.inputs[0]
        if hop.direction is AggDir.FULL and isinstance(inner, ReorgOp):
            # sum(t(X)) -> sum(X)
            return AggUnaryOp(hop.agg_op, AggDir.FULL, inner.inputs[0])
        return hop
    if isinstance(hop, BinaryOp):
        return _simplify_binary(hop)
    if isinstance(hop, TernaryOp) and hop.op == "ifelse":
        cond = _literal_value(hop.inputs[0])
        if cond is not None:
            return hop.inputs[1] if cond != 0 else hop.inputs[2]
        return hop
    return hop


def _simplify_binary(hop: BinaryOp) -> Hop:
    left, right = hop.inputs
    lval, rval = _literal_value(left), _literal_value(right)
    op = hop.op
    if op == "*":
        if rval == 1.0:
            return left
        if lval == 1.0:
            return right
        if left is right and left.is_matrix:
            # X * X -> pow2(X): enables squared-value execution over
            # compressed dictionaries and sparse non-zeros.
            return UnaryOp("pow2", left)
    elif op == "/":
        if rval == 1.0:
            return left
    elif op == "+":
        if rval == 0.0:
            return left
        if lval == 0.0:
            return right
    elif op == "-":
        if rval == 0.0:
            return left
        if lval == 0.0 and right.is_matrix:
            return UnaryOp("neg", right)
    elif op == "^":
        if rval == 1.0:
            return left
        if rval == 2.0:
            return UnaryOp("pow2", left)
    if lval is not None and rval is not None:
        from repro.runtime import ops as rops

        return LiteralOp(rops.binary(op, lval, rval))
    return hop


# ----------------------------------------------------------------------
# Common subexpression elimination
# ----------------------------------------------------------------------
_COMMUTATIVE = frozenset({"+", "*", "min", "max", "==", "!=", "&", "|"})


def structure_key(hop: Hop, input_keys: tuple):
    """What ``hop`` computes, over inputs already reduced to keys.

    The one structural description of an operator: CSE merges hops with
    equal keys, and the engine's program cache
    (:func:`repro.compiler.symbolic.dag_signature`) reuses a compiled
    program for DAGs whose keys agree node by node.  Leaves are the
    callers' business (CSE keys data by identity, the program cache by
    shape); ``None`` means the hop has no structural description (a
    spliced fused operator).
    """
    if isinstance(hop, BinaryOp):
        if hop.op in _COMMUTATIVE:
            input_keys = tuple(sorted(input_keys))
        return ("b", hop.op, input_keys)
    if isinstance(hop, UnaryOp):
        return ("u", hop.op, input_keys)
    if isinstance(hop, TernaryOp):
        return ("t", hop.op, input_keys)
    if isinstance(hop, AggUnaryOp):
        return ("ua", hop.agg_op.value, hop.direction.value, input_keys)
    if hop.kind is OpKind.AGG_BINARY:
        return ("ba", input_keys)
    if isinstance(hop, ReorgOp):
        return ("r", hop.op, input_keys)
    if hop.kind is OpKind.INDEX:
        return ("rix", hop.rl, hop.ru, hop.cl, hop.cu, input_keys)
    if hop.kind is OpKind.NARY:
        return ("nary", hop.op, input_keys)
    return None


def _cse_key(hop: Hop, mapping: dict[int, int]):
    """A structural key; equal keys imply semantically equal hops."""
    if isinstance(hop, DataOp):
        return ("data", id(hop.data))
    if isinstance(hop, LiteralOp):
        # A run-time-bound scalar never merges with a literal of the
        # same compile-time value: the next run may bind another one.
        if hop.bound >= 0:
            return ("bound", hop.bound)
        return ("lit", hop.value)
    if hop.kind is not OpKind.NARY:
        key = structure_key(hop, tuple(mapping[i.id] for i in hop.inputs))
        if key is not None:
            return key
    return ("unique", hop.id)  # n-ary and fused operators never merge


def eliminate_cse(roots: list[Hop]) -> list[Hop]:
    """Merge structurally identical subexpressions into shared hops."""
    canonical: dict[tuple, Hop] = {}
    mapping: dict[int, int] = {}  # hop id -> canonical hop id
    replaced: dict[int, Hop] = {}
    for hop in topological_order(roots):
        key = _cse_key(hop, mapping)
        existing = canonical.get(key)
        if existing is None or existing is hop:
            canonical[key] = hop
            mapping[hop.id] = hop.id
        else:
            mapping[hop.id] = existing.id
            hop.rewire_to(existing)
            replaced[hop.id] = existing
    return [replaced.get(r.id, r) for r in roots]


def validate_dag(roots: list[Hop]) -> None:
    """Sanity-check parent/input symmetry (used by tests)."""
    for hop in collect_dag(roots):
        for hop_in in hop.inputs:
            assert any(p is hop for p in hop_in.parents), (
                f"{hop_in} missing parent link to {hop}"
            )
