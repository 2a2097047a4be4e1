"""Code generation plans (CPlans): backend-independent fused operators.

A CPlan consists of CNodes — template meta information plus a DAG of
basic operations encoding the data flow (Section 2.2).  CPlans are
constructed from selected memo-table plans and expanded recursively
into source code; a semantic hash identifies equivalent CPlans in the
plan cache.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.codegen.template import TemplateType

_CNODE_IDS = itertools.count(1)


class OutType(Enum):
    """Output/aggregation variants of the templates (Table 1)."""

    NO_AGG = "no_agg"
    ROW_AGG = "row_agg"
    COL_AGG = "col_agg"
    COL_AGG_T = "col_agg_t"  # t(Z) %*% Q accumulation
    FULL_AGG = "full_agg"
    MULTI_AGG = "multi_agg"
    OUTER_NO_AGG = "outer_no_agg"
    OUTER_LEFT = "outer_left"
    OUTER_RIGHT = "outer_right"
    OUTER_FULL_AGG = "outer_full_agg"


class Access(Enum):
    """How a fused operator binds an input."""

    MAIN = "main"
    SIDE_ROW = "side_row"  # row-aligned with the main input
    SIDE_FULL = "side_full"  # read in full (broadcast-like)
    SCALAR = "scalar"


@dataclass
class InputSpec:
    """One operator input with its binding."""

    hop_id: int
    rows: int
    cols: int
    access: Access

    def shape_class(self) -> str:
        if self.access is Access.SCALAR:
            return "s"
        if self.cols == 1:
            return "c"  # column vector
        if self.rows == 1:
            return "r"  # row vector
        return "m"


class CNode:
    """A basic-operation node of a CPlan body DAG."""

    __slots__ = ("id", "op", "inputs", "input_index", "value", "meta")

    def __init__(self, op: str, inputs: list["CNode"] | None = None,
                 input_index: int = -1, value: float = 0.0,
                 meta: tuple = ()):
        self.id = next(_CNODE_IDS)
        self.op = op
        self.inputs = inputs or []
        self.input_index = input_index
        self.value = value
        self.meta = meta

    def signature(self, memo: dict[int, str]) -> str:
        """Stable structural signature for hashing and CSE.

        First occurrence of a node expands in full; any later occurrence
        is a back-reference ``@k`` where ``k`` numbers nodes in order of
        completed expansion.  The traversal is iterative (body DAGs can
        be thousands of nodes deep).
        """
        if self.id in memo:
            return f"@{memo[self.id]}"

        def open_frame(node: "CNode") -> list:
            parts = [node.op]
            if node.op == "data":
                parts.append(str(node.input_index))
            elif node.op == "lit":
                parts.append(repr(node.value))
            if node.meta:
                parts.append(repr(node.meta))
            return [node, parts, iter(node.inputs)]

        frames = [open_frame(self)]
        completed: str | None = None
        while frames:
            node, parts, child_iter = frames[-1]
            if completed is not None:
                parts.append(completed)
                completed = None
            descended = False
            for child in child_iter:
                if child.id in memo:
                    parts.append(f"@{memo[child.id]}")
                    continue
                frames.append(open_frame(child))
                descended = True
                break
            if descended:
                continue
            memo[node.id] = str(len(memo))
            completed = "(" + " ".join(parts) + ")"
            frames.pop()
        return completed

    def __repr__(self) -> str:
        return f"CNode[{self.op}]"


@dataclass
class CPlan:
    """A fused-operator plan ready for code generation."""

    ttype: TemplateType
    out_type: OutType
    roots: list[CNode]  # one root, or several for MULTI_AGG
    inputs: list[InputSpec]
    main_index: int  # index into inputs, -1 if none
    sparse_safe: bool = False
    agg_ops: list[str] = field(default_factory=list)  # per root: sum/min/max
    out_rows: int = 0
    out_cols: int = 0
    covered_hop_ids: list[int] = field(default_factory=list)
    # Outer-specific: indices of U/V factor inputs, the mm side factor,
    # and whether the right factor arrives already transposed (k x n).
    u_index: int = -1
    v_index: int = -1
    w_index: int = -1
    v_transposed: bool = False

    def agg_op(self, k: int = 0) -> str:
        """The aggregation of root ``k``: ``sum`` when none is named."""
        return self.agg_ops[k] if k < len(self.agg_ops) else "sum"

    def semantic_hash(self) -> str:
        """Hash identifying equivalent CPlans (plan-cache key).

        Includes the template, output variant, body structure, input
        bindings and shape classes — but not absolute sizes, so
        operators are reused across iterations and matrix sizes.
        """
        memo: dict[int, str] = {}
        parts = [
            self.ttype.value,
            self.out_type.value,
            "ss" if self.sparse_safe else "ds",
            str(self.main_index),
            str(self.u_index),
            str(self.v_index),
            str(self.w_index),
            str(self.v_transposed),
            "|".join(f"{s.access.value}:{s.shape_class()}" for s in self.inputs),
            "|".join(self.agg_ops),
        ]
        parts.extend(r.signature(memo) for r in self.roots)
        digest = hashlib.sha256("§".join(parts).encode()).hexdigest()[:16]
        return digest


def compressed_cell_eligible(cplan: CPlan) -> bool:
    """Dictionary-only execution guard (Figure 9 conditions).

    The single source of truth for the cell driver and the group-wise
    intra-op partitioner: sparse-safe, no side inputs, sum-aggregated
    FULL/MULTI_AGG cell plans run ``genbody`` over distinct dictionary
    values only.  A static plan property — independent of the bound
    runtime inputs.
    """
    n_sides = sum(
        1 for idx, spec in enumerate(cplan.inputs)
        if idx != cplan.main_index and spec.access is not Access.SCALAR
    )
    return (
        cplan.ttype in (TemplateType.CELL, TemplateType.MAGG)
        and cplan.sparse_safe
        and n_sides == 0
        and cplan.out_type in (OutType.FULL_AGG, OutType.MULTI_AGG)
        and all(a == "sum" for a in cplan.agg_ops)
    )
