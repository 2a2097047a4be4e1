"""Template types and the OFMC (open-fuse-merge-close) abstraction.

A template is a generic fused-operator skeleton (Table 1 of the paper).
The OFMC abstraction separates template-specific fusion conditions from
the DAG traversal of the exploration algorithm (Section 3.2):

* ``open(h)``   — can a new fused operator of this template start at h?
* ``fuse(h,i)`` — can an open operator at input i expand to consumer h?
* ``merge(h,i)``— can an open operator at h absorb plans at input i?
* ``close(h)``  — the close status of the template after operator h.
"""

from __future__ import annotations

from enum import Enum, IntEnum

from repro.config import CodegenConfig
from repro.hops.hop import Hop


class TemplateType(Enum):
    """The four fusion templates of Table 1."""

    CELL = "Cell"
    ROW = "Row"
    MAGG = "MAgg"
    OUTER = "Outer"


class CloseType(IntEnum):
    """Close status of a memo entry (Section 3.1)."""

    OPEN_VALID = 0
    OPEN_INVALID = 1
    CLOSED_VALID = 2
    CLOSED_INVALID = 3

    @property
    def is_closed(self) -> bool:
        return self in (CloseType.CLOSED_VALID, CloseType.CLOSED_INVALID)


# Which child-entry template types an operator of a given template may
# absorb when following fusion references downward.
MERGE_COMPATIBILITY: dict[TemplateType, set[TemplateType]] = {
    TemplateType.CELL: {TemplateType.CELL},
    TemplateType.MAGG: {TemplateType.CELL, TemplateType.MAGG},
    TemplateType.ROW: {TemplateType.ROW, TemplateType.CELL},
    TemplateType.OUTER: {TemplateType.OUTER, TemplateType.CELL},
}


class Template:
    """Base class of the OFMC condition objects."""

    ttype: TemplateType

    def __init__(self, config: CodegenConfig):
        self.config = config

    def open(self, hop: Hop) -> bool:
        raise NotImplementedError

    def fuse(self, hop: Hop, hop_in: Hop) -> bool:
        raise NotImplementedError

    def merge(self, hop: Hop, hop_in: Hop) -> bool:
        raise NotImplementedError

    def close(self, hop: Hop) -> CloseType:
        raise NotImplementedError


def is_cellwise(hop: Hop) -> bool:
    """True for cell-wise unary/binary/ternary operations on matrices."""
    from repro.hops.hop import BinaryOp, TernaryOp, UnaryOp
    from repro.hops.types import CELLWISE_BINARY, CELLWISE_TERNARY, CELLWISE_UNARY

    if isinstance(hop, UnaryOp):
        return hop.op in CELLWISE_UNARY and hop.is_matrix
    if isinstance(hop, BinaryOp):
        return hop.op in CELLWISE_BINARY and hop.is_matrix
    if isinstance(hop, TernaryOp):
        return hop.op in CELLWISE_TERNARY and hop.is_matrix
    return False
