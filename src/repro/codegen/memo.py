"""The memoization table of partial fusion plans (Section 3.1).

The memo table consists of *groups* — one per HOP that is amenable to
fusion — each holding a set of memo entries.  An entry
``(type, [i1..ik], closed)`` records a partial fusion plan: per input
either a group reference (fuse) or ``-1`` (materialized intermediate).
A reference from an entry to a group implies the group contains at
least one compatible plan; alternative subplans are never expanded,
which keeps the table linear in the DAG size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen.template import CloseType, MERGE_COMPATIBILITY, TemplateType
from repro.hops.hop import AggUnaryOp, Hop
from repro.hops.types import AggDir


@dataclass(frozen=True)
class MemoEntry:
    """A partial fusion plan: template type, input refs, close status."""

    ttype: TemplateType
    refs: tuple[int, ...]
    status: CloseType = CloseType.OPEN_VALID

    @property
    def n_refs(self) -> int:
        return sum(1 for r in self.refs if r != -1)

    def ref_ids(self) -> list[int]:
        return [r for r in self.refs if r != -1]

    def with_status(self, status: CloseType) -> "MemoEntry":
        return MemoEntry(self.ttype, self.refs, status)

    def __repr__(self) -> str:
        body = ",".join(str(r) for r in self.refs)
        flag = {
            CloseType.OPEN_VALID: "",
            CloseType.OPEN_INVALID: "!",
            CloseType.CLOSED_VALID: "#",
            CloseType.CLOSED_INVALID: "#!",
        }[self.status]
        return f"{self.ttype.value[0]}({body}){flag}"


class MemoTable:
    """Groups of partial fusion plans, keyed by HOP id."""

    def __init__(self):
        self._groups: dict[int, list[MemoEntry]] = {}
        self._hops: dict[int, Hop] = {}
        self._processed: set[int] = set()

    # ------------------------------------------------------------------
    # Group access
    # ------------------------------------------------------------------
    def contains(self, hop_id: int) -> bool:
        return hop_id in self._groups

    def get(self, hop_id: int) -> list[MemoEntry]:
        return self._groups.get(hop_id, [])

    def hop(self, hop_id: int) -> Hop:
        return self._hops[hop_id]

    def group_ids(self) -> list[int]:
        return list(self._groups.keys())

    def add(self, hop: Hop, entries) -> None:
        if not entries:
            return
        group = self._groups.setdefault(hop.id, [])
        self._hops[hop.id] = hop
        seen = {(e.ttype, e.refs) for e in group}
        for entry in entries:
            key = (entry.ttype, entry.refs)
            if key not in seen:
                seen.add(key)
                group.append(entry)

    def remove(self, hop_id: int, entry: MemoEntry) -> None:
        group = self._groups.get(hop_id, [])
        self._groups[hop_id] = [e for e in group if e is not entry]

    def replace(self, hop_id: int, entries: list[MemoEntry]) -> None:
        if entries:
            self._groups[hop_id] = entries
        else:
            self._groups.pop(hop_id, None)

    # ------------------------------------------------------------------
    # Bookkeeping for the exploration pass
    # ------------------------------------------------------------------
    def mark_processed(self, hop: Hop) -> None:
        self._processed.add(hop.id)
        if hop.id in self._groups:
            self._hops[hop.id] = hop

    def is_processed(self, hop_id: int) -> bool:
        return hop_id in self._processed

    # ------------------------------------------------------------------
    # Queries used by templates, costing, and construction
    # ------------------------------------------------------------------
    def distinct_types(self, hop_id: int) -> list[TemplateType]:
        """Distinct template types with any non-closed-invalid plans."""
        types: list[TemplateType] = []
        for entry in self.get(hop_id):
            if entry.status is CloseType.CLOSED_INVALID:
                continue
            if entry.ttype not in types:
                types.append(entry.ttype)
        return types

    def extendable_types(self, hop_id: int) -> list[TemplateType]:
        """Template types with *open* plans — only those can be expanded
        to a consumer by fusion (closed operators are terminal)."""
        types: list[TemplateType] = []
        for entry in self.get(hop_id):
            if entry.status.is_closed:
                continue
            if entry.ttype not in types:
                types.append(entry.ttype)
        return types

    def can_absorb(self, parent_ttype: TemplateType, entry: MemoEntry,
                   child_hop: Hop) -> bool:
        """May a ``parent_ttype`` operator absorb this child plan?

        Open-invalid plans are absorbable (invalid only as entry
        points).  Closed plans are terminal operators, with one
        exception: a Row operator absorbs row-wise-aggregation Cell
        plans (rowSums of a fused intermediate is row-local).
        """
        if entry.ttype not in MERGE_COMPATIBILITY[parent_ttype]:
            return False
        if entry.status is CloseType.CLOSED_INVALID:
            return False
        if not entry.status.is_closed:
            return True
        if parent_ttype is TemplateType.ROW and entry.ttype is TemplateType.CELL:
            return (
                isinstance(child_hop, AggUnaryOp)
                and child_hop.direction is AggDir.ROW
            )
        return False

    def has_compatible_plan(self, hop_id: int, ttype: TemplateType) -> bool:
        """Does the group contain a plan a ``ttype`` operator may absorb?"""
        if hop_id not in self._hops:
            return any(True for _ in self.get(hop_id))
        child = self._hops[hop_id]
        return any(self.can_absorb(ttype, e, child) for e in self.get(hop_id))

    def compatible_entries(self, hop_id: int, ttype: TemplateType) -> list[MemoEntry]:
        child = self._hops.get(hop_id)
        if child is None:
            return []
        return [e for e in self.get(hop_id) if self.can_absorb(ttype, e, child)]

    def root_entries(self, hop_id: int) -> list[MemoEntry]:
        """Entries usable as the root operation of a fused operator
        (open-invalid entries are invalid entry points)."""
        return [
            e
            for e in self.get(hop_id)
            if e.status in (CloseType.OPEN_VALID, CloseType.CLOSED_VALID)
        ]

    # ------------------------------------------------------------------
    # Pruning (Section 3.2)
    # ------------------------------------------------------------------
    def prune_redundant(self, hop: Hop) -> None:
        """Basic pruning: closed-invalid entries, duplicates, and valid
        closed entries without group references (single-op covers)."""
        kept: list[MemoEntry] = []
        seen: set = set()
        for entry in self.get(hop.id):
            if entry.status is CloseType.CLOSED_INVALID:
                continue
            if entry.status is CloseType.CLOSED_VALID and entry.n_refs == 0:
                continue
            key = (entry.ttype, entry.refs)
            if key in seen:
                continue
            seen.add(key)
            kept.append(entry)
        self.replace(hop.id, kept)

    def prune_dominated(self, hop: Hop) -> None:
        """Dominance pruning, sound only for heuristic selection
        policies that consider materialization points with multiple
        consumers (Section 3.2)."""
        group = self.get(hop.id)
        kept: list[MemoEntry] = []
        for entry in group:
            dominated = False
            entry_refs = set(entry.ref_ids())
            for other in group:
                if other is entry or other.ttype is not entry.ttype:
                    continue
                other_refs = set(other.ref_ids())
                if not (entry_refs < other_refs):
                    continue
                # The additional references of the dominating entry must
                # all point to once-consumed operators; a multi-consumer
                # extra target makes the smaller plan a genuine
                # materialization alternative (paper: R(-1,8) is not
                # dominated by R(6,8) because group 6 has two consumers).
                extra = other_refs - entry_refs
                if all(
                    len(set(id(p) for p in self._hops[r].parents)) <= 1
                    for r in extra
                    if r in self._hops
                ):
                    dominated = True
                    break
            if not dominated:
                kept.append(entry)
        self.replace(hop.id, kept)

    # ------------------------------------------------------------------
    # Covered-set expansion (optimistic, for validity checks/costing)
    # ------------------------------------------------------------------
    def covered_hops(self, hop: Hop, entry: MemoEntry) -> list[Hop]:
        """Hops covered by an entry, following refs optimistically
        (choosing, per referenced group, the compatible entry with the
        most references)."""
        covered: dict[int, Hop] = {hop.id: hop}
        stack = [(hop, entry)]
        while stack:
            cur_hop, cur_entry = stack.pop()
            for idx, ref in enumerate(cur_entry.refs):
                if ref == -1:
                    continue
                child = cur_hop.inputs[idx]
                if child.id in covered:
                    continue
                candidates = self.compatible_entries(child.id, cur_entry.ttype)
                if not candidates:
                    continue
                # Prefer same-type subplans (an Outer entry expanding
                # through its own chain sees the outer matmult).
                same_type = [e for e in candidates if e.ttype is cur_entry.ttype]
                best = max(same_type or candidates, key=lambda e: e.n_refs)
                covered[child.id] = child
                stack.append((child, best))
        return list(covered.values())

    def __repr__(self) -> str:
        lines = []
        for hop_id in sorted(self._groups):
            hop = self._hops.get(hop_id)
            label = hop.opcode() if hop is not None else "?"
            entries = " ".join(repr(e) for e in self._groups[hop_id])
            lines.append(f"{hop_id} {label}: {entries}")
        return "\n".join(lines)
