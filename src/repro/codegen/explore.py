"""Candidate exploration: the OFMC algorithm (Algorithm 1).

A single bottom-up pass over the HOP DAG populates the memo table with
all valid partial fusion plans.  The algorithm is template-oblivious:
all template-specific conditions live in the OFMC objects
(open/fuse/merge/close), which apply only locally to an operator and
its inputs — hence linear time and space in the number of operators.
"""

from __future__ import annotations

import itertools

from repro.codegen.memo import MemoEntry, MemoTable
from repro.codegen.template import CloseType, Template, TemplateType
from repro.codegen.tpl_cell import CellTemplate
from repro.codegen.tpl_magg import MultiAggTemplate
from repro.codegen.tpl_outer import OuterTemplate, has_sparse_driver
from repro.codegen.tpl_row import RowTemplate
from repro.config import CodegenConfig
from repro.hops.hop import Hop, topological_order


def make_templates(config: CodegenConfig) -> dict[TemplateType, Template]:
    """The template registry |T| = 4."""
    templates = [
        CellTemplate(config),
        RowTemplate(config),
        MultiAggTemplate(config),
        OuterTemplate(config),
    ]
    return {t.ttype: t for t in templates}


def explore(roots: list[Hop], config: CodegenConfig,
            prune_dominated: bool = False) -> MemoTable:
    """Populate a memo table for the DAG under ``roots``.

    ``prune_dominated`` enables the advanced pruning that is sound only
    for heuristic selection policies (Section 3.2).
    """
    memo = MemoTable()
    templates = make_templates(config)
    # The recursion of Algorithm 1 is a DFS postorder; we linearize it.
    for hop in topological_order(roots):
        _explore_hop(hop, memo, templates, prune_dominated)
    return memo


def _explore_hop(hop: Hop, memo: MemoTable,
                 templates: dict[TemplateType, Template],
                 prune_dominated: bool) -> None:
    # Memoization of processed operators (lines 1-3).
    if memo.is_processed(hop.id):
        return

    # Open initial operator plans (lines 7-10).
    new_entries: list[MemoEntry] = []
    for template in templates.values():
        if template.open(hop):
            new_entries.extend(_create_plans(hop, None, template, memo))

    # Fuse and merge operator plans (lines 11-15): only *open* plans at
    # the inputs can be expanded to this consumer.
    seen_pairs: set[tuple[int, TemplateType]] = set()
    for hop_in in hop.inputs:
        for ttype in memo.extendable_types(hop_in.id):
            if (hop_in.id, ttype) in seen_pairs:
                continue
            seen_pairs.add((hop_in.id, ttype))
            template = templates[ttype]
            if template.fuse(hop, hop_in):
                new_entries.extend(_create_plans(hop, hop_in, template, memo))

    # Close operator plans if required (lines 16-20).
    closed_entries: list[MemoEntry] = []
    for entry in new_entries:
        status = templates[entry.ttype].close(hop)
        if entry.ttype is TemplateType.OUTER:
            covered = memo.covered_hops(hop, entry)
            dims = _outer_dims(covered, hop)
            driver_covered = has_sparse_driver(covered, dims)
            if driver_covered and not _outer_chain_safe(hop, covered, dims):
                # Operations above the sparse-driver multiply must stay
                # sparse-safe; otherwise the plan is invalid (e.g. the
                # Cell consumer in Y + X (U V^T), Section 4.2).
                status = CloseType.CLOSED_INVALID
            elif status is CloseType.CLOSED_VALID and not driver_covered:
                # Outer templates are validated for the existence of
                # sparsity-exploiting operators at close.
                status = CloseType.CLOSED_INVALID
            elif not status.is_closed and not driver_covered:
                # The bare outer product is an invalid entry point for
                # materialization (open invalid) until fusion provides
                # a sparse driver.
                status = CloseType.OPEN_INVALID
            if entry.n_refs == 0 and not templates[TemplateType.OUTER].open(hop):
                # An Outer entry without references at a non-matmult
                # operator covers no outer product at all.
                status = CloseType.CLOSED_INVALID
        closed_entries.append(entry.with_status(status))

    memo.add(hop, [e for e in closed_entries if e.status is not CloseType.CLOSED_INVALID])

    # Prune redundant plans and memoize (lines 21-23).
    memo.prune_redundant(hop)
    if prune_dominated:
        memo.prune_dominated(hop)
    memo.mark_processed(hop)


def _create_plans(hop: Hop, fuse_in: Hop | None, template: Template,
                  memo: MemoTable) -> list[MemoEntry]:
    """Enumerate local plan combinations for a new entry at ``hop``.

    Per input, a group reference is allowed if the input group contains
    a compatible plan and either it is the fusion edge itself or the
    pair-wise merge condition holds.  The cartesian product of the
    options yields up to 2^|inputs| entries.
    """
    options: list[list[int]] = []
    for hop_in in hop.inputs:
        choices = [-1]
        if memo.has_compatible_plan(hop_in.id, template.ttype):
            is_fuse_edge = fuse_in is not None and hop_in is fuse_in
            if is_fuse_edge or template.merge(hop, hop_in):
                choices.append(hop_in.id)
        options.append(choices)
    entries = []
    for refs in itertools.product(*options):
        entries.append(MemoEntry(template.ttype, tuple(refs)))
    return entries


def _outer_dims(covered: list[Hop], hop: Hop) -> tuple[int, int]:
    """The m x n dimensions of the outer product within a covered set."""
    from repro.hops.hop import AggBinaryOp

    for cov in covered:
        if isinstance(cov, AggBinaryOp) and cov.inputs[0].cols <= cov.rows:
            return cov.dims
    return hop.dims


def _outer_chain_safe(root: Hop, covered: list[Hop],
                      outer_dims: tuple[int, int]) -> bool:
    """Structural sparse-safety of the path above the driver multiply.

    Every covered operator that consumes the driver multiply's result
    (transitively, up to the entry root) must preserve zeros of the
    driver: element-wise multiply/divide, sparse-safe unary functions,
    sum aggregations, transposes, and the final matmult.  Operations
    *below* the multiply (the dense UV^T chain, e.g. log(UV^T + eps))
    are unconstrained.  The sparse-safety check at construction remains
    the final authority.
    """
    from repro.hops.hop import AggBinaryOp, AggUnaryOp, BinaryOp, ReorgOp, UnaryOp
    from repro.hops.types import AggOp, SPARSE_SAFE_UNARY

    covered_ids = {h.id for h in covered}
    parents_in_cover: dict[int, list[Hop]] = {h.id: [] for h in covered}
    for hop in covered:
        for child in hop.inputs:
            if child.id in covered_ids:
                parents_in_cover[child.id].append(hop)

    def ancestors(start: Hop) -> list[Hop]:
        seen: dict[int, Hop] = {}
        stack = list(parents_in_cover[start.id])
        while stack:
            node = stack.pop()
            if node.id in seen:
                continue
            seen[node.id] = node
            stack.extend(parents_in_cover[node.id])
        return list(seen.values())

    def is_safe(hop: Hop) -> bool:
        if isinstance(hop, BinaryOp):
            return hop.op in ("*", "/")
        if isinstance(hop, UnaryOp):
            return hop.op in SPARSE_SAFE_UNARY
        if isinstance(hop, AggUnaryOp):
            return hop.agg_op in (AggOp.SUM, AggOp.SUM_SQ)
        if isinstance(hop, (AggBinaryOp, ReorgOp)):
            return True
        return False

    drivers = [
        h
        for h in covered
        if isinstance(h, BinaryOp) and h.op in ("*", "!=") and h.dims == outer_dims
    ]
    return any(all(is_safe(a) for a in ancestors(d)) for d in drivers)
