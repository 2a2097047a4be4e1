"""Plan partitions, interesting points, and cut sets (Section 4.2).

Partitions are the connected components of the memo table's fusion
references; they are optimized and costed independently.  Per partition
we collect *interesting points*: per-consumer materialization decisions
for nodes with multiple consumers, and template switches.  The
reachability graph over interesting points yields *cut sets* whose
materialization creates independent sub-problems (structural pruning of
Algorithm 2, scored by Equation 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen.memo import MemoTable
from repro.hops.hop import Hop, collect_dag


@dataclass(frozen=True)
class InterestingPoint:
    """A boolean materialization decision on a data dependency."""

    consumer_id: int
    target_id: int


@dataclass
class PlanPartition:
    """A connected component of partial fusion plans."""

    members: set[int] = field(default_factory=set)
    roots: set[int] = field(default_factory=set)
    inputs: set[int] = field(default_factory=set)
    mat_points: set[int] = field(default_factory=set)
    points: list[InterestingPoint] = field(default_factory=list)


def _fusion_edges(memo: MemoTable) -> list[tuple[int, int]]:
    """All (consumer, target) fusion references in the memo table."""
    edges = []
    for hop_id in memo.group_ids():
        for entry in memo.get(hop_id):
            for ref in entry.ref_ids():
                edges.append((hop_id, ref))
    return edges


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        root = x
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def build_partitions(memo: MemoTable, roots: list[Hop]) -> list[PlanPartition]:
    """Determine plan partitions and their interesting points."""
    dag = collect_dag(roots)
    dag_ids = {h.id for h in dag}
    hop_by_id = {h.id: h for h in dag}

    uf = _UnionFind()
    group_ids = [g for g in memo.group_ids() if g in dag_ids]
    for gid in group_ids:
        uf.find(gid)
    edges = [(c, t) for (c, t) in _fusion_edges(memo) if c in dag_ids and t in dag_ids]
    for consumer, target in edges:
        uf.union(consumer, target)

    by_root: dict[int, PlanPartition] = {}
    for gid in group_ids:
        part = by_root.setdefault(uf.find(gid), PlanPartition())
        part.members.add(gid)

    referenced: set[int] = {t for (_, t) in edges}
    for part in by_root.values():
        _finalize_partition(part, memo, hop_by_id, dag_ids, referenced)
    # Deterministic ordering for stable enumeration statistics.
    return sorted(by_root.values(), key=lambda p: min(p.members))


def _finalize_partition(part: PlanPartition, memo: MemoTable,
                        hop_by_id: dict[int, Hop], dag_ids: set[int],
                        referenced: set[int]) -> None:
    # Root nodes: members never referenced from within the partition.
    refs_within = set()
    for member in part.members:
        for entry in memo.get(member):
            for ref in entry.ref_ids():
                if ref in part.members:
                    refs_within.add(ref)
    part.roots = part.members - refs_within

    # Input nodes: read by any member, not a member themselves.
    for member in part.members:
        for hop_in in hop_by_id[member].inputs:
            if hop_in.id not in part.members:
                part.inputs.add(hop_in.id)

    # Materialization points: non-root members with multiple consumers.
    for member in part.members:
        hop = hop_by_id[member]
        n_consumers = sum(1 for p in hop.parents if p.id in dag_ids)
        if member not in part.roots and n_consumers > 1:
            part.mat_points.add(member)

    part.points = _interesting_points(part, memo, hop_by_id, dag_ids)


def _interesting_points(part: PlanPartition, memo: MemoTable,
                        hop_by_id: dict[int, Hop],
                        dag_ids: set[int]) -> list[InterestingPoint]:
    points: list[InterestingPoint] = []
    seen: set[tuple[int, int]] = set()

    def add(consumer_id: int, target_id: int) -> None:
        key = (consumer_id, target_id)
        if key not in seen:
            seen.add(key)
            points.append(InterestingPoint(consumer_id, target_id))

    # Materialization-point consumers, considered individually per data
    # dependency (important for overlapping fused operators).
    for target in sorted(part.mat_points):
        hop = hop_by_id[target]
        for consumer in hop.parents:
            if consumer.id not in part.members:
                continue
            refs_target = any(
                entry.refs[idx] == target
                for entry in memo.get(consumer.id)
                for idx, hop_in in enumerate(consumer.inputs)
                if hop_in.id == target
            )
            if refs_target:
                add(consumer.id, target)

    # Template switches: dependencies (gi -> gj) where the input group
    # has template types the consumer group lacks.
    for consumer_id in sorted(part.members):
        consumer_types = set(memo.distinct_types(consumer_id))
        for entry in memo.get(consumer_id):
            for ref in entry.ref_ids():
                target_types = set(memo.distinct_types(ref))
                if target_types - consumer_types:
                    add(consumer_id, ref)

    return points


# ----------------------------------------------------------------------
# Reachability graph and cut sets (structural pruning)
# ----------------------------------------------------------------------
@dataclass
class CutSet:
    """A set of point targets that splits the partition's search space."""

    targets: tuple[int, ...]
    cut_points: list[int]  # indices into the point list
    side1: list[int]  # point indices above the cut
    side2: list[int]  # point indices below the cut
    score: float = 0.0


class ReachabilityGraph:
    """Fusion-reference reachability among a partition's members."""

    def __init__(self, part: PlanPartition, memo: MemoTable,
                 hop_by_id: dict[int, Hop]):
        self.part = part
        # consumer -> set of targets (downward edges via fusion refs).
        self.down: dict[int, set[int]] = {m: set() for m in part.members}
        for member in part.members:
            for entry in memo.get(member):
                for ref in entry.ref_ids():
                    if ref in part.members:
                        self.down[member].add(ref)

    def descendants(self, start: set[int]) -> set[int]:
        seen: set[int] = set()
        stack = [t for s in start for t in self.down.get(s, ())]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.down.get(node, ()))
        return seen

    def reachable_avoiding(self, start: set[int], avoid: set[int]) -> set[int]:
        seen: set[int] = set()
        stack = [s for s in start if s not in avoid]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(t for t in self.down.get(node, ()) if t not in avoid)
        return seen


def find_cut_sets(part: PlanPartition, memo: MemoTable,
                  hop_by_id: dict[int, Hop]) -> list[CutSet]:
    """Candidate cut sets sorted ascending by the Eq. (5) score."""
    if len(part.points) < 3:
        return []
    graph = ReachabilityGraph(part, memo, hop_by_id)
    targets = sorted({p.target_id for p in part.points})
    n_points = len(part.points)

    candidates: list[tuple[int, ...]] = [(t,) for t in targets]
    # Composite points of equivalent inputs: targets sharing the same
    # consumer set; and non-overlapping pairs of single targets.
    for i, t1 in enumerate(targets):
        for t2 in targets[i + 1:]:
            if not (t1 in graph.descendants({t2}) or t2 in graph.descendants({t1})):
                candidates.append((t1, t2))

    cut_sets: list[CutSet] = []
    for cand in candidates:
        cand_set = set(cand)
        below_members = graph.reachable_avoiding(cand_set, set()) & graph.descendants(cand_set)
        # Validity: with the cut removed, nothing below is reachable
        # from the roots.
        reach_no_cut = graph.reachable_avoiding(part.roots, cand_set)
        below = graph.descendants(cand_set) - cand_set
        if below & reach_no_cut:
            continue
        side1 = [
            i for i, p in enumerate(part.points)
            if p.target_id not in below and p.target_id not in cand_set
        ]
        side2 = [i for i, p in enumerate(part.points) if p.target_id in below]
        cut_points = [i for i, p in enumerate(part.points) if p.target_id in cand_set]
        if not side1 or not side2 or not cut_points:
            continue
        size = len(cut_points)
        score = ((2 ** size - 1) / 2 ** size) * 2 ** n_points + (
            1 / 2 ** size
        ) * (2 ** len(side1) + 2 ** len(side2))
        cut_sets.append(CutSet(cand, cut_points, side1, side2, score))
        del below_members
    cut_sets.sort(key=lambda c: c.score)
    return cut_sets
