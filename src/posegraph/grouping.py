"""Clustering of candidate joints into joint nodes.

Two candidates of the same joint type belong together when each lies inside
the other's control domain, a disc whose radius is the smaller response size
times the per-joint tolerance. That pairwise relation is not transitive, so
nodes are the connected components of its closure.

``same_group`` alone decides the relation. ``group_candidates`` sorts each
joint type's candidates by x and, from each candidate a, calls it on the
later candidates until the x gap exceeds a's response size times the
tolerance. That stop drops no related pair: the rounded gap never shrinks
along the sort, the relation's bound min(sizes) * tolerance is at most a's
own, and ``math.hypot`` is faithfully rounded, so it is never below the x
gap. A gap or bound that overflows to inf compares as in ``same_group``.
Well-separated candidates cost about one comparison each past the sort;
candidates packed into one narrow x column cost one ``same_group`` call
per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .joints import JOINT_COUNT, JointSpec


@dataclass(frozen=True, slots=True)
class CandidateJoint:
    """One peak read off a proposal's joint heatmap.

    ``origin`` is simulation provenance: the (person_id, joint_type) of the
    ground-truth joint this candidate detects, or None for a false positive.
    Real detections would leave it None; association logic never reads it.
    """

    location: tuple[float, float]
    response: float
    joint_type: int
    source_proposal: int
    response_size: float
    origin: tuple[int, int] | None = None

    def __post_init__(self):
        x, y = self.location
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"location must be finite, got {self.location}")
        # An int beyond 2**53 subtracts exactly from an int but rounds
        # against a float, so a mix could shrink the x gap along the sort
        # and end the sweep in group_candidates early; floats keep it growing.
        object.__setattr__(self, "location", (float(x), float(y)))
        if not 0 < self.response < math.inf:
            raise ValueError(f"response must be positive and finite, got {self.response}")
        if not 0 < self.response_size < math.inf:
            raise ValueError(
                f"response_size must be positive and finite, got {self.response_size}"
            )
        if not 0 <= self.joint_type < JOINT_COUNT:
            raise ValueError(
                f"joint_type {self.joint_type} out of range for {JOINT_COUNT} joints"
            )


@dataclass(frozen=True, slots=True)
class JointNode:
    """A group of candidate joints standing for one physical joint."""

    joint_type: int
    members: tuple[CandidateJoint, ...]
    node_id: int

    def __post_init__(self):
        if not self.members:
            raise ValueError("a joint node needs at least one member")
        if any(m.joint_type != self.joint_type for m in self.members):
            raise ValueError("all members must share the node's joint_type")


def same_group(a: CandidateJoint, b: CandidateJoint, delta_k: float) -> bool:
    """Mutual control-domain test for two same-type candidates.

    Args:
        a: first candidate.
        b: second candidate, same joint_type as ``a``.
        delta_k: tolerance for this joint type, positive and finite.

    Returns:
        True when the distance between the two locations is at most
        min(response sizes) * delta_k.
    """
    if a.joint_type != b.joint_type:
        raise ValueError(
            f"joint_type mismatch: {a.joint_type} vs {b.joint_type}"
        )
    if not 0.0 < delta_k < math.inf:
        raise ValueError(f"delta_k must be positive and finite, got {delta_k}")
    dist = math.hypot(a.location[0] - b.location[0], a.location[1] - b.location[1])
    return dist <= min(a.response_size, b.response_size) * delta_k


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def group_candidates(
    candidates: list[CandidateJoint], spec: JointSpec
) -> list[JointNode]:
    """Partition candidates into joint nodes.

    Candidates of each joint type are split into connected components of the
    pairwise grouping relation. Node ids count up from 0 in order of
    (joint_type, smallest member position in the input), so the labeling is
    deterministic; the partition itself does not depend on input order.

    Args:
        candidates: any mix of joint types, possibly empty.
        spec: joint vocabulary supplying per-type tolerances.

    Returns:
        One JointNode per component, ordered by node_id.
    """
    by_type: dict[int, list[int]] = {}
    for idx, cand in enumerate(candidates):
        by_type.setdefault(cand.joint_type, []).append(idx)

    uf = _UnionFind(len(candidates))
    for joint_type, indices in by_type.items():
        delta_k = spec.delta[joint_type]
        order = sorted(indices, key=lambda i: candidates[i].location[0])
        for pos, i in enumerate(order):
            a = candidates[i]
            x, reach = a.location[0], a.response_size * delta_k
            for later in range(pos + 1, len(order)):
                b = candidates[order[later]]
                if b.location[0] - x > reach:
                    break
                if same_group(a, b, delta_k):
                    uf.union(i, order[later])

    components: dict[int, list[int]] = {}
    for idx in range(len(candidates)):
        components.setdefault(uf.find(idx), []).append(idx)
    # find() roots are the smallest input position per component.
    nodes = []
    for root in sorted(components, key=lambda r: (candidates[r].joint_type, r)):
        members = tuple(candidates[i] for i in components[root])
        nodes.append(
            JointNode(joint_type=members[0].joint_type, members=members,
                      node_id=len(nodes))
        )
    return nodes


def weighted_center(node: JointNode) -> tuple[tuple[float, float], float]:
    """Response-weighted mean location of a node's members.

    The mean is computed relative to the first member's location, so a node
    whose members coincide returns that location bit-exactly; the result is
    clamped into the member bounding box to keep rounding from nudging it
    outside.

    Returns:
        ((x, y), score) where the score is the maximum member response.
    """
    x0, y0 = node.members[0].location
    total = sum(m.response for m in node.members)
    x = x0 + sum(m.response * (m.location[0] - x0) for m in node.members) / total
    y = y0 + sum(m.response * (m.location[1] - y0) for m in node.members) / total
    xs = [m.location[0] for m in node.members]
    ys = [m.location[1] for m in node.members]
    x = min(max(x, min(xs)), max(xs))
    y = min(max(y, min(ys)), max(ys))
    score = max(m.response for m in node.members)
    return ((x, y), score)
