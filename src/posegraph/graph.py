"""The bipartite person-joint graph.

Person proposals sit on one side, joint nodes on the other. An edge says
"this proposal detected a candidate inside that node" and carries the best
response among the proposal's member candidates, so the assignment step can
trade detections off against each other globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import IntegrityError
from .grouping import JointNode
from .metrics import check_bbox


@dataclass(frozen=True, slots=True)
class PersonProposal:
    """Detector output for one person instance.

    ``detection_score`` round-trips through candidates files, and the
    simulator uses it as the response strength of the proposal's own joints.
    Edge weights in the association graph come from heatmap responses alone.
    """

    proposal_id: int
    bbox: tuple[float, float, float, float]
    detection_score: float = 1.0

    def __post_init__(self):
        check_bbox(self.bbox)
        if not 0.0 <= self.detection_score <= 1.0:
            raise ValueError(
                f"detection_score must lie in [0, 1], got {self.detection_score}"
            )


@dataclass(frozen=True, slots=True)
class Edge:
    proposal: int
    node: int
    joint_type: int
    weight: float

    def __post_init__(self):
        if not 0 < self.weight < math.inf:
            raise ValueError(f"edge weight must be positive and finite, got {self.weight}")


@dataclass(slots=True)
class PersonJointGraph:
    persons: list[PersonProposal]
    nodes: list[JointNode]
    edges: list[Edge] = field(default_factory=list)

    def __post_init__(self):
        person_ids = {p.proposal_id for p in self.persons}
        if len(person_ids) != len(self.persons):
            raise IntegrityError("duplicate proposal_id among persons")
        node_types = {n.node_id: n.joint_type for n in self.nodes}
        if len(node_types) != len(self.nodes):
            raise IntegrityError("duplicate node_id among joint nodes")
        seen = set()
        for edge in self.edges:
            if edge.proposal not in person_ids:
                raise IntegrityError(f"edge references unknown proposal {edge.proposal}")
            if edge.node not in node_types:
                raise IntegrityError(f"edge references unknown node {edge.node}")
            if node_types[edge.node] != edge.joint_type:
                raise IntegrityError(
                    f"edge joint_type {edge.joint_type} does not match "
                    f"node {edge.node} joint_type {node_types[edge.node]}"
                )
            key = (edge.proposal, edge.node)
            if key in seen:
                raise IntegrityError(f"duplicate edge for (proposal, node) {key}")
            seen.add(key)

    def joint_types(self) -> list[int]:
        return sorted({n.joint_type for n in self.nodes})


def build_graph(
    proposals: list[PersonProposal], nodes: list[JointNode]
) -> PersonJointGraph:
    """Connect proposals to the joint nodes their candidates ended up in.

    One edge per (proposal, node) pair with at least one member candidate
    from that proposal; the edge weight is the maximum response among those
    members. Proposals that contributed nothing stay in the graph as isolated
    person nodes and are dropped later by pose construction.

    Args:
        proposals: person boxes, unique proposal_ids.
        nodes: output of group_candidates.

    Returns:
        The bipartite graph over both input lists.

    Raises:
        IntegrityError: a member candidate names a proposal that is not in
            ``proposals`` (``PersonJointGraph`` refuses the edge).
    """
    edges = []
    for node in nodes:
        best: dict[int, float] = {}
        for member in node.members:
            prev = best.get(member.source_proposal)
            if prev is None or member.response > prev:
                best[member.source_proposal] = member.response
        for proposal_id in sorted(best):
            edges.append(
                Edge(
                    proposal=proposal_id,
                    node=node.node_id,
                    joint_type=node.joint_type,
                    weight=best[proposal_id],
                )
            )
    return PersonJointGraph(persons=list(proposals), nodes=list(nodes), edges=edges)


def degree_stats(graph: PersonJointGraph) -> dict[int, int]:
    """Histogram of joint-node in-degrees.

    Maps degree d to the number of joint nodes with exactly d incident
    edges; counts sum to the number of nodes. In practice the graph is
    sparse: a physical joint is rarely covered by more than four proposals.
    """
    degree = {n.node_id: 0 for n in graph.nodes}
    for edge in graph.edges:
        degree[edge.node] += 1
    hist: dict[int, int] = {}
    for d in degree.values():
        hist[d] = hist.get(d, 0) + 1
    return hist
