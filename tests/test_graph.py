import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posegraph.errors import IntegrityError
from posegraph.graph import (
    Edge,
    PersonJointGraph,
    PersonProposal,
    build_graph,
    degree_stats,
)
from posegraph.grouping import CandidateJoint, JointNode
from posegraph.metrics import GroundTruthPerson


def cand(proposal, response, joint_type=0, x=10.0, y=10.0):
    return CandidateJoint(
        location=(x, y),
        response=response,
        joint_type=joint_type,
        source_proposal=proposal,
        response_size=2.0,
    )


def proposal(pid, x=0.0):
    return PersonProposal(proposal_id=pid, bbox=(x, 0.0, 50.0, 100.0))


def node(members, node_id=0):
    return JointNode(joint_type=members[0].joint_type, members=tuple(members),
                     node_id=node_id)


def test_single_candidate_single_edge():
    graph = build_graph([proposal(0)], [node([cand(0, 0.8)])])
    assert graph.edges == [Edge(proposal=0, node=0, joint_type=0, weight=0.8)]


def test_edge_weight_is_max_member_response():
    # one proposal dropped two candidates into the node; the stronger wins
    members = [cand(3, 0.6), cand(3, 0.9)]
    graph = build_graph([proposal(3)], [node(members)])
    assert len(graph.edges) == 1
    assert graph.edges[0].weight == 0.9


def test_shared_node_fans_out_per_proposal():
    members = [cand(0, 0.7), cand(1, 0.4)]
    graph = build_graph([proposal(0), proposal(1)], [node(members)])
    weights = {(e.proposal, e.node): e.weight for e in graph.edges}
    assert weights == {(0, 0): 0.7, (1, 0): 0.4}


def test_isolated_proposal_is_kept():
    graph = build_graph([proposal(0), proposal(7)], [node([cand(0, 0.5)])])
    assert {p.proposal_id for p in graph.persons} == {0, 7}
    assert {e.proposal for e in graph.edges} == {0}


def test_unknown_source_proposal_is_rejected():
    with pytest.raises(IntegrityError) as err:
        build_graph([proposal(0)], [node([cand(99, 0.5)])])
    assert "99" in str(err.value)


def test_duplicate_edge_pair_is_rejected():
    edges = [
        Edge(proposal=0, node=0, joint_type=0, weight=0.5),
        Edge(proposal=0, node=0, joint_type=0, weight=0.6),
    ]
    with pytest.raises(IntegrityError):
        PersonJointGraph(persons=[proposal(0)], nodes=[node([cand(0, 0.5)])],
                         edges=edges)


def test_edge_type_must_match_node_type():
    bad = Edge(proposal=0, node=0, joint_type=5, weight=0.5)
    with pytest.raises(IntegrityError):
        PersonJointGraph(persons=[proposal(0)], nodes=[node([cand(0, 0.5)])],
                         edges=[bad])


def test_nonpositive_edge_weight_is_rejected():
    with pytest.raises(ValueError):
        Edge(proposal=0, node=0, joint_type=0, weight=0.0)


@pytest.mark.parametrize("weight", [math.nan, math.inf])
def test_non_finite_edge_weight_is_rejected(weight):
    with pytest.raises(ValueError, match="finite"):
        Edge(proposal=0, node=0, joint_type=0, weight=weight)


@pytest.mark.parametrize(
    "bbox",
    [(math.nan, 0.0, 1.0, 1.0), (0.0, -math.inf, 1.0, 1.0),
     (0.0, 0.0, math.inf, 1.0), (0.0, 0.0, 1.0, math.nan)],
)
def test_proposal_rejects_non_finite_bbox(bbox):
    with pytest.raises(ValueError, match="finite"):
        PersonProposal(proposal_id=0, bbox=bbox)


@pytest.mark.parametrize("size", [1e-200, 1e200])
@pytest.mark.parametrize(
    "make",
    [lambda bbox: PersonProposal(proposal_id=0, bbox=bbox),
     lambda bbox: GroundTruthPerson(person_id=0, keypoints=(None,) * 14, bbox=bbox)],
    ids=["proposal", "ground-truth"],
)
def test_box_area_must_be_positive_and_finite(make, size):
    # Each side is positive and finite, but the area underflows to 0 or
    # overflows to inf; bbox_iou then divided by zero or returned nan.
    with pytest.raises(ValueError, match="bbox must be finite with positive area"):
        make((0.0, 0.0, size, size))


def test_degree_stats_counts_incident_edges():
    shared = node([cand(0, 0.7), cand(1, 0.4)], node_id=0)
    solo = node([cand(0, 0.9, joint_type=1)], node_id=1)
    graph = build_graph([proposal(0), proposal(1)], [shared, solo])
    assert degree_stats(graph) == {1: 1, 2: 1}


def test_degree_stats_empty_graph():
    assert degree_stats(PersonJointGraph(persons=[], nodes=[], edges=[])) == {}


def _random_graph(seed):
    rng = random.Random(seed)
    proposals = [proposal(i, x=i * 10.0) for i in range(rng.randint(1, 5))]
    nodes = []
    for node_id in range(rng.randint(1, 8)):
        members = tuple(
            cand(
                rng.choice(proposals).proposal_id,
                rng.uniform(0.05, 1.0),
                joint_type=node_id % 3,
                x=rng.uniform(0, 100),
            )
            for _ in range(rng.randint(1, 4))
        )
        nodes.append(JointNode(joint_type=node_id % 3, members=members,
                               node_id=node_id))
    return proposals, nodes


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_edges_partition_by_joint_type(seed):
    proposals, nodes = _random_graph(seed)
    graph = build_graph(proposals, nodes)
    assert sum(degree_stats(graph).values()) == len(graph.nodes)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_build_is_input_order_invariant(seed):
    proposals, nodes = _random_graph(seed)
    reference = build_graph(proposals, nodes)
    rng = random.Random(seed + 1)
    shuffled_proposals = proposals[:]
    rng.shuffle(shuffled_proposals)
    again = build_graph(shuffled_proposals, nodes)
    key = lambda e: (e.joint_type, e.proposal, e.node)
    assert sorted(reference.edges, key=key) == sorted(again.edges, key=key)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_edge_weight_never_exceeds_member_responses(seed):
    proposals, nodes = _random_graph(seed)
    graph = build_graph(proposals, nodes)
    by_node = {n.node_id: n for n in nodes}
    for edge in graph.edges:
        members = [
            m for m in by_node[edge.node].members
            if m.source_proposal == edge.proposal
        ]
        assert members
        assert edge.weight == max(m.response for m in members)
