import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posegraph.grouping import (
    CandidateJoint,
    JointNode,
    group_candidates,
    same_group,
    weighted_center,
)
from posegraph.joints import JointSpec


def cand(x, y, response=0.5, joint_type=0, proposal=0, u=2.0):
    return CandidateJoint(
        location=(float(x), float(y)),
        response=response,
        joint_type=joint_type,
        source_proposal=proposal,
        response_size=u,
    )


def uniform_spec(delta=1.0):
    return JointSpec(delta=(delta,) * 14)


def test_same_group_within_control_domain():
    assert same_group(cand(10, 10), cand(11, 10), 1.0)


def test_same_group_zero_distance_any_scale():
    assert same_group(cand(10, 10, u=0.001), cand(10, 10, u=5.0), 0.01)


def test_same_group_min_size_rule_dominates():
    # distance 6 exceeds min(2, 8) * 1.0
    assert not same_group(cand(10, 10, u=2.0), cand(16, 10, u=8.0), 1.0)


def test_same_group_boundary_is_inclusive():
    assert same_group(cand(0, 0, u=2.0), cand(2, 0, u=2.0), 1.0)
    assert not same_group(cand(0, 0, u=2.0), cand(2.0000001, 0, u=2.0), 1.0)


def test_same_group_rejects_type_mismatch():
    with pytest.raises(ValueError):
        same_group(cand(0, 0, joint_type=0), cand(0, 0, joint_type=1), 1.0)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(delta):
    # A NaN tolerance once passed both checks, and then two coincident
    # candidates formed two nodes instead of one.
    with pytest.raises(ValueError, match="positive and finite"):
        same_group(cand(0, 0), cand(0, 0), delta)
    with pytest.raises(ValueError, match="positive and finite"):
        uniform_spec(delta)


@pytest.mark.parametrize(
    "field,value",
    [
        ("location", (math.nan, 0.0)),
        ("location", (0.0, -math.inf)),
        ("response", math.inf),
        ("response", math.nan),
        ("response_size", math.inf),
        ("response_size", math.nan),
    ],
)
def test_candidate_rejects_non_finite_numbers(field, value):
    fields = dict(location=(0.0, 0.0), response=0.5, joint_type=0,
                  source_proposal=0, response_size=2.0)
    with pytest.raises(ValueError, match=field):
        CandidateJoint(**{**fields, field: value})


@given(
    st.floats(0, 50, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
    st.floats(0.1, 8, allow_nan=False),
    st.floats(0.1, 8, allow_nan=False),
    st.floats(0.1, 3, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_same_group_is_symmetric(ax, ay, bx, by, ua, ub, delta):
    a = cand(ax, ay, u=ua)
    b = cand(bx, by, u=ub)
    assert same_group(a, b, delta) == same_group(b, a, delta)


def test_group_empty_input():
    assert group_candidates([], uniform_spec()) == []


def test_group_coincident_candidates_share_a_node():
    # the duplicated-knee case: overlapping proposals fire on the same joint
    knee = 8
    a = cand(100, 200, joint_type=knee, proposal=1)
    b = cand(100, 200, joint_type=knee, proposal=2)
    nodes = group_candidates([a, b], uniform_spec())
    assert len(nodes) == 1
    assert set(nodes[0].members) == {a, b}
    assert nodes[0].joint_type == knee


def test_group_chain_closure_links_beyond_pair_range():
    # adjacent pairs relate (3 <= min(2,2)*1.5), the endpoints do not
    # (6 > 3), yet transitive closure puts all three in one node
    chain = [cand(0, 0), cand(3, 0), cand(6, 0)]
    assert not same_group(chain[0], chain[2], 1.5)
    nodes = group_candidates(chain, uniform_spec(1.5))
    assert len(nodes) == 1
    assert len(nodes[0].members) == 3


def test_group_chain_splits_when_radius_too_small():
    # at delta 1.0 the same chain has no related pair at all (3 > 2)
    chain = [cand(0, 0), cand(3, 0), cand(6, 0)]
    nodes = group_candidates(chain, uniform_spec(1.0))
    assert len(nodes) == 3
    assert all(len(n.members) == 1 for n in nodes)


def test_group_separates_joint_types():
    a = cand(10, 10, joint_type=0)
    b = cand(10, 10, joint_type=1)
    nodes = group_candidates([a, b], uniform_spec())
    assert len(nodes) == 2
    assert [n.joint_type for n in nodes] == [0, 1]


def test_group_is_a_partition():
    candidates = [cand(i * 1.5, 0.0, joint_type=i % 3, proposal=i) for i in range(12)]
    nodes = group_candidates(candidates, uniform_spec())
    seen = [m for n in nodes for m in n.members]
    assert len(seen) == len(candidates)
    assert set(seen) == set(candidates)
    assert all(n.members for n in nodes)


def test_group_node_ids_are_sequential_and_type_ordered():
    candidates = [
        cand(50, 50, joint_type=2),
        cand(10, 10, joint_type=0),
        cand(90, 90, joint_type=0),
    ]
    nodes = group_candidates(candidates, uniform_spec())
    assert [n.node_id for n in nodes] == [0, 1, 2]
    assert [n.joint_type for n in nodes] == [0, 0, 2]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_group_partition_is_order_invariant(seed):
    rng = random.Random(seed)
    candidates = [
        cand(rng.uniform(0, 40), rng.uniform(0, 40), joint_type=rng.randrange(2),
             proposal=rng.randrange(4))
        for _ in range(15)
    ]
    reference = {
        frozenset(n.members) for n in group_candidates(candidates, uniform_spec())
    }
    shuffled = candidates[:]
    rng.shuffle(shuffled)
    again = {
        frozenset(n.members) for n in group_candidates(shuffled, uniform_spec())
    }
    assert reference == again


def test_joint_node_rejects_empty_or_mixed_members():
    with pytest.raises(ValueError):
        JointNode(joint_type=0, members=(), node_id=0)
    with pytest.raises(ValueError):
        JointNode(
            joint_type=0,
            members=(cand(0, 0, joint_type=0), cand(0, 0, joint_type=1)),
            node_id=0,
        )


def test_weighted_center_single_member_identity():
    node = JointNode(joint_type=0, members=(cand(12, 8, response=0.9),), node_id=0)
    assert weighted_center(node) == ((12.0, 8.0), 0.9)


def test_weighted_center_equal_weights_midpoint():
    node = JointNode(
        joint_type=0,
        members=(cand(0, 0, response=0.5), cand(10, 0, response=0.5)),
        node_id=0,
    )
    assert weighted_center(node) == ((5.0, 0.0), 0.5)


def test_weighted_center_hand_value_and_max_score():
    node = JointNode(
        joint_type=0,
        members=(cand(0, 0, response=0.9), cand(10, 0, response=0.1)),
        node_id=0,
    )
    (x, y), score = weighted_center(node)
    assert (x, y) == (1.0, 0.0)
    assert score == 0.9


def test_weighted_center_coincident_members_exact():
    node = JointNode(
        joint_type=0,
        members=(
            cand(123.456, 78.9, response=0.9371),
            cand(123.456, 78.9, response=0.4622),
            cand(123.456, 78.9, response=0.111),
        ),
        node_id=0,
    )
    (x, y), _ = weighted_center(node)
    assert (x, y) == (123.456, 78.9)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_weighted_center_stays_inside_member_bbox(seed, count):
    rng = random.Random(seed)
    members = tuple(
        cand(rng.uniform(0, 100), rng.uniform(0, 100), response=rng.uniform(0.01, 1))
        for _ in range(count)
    )
    node = JointNode(joint_type=0, members=members, node_id=0)
    (x, y), score = weighted_center(node)
    xs = [m.location[0] for m in members]
    ys = [m.location[1] for m in members]
    assert min(xs) <= x <= max(xs)
    assert min(ys) <= y <= max(ys)
    assert score == max(m.response for m in members)


def test_candidate_validation():
    with pytest.raises(ValueError):
        cand(0, 0, response=0.0)
    with pytest.raises(ValueError):
        cand(0, 0, u=0.0)
    with pytest.raises(ValueError):
        CandidateJoint(
            location=(0.0, 0.0),
            response=0.5,
            joint_type=-1,
            source_proposal=0,
            response_size=1.0,
        )
