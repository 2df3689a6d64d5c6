import math
import random
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings
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


def reference_group_candidates(candidates, spec):
    """Plain-Python grouping: same_group on every same-type pair.

    Nodes are the connected components, ordered by joint type and then by
    earliest member, with node ids counting up from 0.
    """
    nodes = []
    for joint_type in sorted({c.joint_type for c in candidates}):
        indices = [i for i, c in enumerate(candidates) if c.joint_type == joint_type]
        label = {i: i for i in indices}
        for pos, a in enumerate(indices):
            for b in indices[pos + 1:]:
                if same_group(candidates[a], candidates[b], spec.delta[joint_type]):
                    old, new = max(label[a], label[b]), min(label[a], label[b])
                    for i in indices:
                        if label[i] == old:
                            label[i] = new
        for first in sorted(set(label.values())):
            members = tuple(candidates[i] for i in indices if label[i] == first)
            nodes.append(
                JointNode(joint_type=joint_type, members=members, node_id=len(nodes))
            )
    return nodes


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


# Coordinates where a gap or a bound overflows to inf (1e308, 1.7e308),
# underflows (5e-324, 1e-160) or lands exactly on a bound (small integers).
_EXTREME = [1e308, -1e308, 1.7e308, -1.7e308, 5e-324, -5e-324, 1e-160, -1e-160]
_COORDS = st.one_of(
    st.sampled_from(_EXTREME),
    st.integers(-6, 6).map(float),
    st.floats(-20, 20),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SIZES = st.one_of(
    st.sampled_from([5e-324, 1e-160, 0.5, 1.0, 2.0, 2.5, 5.0, 1e300, 1e308]),
    st.floats(0.1, 8),
)
_DELTAS = st.one_of(
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 1e-300, 1e300, 1e308]),
    st.floats(0.1, 3),
)
_CANDIDATES = st.lists(
    st.builds(cand, x=_COORDS, y=_COORDS, joint_type=st.integers(0, 2), u=_SIZES,
              proposal=st.integers(0, 3)),
    max_size=12,
)


@given(_CANDIDATES, st.lists(_DELTAS, min_size=14, max_size=14))
@example([], [1.0] * 14)
@example([cand(0, 0, u=5.0)], [1.0] * 14)
# 3-4-5 triangle, bound exactly 5
@example([cand(0, 0, u=5.0), cand(3, 4, u=5.0)], [1.0] * 14)
@example([cand(0, 0, u=2.5), cand(3, 4, u=2.5)], [2.0] * 14)
# a gap exactly on the bound along one axis
@example([cand(0, 0), cand(2, 0), cand(0, -2, joint_type=1), cand(0, 0, joint_type=1)],
         [1.0] * 14)
# bound overflows to inf: every pair relates, even across 3.4e308
@example([cand(1.7e308, 0, u=1e300), cand(-1.7e308, 5e-324, u=1e308)], [1e308] * 14)
@example([cand(1e308, 0), cand(-1e308, 0), cand(1e308, 0)], [1.0] * 14)
# the middle candidate's small size must not end the scan from the first,
# which relates to the third
@example([cand(0, 0, u=5.0), cand(1, 10, u=0.5), cand(4, 0, u=5.0)], [1.0] * 14)
# sort ties: a column at x = 0, 2 px apart, listed out of y order; the
# candidate at x = 6 listed among them ends an unsorted scan too early
@example([cand(0, 0), cand(0, 4), cand(6, 0), cand(0, 2), cand(0, 6)], [1.0] * 14)
@settings(max_examples=400, deadline=None)
def test_group_equals_all_pairs_reference(candidates, deltas):
    spec = JointSpec(delta=tuple(deltas))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nodes = group_candidates(candidates, spec)
    assert nodes == reference_group_candidates(candidates, spec)


def test_integer_locations_group_as_floats():
    # same_group once subtracted these integers exactly (gap 2, related),
    # while a numpy pre-filter saw the rounded floats (gap 4) and split them.
    a, b = (
        CandidateJoint(location=(2**53 + k, 0), response=0.5, joint_type=0,
                       source_proposal=0, response_size=2.0)
        for k in (3, 1)
    )
    assert a.location == (2.0**53 + 4, 0.0) and type(a.location[1]) is float
    spec = uniform_spec(1.5)
    assert not same_group(a, b, 1.5)
    assert group_candidates([a, b], spec) == reference_group_candidates([a, b], spec)


def test_group_memory_stays_linear():
    # 4,000 pairs 1 px apart on a grid of 10 px spacing: each pair is one
    # node. A full 8,000 x 8,000 float matrix would take 512 MB.
    candidates = [
        cand(10 * (i % 80) + dx, 10 * (i // 80)) for i in range(4000) for dx in (0, 1)
    ]
    tracemalloc.start()
    try:
        nodes = group_candidates(candidates, uniform_spec())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(nodes) == 4000
    assert all(len(n.members) == 2 for n in nodes)
    assert peak < 32 * 2**20


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


@pytest.mark.parametrize("joint_type", [14, -1])
def test_candidate_joint_type_must_be_in_range(joint_type):
    # 14 once passed the constructor and failed only in group_candidates.
    expected = f"^joint_type {joint_type} out of range for 14 joints$"
    with pytest.raises(ValueError, match=expected):
        cand(0, 0, joint_type=joint_type)


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
