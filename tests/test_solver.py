import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posegraph
from posegraph.errors import SizeLimitError
from posegraph.graph import Edge, PersonJointGraph, PersonProposal, build_graph
from posegraph.grouping import CandidateJoint, JointNode
from posegraph.solver import (
    Assignment,
    Matching,
    Pose,
    brute_force_oracle,
    build_poses,
    greedy_baseline,
    greedy_select,
    greedy_total_weight,
    pose_dedup_baseline,
    solve_graph,
    solve_subgraph,
)

TWO_BY_TWO = {(0, 0): 0.9, (0, 1): 0.6, (1, 0): 0.8}


def make_graph(edge_triples, n_proposals, node_types):
    proposals = [
        PersonProposal(proposal_id=i, bbox=(i * 60.0, 0.0, 50.0, 100.0))
        for i in range(n_proposals)
    ]
    nodes = [
        JointNode(
            joint_type=k,
            members=(
                CandidateJoint(
                    location=(float(j), float(k)),
                    response=0.5,
                    joint_type=k,
                    source_proposal=0,
                    response_size=2.0,
                ),
            ),
            node_id=j,
        )
        for j, k in enumerate(node_types)
    ]
    edges = [
        Edge(proposal=i, node=j, joint_type=node_types[j], weight=w)
        for i, j, w in edge_triples
    ]
    return PersonJointGraph(persons=proposals, nodes=nodes, edges=edges)


def test_pairing_beats_single_strong_edge():
    # taking 0.9 alone blocks the 0.6 + 0.8 pairing
    matching = solve_subgraph(TWO_BY_TWO)
    assert matching.pairs == ((0, 1), (1, 0))
    assert matching.total_weight == math.fsum([0.6, 0.8])
    assert matching.total_weight == pytest.approx(1.4)


def test_single_entry_instance():
    matching = solve_subgraph({(0, 0): 0.7})
    assert matching.pairs == ((0, 0),)
    assert matching.total_weight == 0.7


def test_empty_instance():
    assert solve_subgraph({}) == Matching(pairs=(), total_weight=0.0)


def test_zero_weights_are_dropped():
    matching = solve_subgraph({(0, 0): 0.0, (1, 1): 0.0})
    assert matching.pairs == ()
    assert matching.total_weight == 0.0


def test_negative_weight_is_rejected():
    with pytest.raises(ValueError):
        solve_subgraph({(0, 0): -0.1})
    with pytest.raises(ValueError):
        brute_force_oracle({(0, 0): -0.1})


def test_non_finite_weight_is_rejected():
    # solve_subgraph on inf is checked in a child process below: it used to hang.
    cases = [
        (solve_subgraph, math.nan),
        (brute_force_oracle, math.nan),
        (brute_force_oracle, math.inf),
    ]
    for solve, bad in cases:
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            solve({(0, 0): bad, (1, 0): 1.0})


def test_infinite_weight_cannot_hang_the_solver():
    # An unchecked inf weight made the augmenting-path search loop forever;
    # the child process turns a regression into a timeout, not a stuck suite.
    code = (
        "from posegraph.solver import solve_subgraph\n"
        "solve_subgraph({(0, 0): float('inf'), (1, 0): 1.0})\n"
    )
    src_dir = str(Path(posegraph.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])
    )}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert child.returncode == 1
    assert "ValueError: negative or non-finite weight inf at (0, 0)" in child.stderr


def test_tie_break_prefers_lexicographically_smallest():
    matching = solve_subgraph(
        {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5}
    )
    assert matching.pairs == ((0, 0), (1, 1))


def test_tie_break_is_exact_for_non_dyadic_weights():
    # Both selections weigh {0.7, 0.1}. In float arithmetic a reduced cost
    # that is exactly 0 comes out near -1.1e-16, which must not outweigh the
    # tie-break and pick ((0, 1), (2, 0)).
    weights = {(0, 1): 0.7, (1, 0): 0.1, (1, 1): 0.7, (2, 0): 0.1}
    assert solve_subgraph(weights).pairs == ((0, 1), (1, 0))
    assert brute_force_oracle(weights).pairs == ((0, 1), (1, 0))


def test_solver_matches_oracle_on_non_dyadic_weights():
    # Decimal weights are inexact in binary, so float sums of different
    # selections can tie or swap order; both sides must compare exact sums.
    rng = random.Random(2024)
    values = (0.1, 0.2, 0.3, 0.5, 0.7, 1.0)
    for trial in range(3000):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        weights = {
            (i, j): rng.choice(values) if trial % 4 else round(rng.random(), 6)
            for i in range(n_rows)
            for j in range(n_cols)
            if rng.random() < 0.6
        }
        fast = solve_subgraph(weights)
        slow = brute_force_oracle(weights)
        assert fast.pairs == slow.pairs, weights
        assert fast.total_weight == slow.total_weight


def test_row_and_column_ids_need_not_be_contiguous():
    matching = solve_subgraph({(5, 100): 0.9, (7, 100): 0.8, (5, 3): 0.6})
    assert matching.pairs == ((5, 3), (7, 100))
    assert matching.total_weight == math.fsum([0.6, 0.8])


def test_oracle_size_guard():
    weights = {(i, 0): 0.5 for i in range(9)}
    with pytest.raises(SizeLimitError):
        brute_force_oracle(weights)
    wide = {(0, j): 0.5 for j in range(9)}
    with pytest.raises(SizeLimitError):
        brute_force_oracle(wide)


def _dyadic_instance(seed):
    # dyadic weights make every sum exact, so solver and oracle totals must
    # agree bitwise, not just within tolerance
    rng = random.Random(seed)
    n_rows = rng.randint(1, 6)
    n_cols = rng.randint(1, 6)
    weights = {}
    for i in range(n_rows):
        for j in range(n_cols):
            if rng.random() < 0.55:
                weights[(i, j)] = (rng.getrandbits(20) + 1) / 2**20
    return weights


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_solver_matches_exhaustive_oracle(seed):
    weights = _dyadic_instance(seed)
    fast = solve_subgraph(weights)
    slow = brute_force_oracle(weights)
    assert fast.pairs == slow.pairs
    assert fast.total_weight == slow.total_weight


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_matching_is_feasible(seed):
    weights = _dyadic_instance(seed)
    matching = solve_subgraph(weights)
    rows = [i for i, _ in matching.pairs]
    cols = [j for _, j in matching.pairs]
    assert len(rows) == len(set(rows))
    assert len(cols) == len(set(cols))
    assert all(pair in weights for pair in matching.pairs)
    assert matching.pairs == tuple(sorted(matching.pairs))


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 2.0, 8.0]))
@settings(max_examples=100, deadline=None)
def test_selected_set_is_scale_invariant(seed, scale):
    # powers of two keep the scaling exact in floating point
    weights = _dyadic_instance(seed)
    scaled = {pair: w * scale for pair, w in weights.items()}
    assert solve_subgraph(weights).pairs == solve_subgraph(scaled).pairs


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_solver_matches_oracle_on_tie_heavy_instances(n_rows, n_cols, density, seed):
    # Four weight levels make exact ties common, so consecutive searches
    # revisit the same columns with equal path lengths: a distance or done
    # flag left over from an earlier search changes the answer.
    rng = random.Random(seed)
    weights = {
        (i, j): rng.choice((0.25, 0.5, 0.75, 1.0))
        for i in range(n_rows)
        for j in range(n_cols)
        if rng.random() < density
    }
    fast = solve_subgraph(weights)
    slow = brute_force_oracle(weights)
    assert fast.pairs == slow.pairs, weights
    assert fast.total_weight == slow.total_weight


@pytest.mark.parametrize("seed", range(8))
def test_block_diagonal_instance_equals_oracle_per_block(seed):
    # 10-20 independent blocks of at most 8x8 with interleaved ids, so one
    # solve runs many searches over shared state, far past the oracle's
    # limit; the optimum is the union of the per-block optima.
    rng = random.Random(seed)
    n_blocks = rng.randint(10, 20)
    weights = {}
    blocks = []
    for b in range(n_blocks):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.uniform(0.2, 0.7)
        block = {
            (b + n_blocks * i, b + n_blocks * j): rng.choice((0.25, 0.5, 0.75, 1.0))
            for i in range(n_rows)
            for j in range(n_cols)
            if rng.random() < density
        }
        blocks.append(block)
        weights.update(block)
    expected = sorted(pair for block in blocks for pair in brute_force_oracle(block).pairs)
    matching = solve_subgraph(weights)
    assert matching.pairs == tuple(expected)
    assert matching.total_weight == math.fsum(weights[p] for p in expected)


def test_graph_solution_combines_joint_types():
    graph = make_graph(
        [(0, 0, 0.9), (0, 1, 0.6), (1, 0, 0.8), (0, 2, 0.7)],
        n_proposals=2,
        node_types=[0, 0, 1],
    )
    assignment = solve_graph(graph)
    assert assignment.selected == {(0, 0, 1), (0, 1, 0), (1, 0, 2)}
    assert assignment.total_weight == math.fsum([0.6, 0.8, 0.7])
    assert assignment.total_weight == pytest.approx(2.1)


def test_empty_graph_solution():
    graph = PersonJointGraph(persons=[], nodes=[], edges=[])
    assignment = solve_graph(graph)
    assert assignment.selected == frozenset()
    assert assignment.total_weight == 0.0


def test_greedy_duplicates_joint_and_loses_weight():
    graph = make_graph(
        [(0, 0, 0.9), (0, 1, 0.6), (1, 0, 0.8)],
        n_proposals=2,
        node_types=[0, 0],
    )
    picks = greedy_select(graph)
    # both proposals grab node 0; node 1 is never used
    assert picks == [(0, 0, 0), (0, 1, 0)]
    assert greedy_total_weight(graph) == 0.9
    assert solve_graph(graph).total_weight > greedy_total_weight(graph)


def _random_graph(seed):
    rng = random.Random(seed)
    n_proposals = rng.randint(1, 5)
    node_types = [rng.randrange(3) for _ in range(rng.randint(1, 10))]
    triples = []
    for i in range(n_proposals):
        for j in range(len(node_types)):
            if rng.random() < 0.4:
                triples.append((i, j, (rng.getrandbits(20) + 1) / 2**20))
    return make_graph(triples, n_proposals, node_types)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_global_total_never_below_greedy_total(seed):
    graph = _random_graph(seed)
    assert solve_graph(graph).total_weight >= greedy_total_weight(graph)


def test_assignment_validation_rejects_conflicts():
    with pytest.raises(ValueError):
        Assignment(selected=frozenset({(0, 0, 0), (0, 0, 1)}), total_weight=1.0)
    with pytest.raises(ValueError):
        Assignment(selected=frozenset({(0, 0, 5), (1, 1, 5)}), total_weight=1.0)


def test_pose_needs_a_keypoint():
    with pytest.raises(ValueError):
        Pose(proposal_id=0, keypoints=(None,) * 14, pose_score=0.0)


def _pipeline_graph():
    proposals = [
        PersonProposal(proposal_id=0, bbox=(0.0, 0.0, 50.0, 100.0)),
        PersonProposal(proposal_id=1, bbox=(200.0, 0.0, 50.0, 100.0)),
    ]
    nodes = [
        JointNode(
            joint_type=0,
            members=(
                CandidateJoint(location=(10.0, 20.0), response=0.9, joint_type=0,
                               source_proposal=0, response_size=2.0),
            ),
            node_id=0,
        ),
        JointNode(
            joint_type=1,
            members=(
                CandidateJoint(location=(12.0, 40.0), response=0.5, joint_type=1,
                               source_proposal=0, response_size=2.0),
            ),
            node_id=1,
        ),
    ]
    return build_graph(proposals, nodes)


def test_build_poses_places_centers_and_averages_scores():
    graph = _pipeline_graph()
    poses = build_poses(solve_graph(graph), graph)
    assert len(poses) == 1  # proposal 1 had no joints and is dropped
    pose = poses[0]
    assert pose.proposal_id == 0
    assert pose.keypoints[0] == ((10.0, 20.0), 0.9)
    assert pose.keypoints[1] == ((12.0, 40.0), 0.5)
    assert all(slot is None for slot in pose.keypoints[2:])
    assert pose.pose_score == pytest.approx(0.7)


def test_greedy_baseline_builds_same_shape_poses():
    graph = _pipeline_graph()
    poses = greedy_baseline(graph)
    assert [p.proposal_id for p in poses] == [0]
    assert poses[0].pose_score == pytest.approx(0.7)


def _pose_at(x, y, pid, score):
    keypoints = [None] * 14
    for k in range(14):
        keypoints[k] = ((x + 3.0 * k, y + 2.0 * k), score)
    return Pose(proposal_id=pid, keypoints=tuple(keypoints), pose_score=score)


def test_pose_dedup_drops_coincident_pose():
    a = _pose_at(10.0, 10.0, 0, 0.9)
    b = _pose_at(10.0, 10.0, 1, 0.8)
    assert pose_dedup_baseline([a, b]) == [a]


def test_pose_dedup_keeps_distinct_poses():
    a = _pose_at(10.0, 10.0, 0, 0.9)
    b = _pose_at(500.0, 300.0, 1, 0.8)
    assert pose_dedup_baseline([a, b]) == [a, b]


def test_pose_dedup_threshold_range():
    with pytest.raises(ValueError):
        pose_dedup_baseline([], oks_threshold=1.0)
