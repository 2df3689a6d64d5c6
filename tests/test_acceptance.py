"""Release gate: ten end-to-end checks over the whole pipeline.

Each test covers one numbered criterion and prints a single PASS/FAIL
summary line with the measured quantities (visible with pytest -s or in the
captured output on failure). Tolerances are pinned here and nowhere else;
loosening them is a behavior change, not a test fix.
"""

import math
import random
import statistics
import time

import numpy as np

from posegraph.cli import main
from posegraph.graph import Edge, PersonJointGraph, PersonProposal, build_graph
from posegraph.grouping import (
    CandidateJoint,
    JointNode,
    group_candidates,
    same_group,
    weighted_center,
)
from posegraph.heatmaps import compose_training_target, jc_loss, render_gaussian
from posegraph.joints import JOINT_COUNT, JointSpec
from posegraph.metrics import (
    CrowdingLevel,
    GroundTruthPerson,
    SceneAnnotation,
    compute_oks,
    crowd_index,
    crowding_level,
    evaluate,
)
from posegraph.simulator import SceneSpec, association_accuracy, simulate_scene
from posegraph.solver import (
    Pose,
    build_poses,
    greedy_select,
    greedy_total_weight,
    solve_graph,
    solve_subgraph,
)

from oracle import brute_force_oracle


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def _dyadic(rng: random.Random) -> float:
    # weights of the form k / 2^20 keep all solver arithmetic exact, so
    # "equal" below means bitwise equal, not within tolerance
    return (rng.getrandbits(20) + 1) / 2**20


def test_criterion_01_solver_equals_exhaustive_oracle():
    rng = random.Random(1001)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.3, 0.55, 0.9))
        weights = {
            (i, j): _dyadic(rng)
            for i in range(m)
            for j in range(n)
            if rng.random() < density
        }
        fast = solve_subgraph(weights)
        slow = brute_force_oracle(weights)
        if fast.pairs != slow.pairs or fast.total_weight != slow.total_weight:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "solver equals exhaustive oracle",
        mismatches == 0 and elapsed < 10.0,
        f"{1000 - mismatches}/1000 bitwise equal, {elapsed:.1f}s",
    )


def _random_multi_type_graph(rng: random.Random) -> PersonJointGraph:
    n_proposals = rng.randint(1, 6)
    proposals = [
        PersonProposal(proposal_id=i, bbox=(60.0 * i, 0.0, 50.0, 100.0))
        for i in range(n_proposals)
    ]
    node_types = []
    for joint_type in range(rng.randint(1, 4)):
        node_types.extend([joint_type] * rng.randint(1, 6))
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
        Edge(proposal=i, node=j, joint_type=node_types[j], weight=_dyadic(rng))
        for i in range(n_proposals)
        for j in range(len(node_types))
        if rng.random() < 0.45
    ]
    return PersonJointGraph(persons=proposals, nodes=nodes, edges=edges)


def test_criterion_02_per_type_decomposition_is_exact():
    rng = random.Random(2002)
    failures = 0
    for _ in range(200):
        graph = _random_multi_type_graph(rng)
        expected_selected = set()
        subtotals = []
        for joint_type in graph.joint_types():
            weights = {
                (e.proposal, e.node): e.weight
                for e in graph.edges
                if e.joint_type == joint_type
            }
            matching = solve_subgraph(weights)
            subtotals.append(matching.total_weight)
            expected_selected |= {(joint_type, i, j) for i, j in matching.pairs}
        assignment = solve_graph(graph)
        if (
            assignment.selected != expected_selected
            or assignment.total_weight != math.fsum(subtotals)
        ):
            failures += 1
    _report(
        2,
        "joint-type decomposition",
        failures == 0,
        f"{200 - failures}/200 graphs bitwise equal to per-type optima",
    )


def _accuracy_counts(selected, nodes, sources) -> tuple[int, int]:
    triples = sorted(selected)
    if not triples:
        return 0, 0
    accuracy = association_accuracy(triples, nodes, sources)
    total = len(triples)
    return int(round(accuracy * total)), total


def test_criterion_03_global_beats_greedy_on_crowded_scenes():
    start = time.perf_counter()
    weight_violations = 0
    counts = {
        level: {"global": [0, 0], "greedy": [0, 0]} for level in CrowdingLevel
    }
    for seed in range(200):
        target = round(0.3 + 0.7 * (seed % 8) / 7, 4)
        scene = simulate_scene(SceneSpec(target_crowd_index=target, seed=seed))
        nodes = group_candidates(list(scene.candidates), JointSpec())
        graph = build_graph(list(scene.proposals), nodes)
        assignment = solve_graph(graph)
        if assignment.total_weight < greedy_total_weight(graph):
            weight_violations += 1
        band = crowding_level(scene.achieved_crowd_index)
        for method, selected in (
            ("global", assignment.selected),
            ("greedy", greedy_select(graph)),
        ):
            correct, total = _accuracy_counts(
                selected, nodes, scene.proposal_sources
            )
            counts[band][method][0] += correct
            counts[band][method][1] += total
    elapsed = time.perf_counter() - start

    def pooled(band, method):
        correct, total = counts[band][method]
        return correct / total if total else 0.0

    hard_gap = pooled(CrowdingLevel.HARD, "global") - pooled(
        CrowdingLevel.HARD, "greedy"
    )
    medium_gap = pooled(CrowdingLevel.MEDIUM, "global") - pooled(
        CrowdingLevel.MEDIUM, "greedy"
    )
    _report(
        3,
        "global association dominates greedy",
        weight_violations == 0 and hard_gap >= 0.05 and elapsed < 60.0,
        f"weight violations {weight_violations}/200, hard accuracy gap "
        f"{hard_gap * 100:+.1f}pp, medium {medium_gap * 100:+.1f}pp, "
        f"{elapsed:.1f}s",
    )


def test_criterion_04_clean_scenes_evaluate_perfectly():
    annotations = []
    predictions = {}
    for seed in range(20):
        spec = SceneSpec(
            target_crowd_index=0.0,
            sigma_noise=0.0,
            fp_rate=0.0,
            missing_rate=0.0,
            seed=seed,
        )
        scene = simulate_scene(spec)
        nodes = group_candidates(list(scene.candidates), JointSpec())
        graph = build_graph(list(scene.proposals), nodes)
        poses = build_poses(solve_graph(graph), graph)
        annotations.append(scene.annotation)
        predictions[scene.annotation.image_id] = poses
    report = evaluate(predictions, annotations)
    deviation = abs(report.map_50_95 - 1.0)
    _report(
        4,
        "clean scenes reconstruct exactly",
        deviation <= 1e-9,
        f"mAP deviation {deviation:.2e} over 20 scenes",
    )


def test_criterion_05_composite_supervision_oracle():
    mu = 0.5
    comp = compose_training_target(
        [(20.0, 20.0)], [(50.0, 50.0)], mu=mu, sigma=2.0, width=64, height=80
    )
    pred = type(comp.target)(comp.composite_values())
    zero_loss = jc_loss([pred], [comp])

    plain = compose_training_target([(20.0, 20.0)], [(50.0, 50.0)], mu=0.0)
    mu_zero_matches = np.array_equal(
        plain.composite_values(), plain.target.values
    )

    interference_peak = comp.composite_values()[50, 50]
    peak_error = abs(interference_peak - mu)
    _report(
        5,
        "composite loss oracle",
        zero_loss == 0.0 and mu_zero_matches and peak_error <= 1e-9,
        f"zero-loss {zero_loss}, mu=0 pointwise {mu_zero_matches}, "
        f"interference peak error {peak_error:.2e}",
    )


def test_criterion_06_grouping_properties_hold():
    rng = random.Random(6006)

    def cand(x, y, u=2.0, joint_type=0, proposal=0):
        return CandidateJoint(
            location=(x, y),
            response=0.5,
            joint_type=joint_type,
            source_proposal=proposal,
            response_size=u,
        )

    asymmetries = 0
    for _ in range(10_000):
        a = cand(rng.uniform(0, 50), rng.uniform(0, 50), u=rng.uniform(0.1, 8))
        b = cand(rng.uniform(0, 50), rng.uniform(0, 50), u=rng.uniform(0.1, 8))
        delta = rng.uniform(0.1, 3.0)
        if same_group(a, b, delta) != same_group(b, a, delta):
            asymmetries += 1

    unstable = 0
    spec = JointSpec(delta=(1.0,) * JOINT_COUNT)
    for trial in range(100):
        candidates = [
            cand(
                rng.uniform(0, 40),
                rng.uniform(0, 40),
                joint_type=rng.randrange(2),
                proposal=rng.randrange(4),
            )
            for _ in range(14)
        ]
        reference = {
            frozenset(n.members) for n in group_candidates(candidates, spec)
        }
        for _ in range(10):
            shuffled = candidates[:]
            rng.shuffle(shuffled)
            partition = {
                frozenset(n.members) for n in group_candidates(shuffled, spec)
            }
            if partition != reference:
                unstable += 1

    near = same_group(cand(10.0, 10.0), cand(11.0, 10.0), 1.0)
    coincident = same_group(cand(5.0, 5.0, u=0.2), cand(5.0, 5.0, u=7.0), 0.5)
    min_rule = not same_group(cand(10.0, 10.0, u=2.0), cand(16.0, 10.0, u=8.0), 1.0)
    chain = group_candidates(
        [cand(0.0, 0.0), cand(3.0, 0.0), cand(6.0, 0.0)],
        JointSpec(delta=(1.5,) * JOINT_COUNT),
    )
    chain_ok = len(chain) == 1 and len(chain[0].members) == 3
    node = JointNode(
        joint_type=0,
        members=(
            CandidateJoint(
                location=(0.0, 0.0), response=0.9, joint_type=0,
                source_proposal=0, response_size=2.0,
            ),
            CandidateJoint(
                location=(10.0, 0.0), response=0.1, joint_type=0,
                source_proposal=1, response_size=2.0,
            ),
        ),
        node_id=0,
    )
    center_ok = weighted_center(node) == ((1.0, 0.0), 0.9)

    hand_ok = near and coincident and min_rule and chain_ok and center_ok
    _report(
        6,
        "grouping properties",
        asymmetries == 0 and unstable == 0 and hand_ok,
        f"symmetry 10000/{10_000 - asymmetries} ok, shuffles "
        f"{1000 - unstable}/1000 stable, hand examples {hand_ok}",
    )


def test_criterion_07_oks_reference_values():
    joints = [(k, (10.0 + 7.0 * k, 20.0 + 5.0 * k)) for k in range(JOINT_COUNT)]
    keypoints: list = [None] * JOINT_COUNT
    for k, loc in joints:
        keypoints[k] = (loc, 2)
    gt = GroundTruthPerson(
        person_id=0, keypoints=tuple(keypoints), bbox=(0.0, 0.0, 120.0, 90.0)
    )
    identical = Pose(
        proposal_id=0,
        keypoints=tuple((loc, 0.9) for _, loc in joints),
        pose_score=0.9,
    )
    identity_ok = compute_oks(identical, gt) == 1.0

    single = GroundTruthPerson(
        person_id=0,
        keypoints=(((0.0, 0.0), 2),) + (None,) * (JOINT_COUNT - 1),
        bbox=(0.0, 0.0, 20.0, 10.0),
    )
    displaced = Pose(
        proposal_id=0,
        keypoints=(((20.0, 0.0), 0.9),) + (None,) * (JOINT_COUNT - 1),
        pose_score=0.9,
    )
    # d^2 = 400 = 2 * area * kappa^2 with area 200, kappa 1
    displaced_error = abs(
        compute_oks(displaced, single, (0.5,) * JOINT_COUNT) - math.exp(-1.0)
    )

    scale_error = 0.0
    for scale in (0.5, 2.0, 7.25):
        scaled_gt = GroundTruthPerson(
            person_id=0,
            keypoints=tuple(
                ((loc[0] * scale, loc[1] * scale), 2) for _, loc in joints
            ),
            bbox=(0.0, 0.0, 120.0 * scale, 90.0 * scale),
        )
        shifted = Pose(
            proposal_id=0,
            keypoints=tuple(
                (((loc[0] + 3.0) * scale, (loc[1] - 2.0) * scale), 0.9)
                for _, loc in joints
            ),
            pose_score=0.9,
        )
        reference = Pose(
            proposal_id=0,
            keypoints=tuple(
                ((loc[0] + 3.0, loc[1] - 2.0), 0.9) for _, loc in joints
            ),
            pose_score=0.9,
        )
        scale_error = max(
            scale_error,
            abs(compute_oks(shifted, scaled_gt) - compute_oks(reference, gt)),
        )
    _report(
        7,
        "keypoint similarity reference values",
        identity_ok and displaced_error <= 1e-9 and scale_error <= 1e-9,
        f"identity {identity_ok}, displaced error {displaced_error:.2e}, "
        f"scale error {scale_error:.2e}",
    )


def test_criterion_08_crowd_index_reference_values():
    def person(joints, bbox, pid):
        keypoints: list = [None] * JOINT_COUNT
        for k, loc in joints:
            keypoints[k] = (loc, 2)
        return GroundTruthPerson(person_id=pid, keypoints=tuple(keypoints),
                                 bbox=bbox)

    disjoint = SceneAnnotation(
        image_id=0,
        persons=(
            person([(0, (5.0, 5.0))], (0.0, 0.0, 10.0, 10.0), 0),
            person([(0, (105.0, 5.0))], (100.0, 0.0, 10.0, 10.0), 1),
        ),
    )
    disjoint_ok = crowd_index(disjoint) == 0.0

    a_joints = [(k, (10.0, 5.0 + k)) for k in range(5)] + [
        (k, (70.0, 5.0 + k)) for k in range(5, 10)
    ]
    b_joints = [(k, (150.0, 5.0 + k)) for k in range(5)] + [
        (k, (80.0, 5.0 + k)) for k in range(5, 10)
    ]
    pair = SceneAnnotation(
        image_id=1,
        persons=(
            person(a_joints, (0.0, 0.0, 100.0, 100.0), 0),
            person(b_joints, (60.0, 0.0, 100.0, 100.0), 1),
        ),
    )
    pair_ok = crowd_index(pair) == 0.5

    bands_ok = (
        crowding_level(0.1) is CrowdingLevel.EASY
        and crowding_level(0.1 + 1e-9) is CrowdingLevel.MEDIUM
        and crowding_level(0.8) is CrowdingLevel.MEDIUM
        and crowding_level(0.8 + 1e-9) is CrowdingLevel.HARD
    )
    _report(
        8,
        "crowd index reference values",
        disjoint_ok and pair_ok and bands_ok,
        f"disjoint {disjoint_ok}, constructed pair {pair_ok}, band edges "
        f"{bands_ok}",
    )


def _bench_graph(size: int, rng: np.random.Generator) -> PersonJointGraph:
    """Sparse single-type instance: ring pattern, degree 4 on both sides."""
    proposals = [
        PersonProposal(proposal_id=i, bbox=(0.0, 0.0, 1.0, 1.0)) for i in range(size)
    ]
    nodes = []
    for j in range(size):
        member = CandidateJoint(
            location=(float(j), 0.0),
            response=1.0,
            joint_type=0,
            source_proposal=0,
            response_size=1.0,
        )
        nodes.append(JointNode(joint_type=0, members=(member,), node_id=j))
    weights = {}
    for i in range(size):
        for offset in range(4):
            weights[(i, (i + offset) % size)] = float(rng.uniform(0.1, 1.0))
    edges = [
        Edge(proposal=i, node=j, joint_type=0, weight=w)
        for (i, j), w in sorted(weights.items())
    ]
    return PersonJointGraph(persons=proposals, nodes=nodes, edges=edges)


def test_criterion_09_solver_scales_quadratically():
    medians = {}
    for size in (100, 200, 400):
        rng = np.random.default_rng((0, size))
        graph = _bench_graph(size, rng)
        # One untimed warm-up solve, then a median over enough solves of a
        # few ms each that one host stall cannot move it.
        solve_graph(graph)
        samples = []
        for _ in range(15):
            start = time.perf_counter()
            solve_graph(graph)
            samples.append((time.perf_counter() - start) * 1000.0)
        medians[size] = statistics.median(samples)
    ratio_200 = medians[200] / medians[100]
    ratio_400 = medians[400] / medians[200]
    ok = ratio_200 <= 5.0 and ratio_400 <= 5.0 and medians[400] < 500.0
    _report(
        9,
        "solver scaling",
        ok,
        f"medians {medians[100]:.2f}/{medians[200]:.2f}/{medians[400]:.2f} ms, "
        f"ratios {ratio_200:.2f} and {ratio_400:.2f}",
    )


def test_criterion_10_synthesis_is_byte_deterministic(tmp_path, capsys):
    args = [
        "synth", "--scenes", "3", "--crowd-index", "0.6", "--seed", "17",
    ]
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in first.iterdir())
    identical = bool(names) and all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in names
    )
    _report(
        10,
        "byte-identical synthesis",
        identical,
        f"{len(names)} files compared across two runs",
    )
