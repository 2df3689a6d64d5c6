import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posegraph.formats import annotations_to_payload, candidates_to_payload, dump_json
from posegraph.graph import PersonProposal, build_graph
from posegraph.grouping import group_candidates
from posegraph.joints import JOINT_COUNT, JointSpec
from posegraph.metrics import (
    CrowdingLevel,
    GroundTruthPerson,
    SceneAnnotation,
    crowd_index,
    crowding_level,
)
from posegraph.simulator import (
    SceneSpec,
    association_accuracy,
    generate_scene,
    proposal_responsibilities,
    simulate_candidates,
    simulate_proposals,
    simulate_scene,
)
from posegraph.solver import solve_graph

CLEAN = dict(sigma_noise=0.0, fp_rate=0.0, missing_rate=0.0)


@pytest.mark.parametrize(
    "field,value",
    [("seed", 1.5), ("seed", 2.0), ("seed", True), ("person_min", 2.5),
     ("person_max", 3.0), ("person_max", None)],
)
def test_spec_counts_and_seed_must_be_integers(field, value):
    # numpy's generator needs an integer seed, and a person count is a count.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SceneSpec(**{field: value})


FLOAT_FIELDS = ("target_crowd_index", "sigma_noise", "fp_rate", "missing_rate", "mu", "sigma")


@pytest.mark.parametrize("field", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [True, False, "0.5", None])
def test_spec_float_fields_must_be_numbers(field, value):
    # A range check alone would read True as 1 and False as 0.
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        SceneSpec(**{field: value})


@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_spec_float_fields_take_ints_and_floats(field):
    assert getattr(SceneSpec(**{field: 1}), field) == 1
    assert getattr(SceneSpec(**{field: np.float64(0.5)}), field) == 0.5


def test_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(target_crowd_index=1.5)
    with pytest.raises(ValueError):
        SceneSpec(target_crowd_index=-0.1)
    with pytest.raises(ValueError):
        SceneSpec(person_min=0)
    with pytest.raises(ValueError):
        SceneSpec(person_min=4, person_max=2)
    with pytest.raises(ValueError):
        SceneSpec(fp_rate=1.2)
    with pytest.raises(ValueError, match="seed"):
        SceneSpec(seed=-1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma_noise"):
            SceneSpec(sigma_noise=bad)
    # 1e-7 is positive but rounds to 0 at the 6 decimals of a candidate file.
    for bad in (math.nan, math.inf, 0.0, -1.0, 1e-7):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            SceneSpec(sigma=bad)


def test_single_person_scene_has_zero_crowd_index():
    generated = generate_scene(
        SceneSpec(person_min=1, person_max=1, target_crowd_index=0.0, seed=3)
    )
    assert generated.achieved_crowd_index == 0.0
    assert generated.on_target
    assert crowd_index(generated.annotation) == 0.0


def test_targeting_hits_medium_crowding():
    generated = generate_scene(SceneSpec(target_crowd_index=0.5, seed=42))
    assert abs(generated.achieved_crowd_index - 0.5) <= 0.1
    assert generated.on_target
    again = generate_scene(SceneSpec(target_crowd_index=0.5, seed=42))
    assert again.achieved_crowd_index == generated.achieved_crowd_index


def test_high_target_yields_hard_scenes():
    for seed in range(10):
        generated = generate_scene(SceneSpec(target_crowd_index=0.9, seed=seed))
        level = crowding_level(generated.achieved_crowd_index)
        assert level is CrowdingLevel.HARD


def test_achieved_index_matches_metric_recomputation():
    # The search scores spreads on arrays; the index it reports must be the
    # one metrics.crowd_index computes from the annotation it returns.
    for persons, target, seeds in (
        ((2, 6), 0.4, (11,)),
        ((30, 30), 1.0, (0, 1, 2)),
        ((30, 30), 0.3, (3, 4)),
        ((2, 12), 0.0, (5, 6)),
        ((1, 1), 0.0, (7,)),
    ):
        for seed in seeds:
            spec = SceneSpec(person_min=persons[0], person_max=persons[1],
                             target_crowd_index=target, seed=seed)
            generated = generate_scene(spec)
            assert generated.achieved_crowd_index == crowd_index(generated.annotation)


def test_noiseless_proposals_are_extended_gt_boxes():
    spec = SceneSpec(target_crowd_index=0.3, seed=9, **CLEAN)
    annotation = generate_scene(spec).annotation
    proposals = simulate_proposals(annotation, spec)
    assert len(proposals) == len(annotation.persons)
    for person, proposal in zip(annotation.persons, proposals):
        x, y, w, h = person.bbox
        px, py, pw, ph = proposal.bbox
        assert pw == pytest.approx(1.3 * w, rel=1e-12)
        assert ph == pytest.approx(1.3 * h, rel=1e-12)
        assert px + pw / 2.0 == pytest.approx(x + w / 2.0, rel=1e-12)
        assert py + ph / 2.0 == pytest.approx(y + h / 2.0, rel=1e-12)


def test_duplicate_proposal_count_is_bounded_by_rate():
    spec = SceneSpec(
        person_min=100, person_max=100, target_crowd_index=0.5, fp_rate=0.5, seed=1
    )
    annotation = generate_scene(spec).annotation
    count = len(simulate_proposals(annotation, spec))
    assert 100 <= count <= 200
    assert count > 100  # 50 expected duplicates; zero would be astonishing


def hand_scene(offsets, box=(100.0, 100.0, 120.0, 160.0)):
    """Persons on a fixed joint template, each shifted by one offset."""
    x, y, w, h = box
    template = [
        (x + w * (0.2 + 0.05 * k), y + h * (0.1 + 0.06 * k)) for k in range(JOINT_COUNT)
    ]
    persons = []
    for pid, (dx, dy) in enumerate(offsets):
        keypoints = tuple(((jx + dx, jy + dy), 2) for jx, jy in template)
        persons.append(
            GroundTruthPerson(
                person_id=pid,
                keypoints=keypoints,
                bbox=(x + dx, y + dy, w, h),
            )
        )
    return SceneAnnotation(image_id=0, persons=tuple(persons))


def big_proposal(pid, score=0.95):
    return PersonProposal(
        proposal_id=pid, bbox=(0.0, 0.0, 640.0, 480.0), detection_score=score
    )


def test_isolated_person_emits_one_strong_candidate_per_joint():
    scene = hand_scene([(0.0, 0.0)])
    spec = SceneSpec(target_crowd_index=0.0, seed=4, **CLEAN)
    proposals = [big_proposal(0)]
    sources = proposal_responsibilities(scene, proposals)
    candidates = simulate_candidates(scene, proposals, spec, sources)
    assert len(candidates) == JOINT_COUNT
    assert sorted(c.joint_type for c in candidates) == list(range(JOINT_COUNT))
    assert all(c.origin == (0, c.joint_type) for c in candidates)
    # response means equal the detection score, so everything is strong
    assert all(c.response >= 0.7 for c in candidates)
    assert sum(c.response for c in candidates) / len(candidates) >= 0.85
    # no location noise: candidates sit exactly on the ground-truth joints
    gt = {(k, slot[0]) for k, slot in enumerate(scene.persons[0].keypoints)}
    assert {(c.joint_type, c.location) for c in candidates} == gt


def test_overlapping_pair_adds_half_strength_interference():
    scene = hand_scene([(0.0, 0.0), (8.0, 6.0)])
    spec = SceneSpec(target_crowd_index=0.0, seed=4, mu=0.5, **CLEAN)
    proposals = [big_proposal(0), big_proposal(1)]
    sources = proposal_responsibilities(scene, proposals)
    candidates = simulate_candidates(scene, proposals, spec, sources)
    for pid in (0, 1):
        mine = [c for c in candidates if c.source_proposal == pid]
        own = [c for c in mine if c.origin[0] == sources[pid]]
        leak = [c for c in mine if c.origin[0] != sources[pid]]
        assert len(own) == JOINT_COUNT
        assert len(leak) == JOINT_COUNT
        own_mean = sum(c.response for c in own) / len(own)
        leak_mean = sum(c.response for c in leak) / len(leak)
        assert abs(leak_mean - spec.mu) < 0.1
        assert own_mean > leak_mean + 0.2


def test_full_missing_rate_leaves_only_interference_and_noise():
    scene = hand_scene([(0.0, 0.0), (8.0, 6.0)])
    spec = SceneSpec(
        target_crowd_index=0.0, seed=4, sigma_noise=0.0, fp_rate=0.2,
        missing_rate=1.0,
    )
    proposals = [big_proposal(0), big_proposal(1)]
    sources = proposal_responsibilities(scene, proposals)
    candidates = simulate_candidates(scene, proposals, spec, sources)
    assert candidates
    for c in candidates:
        if c.origin is None:
            continue  # spurious false positive
        assert c.origin[0] != sources[c.source_proposal]


def test_misses_are_shared_across_proposals():
    # two boxes over the same person must lose the same joints, otherwise a
    # redundant detection could resurrect a joint the detector cannot see
    scene = hand_scene([(0.0, 0.0)])
    spec = SceneSpec(target_crowd_index=0.0, seed=12, sigma_noise=0.0,
                     fp_rate=0.0, missing_rate=0.5)
    proposals = [big_proposal(0), big_proposal(1)]
    sources = proposal_responsibilities(scene, proposals)
    candidates = simulate_candidates(scene, proposals, spec, sources)
    emitted = {
        pid: {c.joint_type for c in candidates if c.source_proposal == pid}
        for pid in (0, 1)
    }
    assert emitted[0] == emitted[1]
    assert 0 < len(emitted[0]) < JOINT_COUNT


def test_simulation_is_bitwise_deterministic():
    spec = SceneSpec(target_crowd_index=0.6, seed=77)
    a = simulate_scene(spec)
    b = simulate_scene(spec)
    assert a.annotation == b.annotation
    assert a.proposals == b.proposals
    assert a.candidates == b.candidates
    assert a.proposal_sources == b.proposal_sources
    assert a.achieved_crowd_index == b.achieved_crowd_index


# SHA-256 over seeds 0-2 of each spec: the annotation's repr (full float
# bits), the annotation and candidate files as written, the achieved crowd
# index in hex and on_target. A change to the simulator that moves any bit
# of a scene fails here, not only a change between two runs of one version.
PINNED_SCENE_DIGESTS = {
    "single": (
        dict(person_min=1, person_max=1, target_crowd_index=0.0),
        "df98be7dcd28c4cf66bf9d6f27357a0170277e47f03f2aae45d370b4635af80b",
    ),
    "medium": (
        dict(person_min=2, person_max=6, target_crowd_index=0.5),
        "3357c10112566a46d70540711ea84f45f61eea54ed8ea24237528abb0ede0c0b",
    ),
    "dense30": (
        dict(person_min=30, person_max=30, target_crowd_index=1.0),
        "d1657b2a45145cbe6aba2a892301b16b6143bb3d624a8a7a5a6f2b378bdc7e8e",
    ),
    "sparse": (
        dict(person_min=2, person_max=12, target_crowd_index=0.0),
        "f87987ee53011facc9e32acd717cc14db726eacdbe9383a3783ca432509ddbe6",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCENE_DIGESTS))
def test_scene_bytes_match_pinned_digests(name):
    kwargs, expected = PINNED_SCENE_DIGESTS[name]
    digest = hashlib.sha256()
    for seed in range(3):
        scene = simulate_scene(SceneSpec(seed=seed, **kwargs))
        digest.update(repr(scene.annotation).encode())
        digest.update(dump_json(annotations_to_payload([scene.annotation])).encode())
        digest.update(
            dump_json(candidates_to_payload(seed, scene.proposals, scene.candidates)).encode()
        )
        digest.update(scene.achieved_crowd_index.hex().encode())
        digest.update(str(scene.on_target).encode())
    assert digest.hexdigest() == expected


def test_different_seeds_differ():
    a = simulate_scene(SceneSpec(target_crowd_index=0.6, seed=77))
    b = simulate_scene(SceneSpec(target_crowd_index=0.6, seed=78))
    assert a.candidates != b.candidates


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_every_candidate_names_a_real_proposal_and_person(seed):
    scene = simulate_scene(SceneSpec(seed=seed))
    proposal_ids = {p.proposal_id for p in scene.proposals}
    person_ids = {p.person_id for p in scene.annotation.persons}
    for c in scene.candidates:
        assert c.source_proposal in proposal_ids
        assert 0 <= c.joint_type < JOINT_COUNT
        assert 0.0 < c.response <= 1.0
        if c.origin is not None:
            assert c.origin[0] in person_ids
    assert set(scene.proposal_sources) == proposal_ids
    assert set(scene.proposal_sources.values()) <= person_ids


def test_clean_pipeline_associates_perfectly():
    spec = SceneSpec(target_crowd_index=0.0, seed=5, **CLEAN)
    scene = simulate_scene(spec)
    nodes = group_candidates(list(scene.candidates), JointSpec())
    graph = build_graph(list(scene.proposals), nodes)
    assignment = solve_graph(graph)
    accuracy = association_accuracy(
        assignment.selected, nodes, scene.proposal_sources
    )
    assert accuracy == 1.0
    # every person is fully recovered
    assert len(assignment.selected) == JOINT_COUNT * len(scene.annotation.persons)


def test_association_accuracy_counts_reclaims_as_errors():
    scene = hand_scene([(0.0, 0.0)])
    spec = SceneSpec(target_crowd_index=0.0, seed=4, **CLEAN)
    proposals = [big_proposal(0), big_proposal(1)]
    sources = proposal_responsibilities(scene, proposals)
    candidates = simulate_candidates(scene, proposals, spec, sources)
    nodes = group_candidates(candidates, JointSpec())
    first = {(c.joint_type, 0, n.node_id) for n in nodes for c in [n.members[0]]}
    both = {(k, pid, j) for (k, _, j) in first for pid in (0, 1)}
    assert association_accuracy(sorted(first)[:5], nodes, sources) == 1.0
    assert association_accuracy(both, nodes, sources) == 0.5
    assert association_accuracy([], nodes, sources) == 1.0
