import dataclasses
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posegraph.errors import IntegrityError, UndefinedMetricError
from posegraph.graph import build_graph
from posegraph.grouping import group_candidates
from posegraph.joints import JointSpec
from posegraph.metrics import (
    CrowdingLevel,
    GroundTruthPerson,
    SceneAnnotation,
    bbox_iou,
    compute_oks,
    crowd_index,
    crowding_level,
    evaluate,
)
from posegraph.simulator import SceneSpec, simulate_scene
from posegraph.solver import Pose, build_poses, greedy_baseline, solve_graph

UNIT_SIGMAS = (0.5,) * 14  # kappa = 2 * sigma = 1 for hand calculations


def gt_person(joints, bbox, person_id=0, vis=2):
    keypoints = [None] * 14
    for k, loc in joints:
        keypoints[k] = (loc, vis)
    return GroundTruthPerson(person_id=person_id, keypoints=tuple(keypoints),
                             bbox=bbox)


def pose_from(gt, proposal_id=0, score=0.9, shift=(0.0, 0.0)):
    keypoints = [None] * 14
    for k, slot in enumerate(gt.keypoints):
        if slot is not None:
            (x, y), _ = slot
            keypoints[k] = ((x + shift[0], y + shift[1]), score)
    return Pose(proposal_id=proposal_id, keypoints=tuple(keypoints),
                pose_score=score)


@pytest.mark.parametrize(
    "bbox,joint",
    [((math.nan, 0.0, 10.0, 10.0), (1.0, 1.0)),
     ((0.0, 0.0, math.inf, 10.0), (1.0, 1.0)),
     ((0.0, 0.0, 10.0, 10.0), (math.inf, 1.0)),
     ((0.0, 0.0, 10.0, 10.0), (1.0, math.nan))],
)
def test_ground_truth_rejects_non_finite_numbers(bbox, joint):
    with pytest.raises(ValueError, match="finite"):
        gt_person([(0, joint)], bbox)


@pytest.mark.parametrize("count", [0, 1, 13, 15, 20])
def test_ground_truth_holds_one_slot_per_joint_type(count):
    with pytest.raises(ValueError, match="person keypoints must hold 14 entries"):
        GroundTruthPerson(person_id=0, keypoints=(((1.0, 1.0), 2),) * count,
                          bbox=(0.0, 0.0, 10.0, 10.0))


def test_bbox_iou_identical():
    assert bbox_iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0


def test_bbox_iou_disjoint_and_touching():
    assert bbox_iou((0, 0, 10, 10), (20, 0, 10, 10)) == 0.0
    assert bbox_iou((0, 0, 10, 10), (10, 0, 10, 10)) == 0.0


def test_bbox_iou_half_overlap():
    # intersection 50, union 150
    assert bbox_iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1 / 3)


def test_oks_perfect_prediction_is_one():
    gt = gt_person([(0, (10.0, 10.0)), (5, (30.0, 40.0))], (0, 0, 50, 100))
    assert compute_oks(pose_from(gt), gt) == 1.0


def test_oks_single_joint_unit_displacement():
    # d^2 = 400 = 2 * s^2 * kappa^2 with area 200 and kappa 1, so the lone
    # term is exp(-1)
    gt = gt_person([(0, (0.0, 0.0))], (0, 0, 20, 10))
    pred = pose_from(gt, shift=(20.0, 0.0))
    assert compute_oks(pred, gt, UNIT_SIGMAS) == math.exp(-1.0)


def test_oks_missing_prediction_contributes_zero():
    gt = gt_person([(0, (10.0, 10.0)), (1, (40.0, 10.0))], (0, 0, 50, 50))
    keypoints = [None] * 14
    keypoints[0] = ((10.0, 10.0), 0.9)
    pred = Pose(proposal_id=0, keypoints=tuple(keypoints), pose_score=0.9)
    assert compute_oks(pred, gt) == 0.5


def test_oks_occluded_joints_count_like_visible():
    visible = gt_person([(0, (10.0, 10.0))], (0, 0, 50, 50), vis=2)
    occluded = gt_person([(0, (10.0, 10.0))], (0, 0, 50, 50), vis=1)
    pred = pose_from(visible, shift=(4.0, 3.0))
    assert compute_oks(pred, visible) == compute_oks(pred, occluded)


@given(st.floats(0.1, 50.0, allow_nan=False), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_oks_is_scale_invariant(scale, seed):
    rng = random.Random(seed)
    joints = [(k, (rng.uniform(0, 100), rng.uniform(0, 100))) for k in range(5)]
    gt = gt_person(joints, (0, 0, 120, 90))
    pred = pose_from(gt, shift=(rng.uniform(-5, 5), rng.uniform(-5, 5)))
    scaled_gt = gt_person(
        [(k, (x * scale, y * scale)) for k, (x, y) in joints],
        (0, 0, 120 * scale, 90 * scale),
    )
    scaled_kps = tuple(
        ((s[0][0] * scale, s[0][1] * scale), s[1]) if s is not None else None
        for s in pred.keypoints
    )
    scaled_pred = dataclasses.replace(pred, keypoints=scaled_kps)
    assert compute_oks(scaled_pred, scaled_gt) == pytest.approx(
        compute_oks(pred, gt), abs=1e-9
    )


def test_oks_overflowing_displacement_scores_zero_under_overflowing_scale():
    # kappa^2 = 4e400 overflows, so 2 s^2 kappa^2 is inf; the far joint's
    # d^2 is inf as well and once made its term exp(-inf / inf) = NaN.
    gt = gt_person([(k, (10.0 * k, 5.0)) for k in range(14)], (0, 0, 200, 100))
    pred = pose_from(gt)
    keypoints = list(pred.keypoints)
    keypoints[3] = ((30.0 + 1e200, 5.0), 0.9)
    pred = dataclasses.replace(pred, keypoints=tuple(keypoints))
    assert compute_oks(pred, gt, (1e200,) * 14) == 13 / 14


def test_oks_without_labeled_joints_is_undefined():
    gt = GroundTruthPerson(person_id=0, keypoints=(None,) * 14, bbox=(0, 0, 10, 10))
    pred = Pose(proposal_id=0, keypoints=(((0.0, 0.0), 0.5),) + (None,) * 13,
                pose_score=0.5)
    with pytest.raises(UndefinedMetricError):
        compute_oks(pred, gt)


def test_crowd_index_single_person_is_zero():
    scene = SceneAnnotation(
        image_id=0,
        persons=(gt_person([(k, (10.0 + k, 10.0)) for k in range(14)],
                           (0, 0, 50, 50)),),
    )
    assert crowd_index(scene) == 0.0


def test_crowd_index_hand_value():
    # each person: 10 own joints in its box plus 5 of the neighbor's
    a_joints = [(k, (10.0, 5.0 + k)) for k in range(5)] + [
        (k, (70.0, 5.0 + k)) for k in range(5, 10)
    ]
    b_joints = [(k, (150.0, 5.0 + k)) for k in range(5)] + [
        (k, (80.0, 5.0 + k)) for k in range(5, 10)
    ]
    scene = SceneAnnotation(
        image_id=0,
        persons=(
            gt_person(a_joints, (0.0, 0.0, 100.0, 100.0), person_id=0),
            gt_person(b_joints, (60.0, 0.0, 100.0, 100.0), person_id=1),
        ),
    )
    assert crowd_index(scene) == 0.5


def test_crowd_index_disjoint_boxes_is_zero():
    scene = SceneAnnotation(
        image_id=0,
        persons=(
            gt_person([(0, (5.0, 5.0))], (0, 0, 10, 10), person_id=0),
            gt_person([(0, (105.0, 5.0))], (100, 0, 10, 10), person_id=1),
        ),
    )
    assert crowd_index(scene) == 0.0


def test_crowd_index_undefined_without_own_joints():
    # the only person's joint lies outside its own box
    scene = SceneAnnotation(
        image_id=3,
        persons=(gt_person([(0, (500.0, 500.0))], (0, 0, 10, 10)),),
    )
    with pytest.raises(UndefinedMetricError):
        crowd_index(scene)


def reference_crowd_index(scene):
    """The documented definition as a plain loop: per person, foreign
    labeled joints in its box over own labeled joints in its box (boundary
    inclusive), averaged over persons with at least one own joint."""

    def inside(bbox, point):
        x, y, w, h = bbox
        return x <= point[0] <= x + w and y <= point[1] <= y + h

    ratios = []
    for person in scene.persons:
        own = sum(1 for _, loc in person.labeled_joints() if inside(person.bbox, loc))
        if own == 0:
            continue
        foreign = 0
        for other in scene.persons:
            if other.person_id == person.person_id:
                continue
            foreign += sum(
                1 for _, loc in other.labeled_joints() if inside(person.bbox, loc)
            )
        ratios.append(foreign / own)
    if not ratios:
        raise UndefinedMetricError(f"image {scene.image_id}: undefined")
    return math.fsum(ratios) / len(ratios)


@st.composite
def crowd_scenes(draw):
    """Scenes of 0-6 persons whose joints are unlabeled, random, or exactly
    on some box's x, x + w, y or y + h, so boundary hits, persons without
    own joints and empty scenes all occur."""
    count = draw(st.integers(0, 6))
    coord = st.floats(-50.0, 250.0)
    size = st.floats(1e-6, 200.0)
    boxes = [(draw(coord), draw(coord), draw(size), draw(size)) for _ in range(count)]
    xs = st.sampled_from([v for x, _, w, _ in boxes for v in (x, x + w)] or [0.0])
    ys = st.sampled_from([v for _, y, _, h in boxes for v in (y, y + h)] or [0.0])
    slot = st.none() | st.tuples(st.tuples(xs | coord, ys | coord), st.sampled_from((1, 2)))
    ids = draw(st.permutations(range(count)))
    persons = tuple(
        GroundTruthPerson(
            person_id=pid,
            keypoints=tuple(draw(slot) for _ in range(14)),
            bbox=box,
        )
        for pid, box in zip(ids, boxes)
    )
    return SceneAnnotation(image_id=0, persons=persons)


@given(crowd_scenes())
@settings(max_examples=300, deadline=None)
def test_crowd_index_equals_reference_loop_bitwise(scene):
    try:
        want = reference_crowd_index(scene)
    except UndefinedMetricError:
        with pytest.raises(UndefinedMetricError):
            crowd_index(scene)
        return
    assert crowd_index(scene).hex() == want.hex()


def test_crowd_index_counts_joints_on_every_box_edge():
    # person 0's box is [10, 30] x [20, 60]; person 1 has one joint on each
    # edge and one just outside, person 0 one joint on a corner
    edges = [(0, (10.0, 40.0)), (1, (30.0, 40.0)), (2, (20.0, 20.0)),
             (3, (20.0, 60.0)), (4, (30.000000000000004, 40.0))]
    scene = SceneAnnotation(
        image_id=0,
        persons=(
            gt_person([(0, (10.0, 20.0))], (10.0, 20.0, 20.0, 40.0), person_id=0),
            gt_person(edges, (500.0, 500.0, 10.0, 10.0), person_id=1),
        ),
    )
    assert crowd_index(scene) == reference_crowd_index(scene) == 4.0


def scattered_scene(count, side, seed=0):
    """``count`` 40 x 80 persons at random spots of a ``side``-pixel square."""
    rng = random.Random(seed)
    persons = []
    for pid in range(count):
        x, y = rng.uniform(0, side), rng.uniform(0, side)
        joints = [(k, (x + rng.uniform(0, 40), y + rng.uniform(0, 80))) for k in range(14)]
        persons.append(gt_person(joints, (x, y, 40.0, 80.0), person_id=pid))
    return SceneAnnotation(image_id=0, persons=tuple(persons))


def test_crowd_index_across_box_blocks_equals_reference_loop():
    # 150 persons span several blocks of boxes, the last one partial.
    scene = scattered_scene(150, 300)
    assert crowd_index(scene) > 1
    assert crowd_index(scene).hex() == reference_crowd_index(scene).hex()


def test_crowd_index_memory_grows_linearly_with_persons():
    # A full person x person x joint matrix peaks above 100 MiB at 2,000
    # persons; blocks of boxes stay a few MiB.
    scene = scattered_scene(2000, 2000)
    tracemalloc.start()
    try:
        index = crowd_index(scene)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index > 0
    assert peak < 20 * 2**20, f"crowd_index peaked at {peak / 2**20:.1f} MiB"


def test_crowding_level_bands_and_edges():
    assert crowding_level(0.0) is CrowdingLevel.EASY
    assert crowding_level(0.1) is CrowdingLevel.EASY
    assert crowding_level(0.100001) is CrowdingLevel.MEDIUM
    assert crowding_level(0.5) is CrowdingLevel.MEDIUM
    assert crowding_level(0.8) is CrowdingLevel.MEDIUM
    assert crowding_level(0.9) is CrowdingLevel.HARD
    assert crowding_level(2.5) is CrowdingLevel.HARD
    with pytest.raises(ValueError):
        crowding_level(-0.01)


def _far_apart_scene(image_id=0):
    gts = (
        gt_person([(k, (20.0 + 3 * k, 30.0 + 2 * k)) for k in range(14)],
                  (10, 20, 60, 40), person_id=0),
        gt_person([(k, (420.0 + 3 * k, 330.0 + 2 * k)) for k in range(14)],
                  (410, 320, 60, 40), person_id=1),
    )
    return SceneAnnotation(image_id=image_id, persons=gts)


def test_evaluate_perfect_predictions_score_one():
    scenes = [_far_apart_scene(0), _far_apart_scene(1)]
    predictions = {
        s.image_id: [pose_from(p, proposal_id=p.person_id) for p in s.persons]
        for s in scenes
    }
    report = evaluate(predictions, scenes)
    assert report.map_50_95 == 1.0
    assert report.map_50 == 1.0
    assert report.map_75 == 1.0
    assert report.mar_50_95 == 1.0


def test_evaluate_empty_predictions_score_zero():
    scenes = [_far_apart_scene(0)]
    report = evaluate({}, scenes)
    assert report.map_50_95 == 0.0
    assert report.mar_50_95 == 0.0
    assert report.map_50 >= report.map_50_95


def test_evaluate_rejects_unknown_image():
    scenes = [_far_apart_scene(0)]
    pose = pose_from(scenes[0].persons[0])
    with pytest.raises(IntegrityError):
        evaluate({99: [pose]}, scenes)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_evaluate_rejects_duplicate_image_id(order):
    # Two annotations of image 0: evaluate once scored only the later one,
    # so the result hung on their order.
    full = _far_apart_scene(0)
    half = SceneAnnotation(image_id=0, persons=full.persons[:1])
    scenes = [(full, half)[i] for i in order]
    with pytest.raises(IntegrityError, match="^duplicate image_id 0$"):
        evaluate({0: [pose_from(full.persons[0])]}, scenes)


@pytest.mark.parametrize(
    "sigmas,message",
    [
        ((math.inf,) * 14, "positive and finite"),
        ((math.nan,) * 14, "positive and finite"),
        ((0.0,) * 14, "positive and finite"),
        ((0.05,) * 13 + (-0.05,), "positive and finite"),
        ((0.05,) * 20, "must have 14 entries"),
    ],
    ids=["inf", "nan", "zero", "negative", "twenty"],
)
def test_evaluate_checks_oks_sigmas(sigmas, message):
    # JointSpec checks a config file's sigmas, but a library call passes them
    # to evaluate directly; infinite sigmas once scored any prediction, however
    # far, as a match.
    scene = _far_apart_scene(0)
    with pytest.raises(ValueError, match=message):
        evaluate({0: [pose_from(scene.persons[0])]}, [scene], sigmas=sigmas)


@pytest.mark.parametrize("width,height", [(-640, 0), (0, 480), (640, -1)])
def test_scene_annotation_size_must_be_positive(width, height):
    with pytest.raises(ValueError, match="width and height must be positive"):
        SceneAnnotation(image_id=0, persons=(), width=width, height=height)


def test_evaluate_interpolated_ap_hand_value():
    # one exact match ranked first, one hopeless prediction second: precision
    # stays 1.0 up to recall 0.5, so 51 of the 101 samples score 1.0
    scene = _far_apart_scene(0)
    hit = pose_from(scene.persons[0], proposal_id=0, score=0.9)
    miss = pose_from(scene.persons[1], proposal_id=1, score=0.8,
                     shift=(5000.0, 5000.0))
    report = evaluate({0: [hit, miss]}, [scene])
    assert report.map_50_95 == pytest.approx(51 / 101, abs=1e-12)
    assert report.mar_50_95 == pytest.approx(0.5, abs=1e-12)


def test_evaluate_trailing_duplicate_does_not_reduce_ap():
    # the second pose on the same person is a false positive, but the
    # precision envelope at full recall is set before it appears
    scene = SceneAnnotation(image_id=0, persons=(_far_apart_scene(0).persons[0],))
    best = pose_from(scene.persons[0], proposal_id=0, score=0.9)
    dup = pose_from(scene.persons[0], proposal_id=1, score=0.8)
    report = evaluate({0: [best, dup]}, [scene])
    assert report.map_50_95 == 1.0


def test_evaluate_is_order_invariant():
    scenes = [_far_apart_scene(0), _far_apart_scene(1)]
    preds = {
        s.image_id: [
            pose_from(p, proposal_id=p.person_id, score=0.6 + 0.1 * p.person_id)
            for p in s.persons
        ]
        for s in scenes
    }
    base = evaluate(preds, scenes)
    shuffled = {i: list(reversed(ps)) for i, ps in preds.items()}
    again = evaluate(shuffled, list(reversed(scenes)))
    assert base == again


def test_evaluate_band_split_scores_uncovered_bands_zero():
    scenes = [_far_apart_scene(0)]  # disjoint boxes: crowd index 0, easy band
    predictions = {
        0: [pose_from(p, proposal_id=p.person_id) for p in scenes[0].persons]
    }
    report = evaluate(predictions, scenes)
    assert report.ap_easy == 1.0
    assert report.ap_medium == 0.0
    assert report.ap_hard == 0.0


def _band_scenes():
    """One image per crowding band, then one whose crowd index is undefined,
    each with an exact pose of person 0 and a pose of person 1 shifted
    further in each band, so the three band APs differ."""
    column = [(k, (10.0, 5.0 + k)) for k in range(5)]
    easy = _far_apart_scene(0)
    # Five of each person's ten own joints sit in the other's box: index 0.5.
    medium = SceneAnnotation(image_id=1, persons=(
        gt_person(column + [(k, (70.0, 5.0 + k)) for k in range(5, 10)],
                  (0.0, 0.0, 100.0, 100.0), person_id=0),
        gt_person([(k, (150.0, 5.0 + k)) for k in range(5)]
                  + [(k, (80.0, 5.0 + k)) for k in range(5, 10)],
                  (60.0, 0.0, 100.0, 100.0), person_id=1),
    ))
    # Two persons share one box: each box holds as many foreign joints as
    # own, index 1.0.
    hard = SceneAnnotation(image_id=2, persons=(
        gt_person(column, (0.0, 0.0, 100.0, 100.0), person_id=0),
        gt_person([(k, (40.0, 5.0 + k)) for k in range(5)],
                  (0.0, 0.0, 100.0, 100.0), person_id=1),
    ))
    # The only person's joints lie outside its own box.
    undefined = SceneAnnotation(image_id=3, persons=(
        gt_person([(k, (500.0, 400.0 + k)) for k in range(5)], (0, 0, 10, 10)),
    ))
    scenes = [easy, medium, hard, undefined]
    predictions = {
        s.image_id: [
            pose_from(p, proposal_id=p.person_id, score=0.9 - 0.1 * s.image_id,
                      shift=(3.0 * 3 ** s.image_id * p.person_id, 0.0))
            for p in s.persons
        ]
        for s in scenes
    }
    return scenes, predictions


def test_evaluate_band_ap_equals_map_of_the_band_alone():
    scenes, predictions = _band_scenes()
    bands = [CrowdingLevel.EASY, CrowdingLevel.MEDIUM, CrowdingLevel.HARD]
    assert [crowding_level(crowd_index(s)) for s in scenes[:3]] == bands
    with pytest.raises(UndefinedMetricError):
        crowd_index(scenes[3])

    banded = evaluate({s.image_id: predictions[s.image_id] for s in scenes[:3]},
                      scenes[:3])
    band_ap = [banded.ap_easy, banded.ap_medium, banded.ap_hard]
    alone = [
        evaluate({s.image_id: predictions[s.image_id]}, [s]).map_50_95
        for s in scenes[:3]
    ]
    assert band_ap == alone
    assert len(set(alone)) == 3 and all(0.0 < ap < 1.0 for ap in alone)

    # The undefined image counts in the whole set but in no band.
    pooled = evaluate(predictions, scenes)
    assert pooled.map_50_95 != banded.map_50_95
    assert [pooled.ap_easy, pooled.ap_medium, pooled.ap_hard] == band_ap


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_adding_an_exact_match_never_lowers_map(seed):
    rng = random.Random(seed)
    scenes = [_far_apart_scene(i) for i in range(2)]
    covered = [(i, pid) for i in range(2) for pid in (0, 1)]
    rng.shuffle(covered)
    n_initial = rng.randint(0, 3)
    preds: dict[int, list[Pose]] = {0: [], 1: []}
    for image_id, pid in covered[:n_initial]:
        gt = scenes[image_id].persons[pid]
        preds[image_id].append(
            pose_from(gt, proposal_id=pid, score=rng.uniform(0.3, 1.0))
        )
    before = evaluate(preds, scenes).map_50_95
    image_id, pid = covered[n_initial]
    gt = scenes[image_id].persons[pid]
    preds[image_id].append(
        pose_from(gt, proposal_id=pid, score=rng.uniform(0.3, 1.0))
    )
    after = evaluate(preds, scenes).map_50_95
    assert after >= before


def _associate(scene, method):
    nodes = group_candidates(list(scene.candidates), JointSpec())
    graph = build_graph(list(scene.proposals), nodes)
    if method == "global":
        return build_poses(solve_graph(graph), graph)
    return greedy_baseline(graph)


def test_global_association_beats_greedy_on_crowded_scenes():
    # 200 medium-crowding scenes; duplicated proposals make per-proposal
    # greedy selection claim the same joints twice, which costs mAP
    scenes = [
        simulate_scene(SceneSpec(target_crowd_index=0.5, seed=seed))
        for seed in range(42, 242)
    ]
    annotations = [s.annotation for s in scenes]
    global_preds = {s.annotation.image_id: _associate(s, "global") for s in scenes}
    greedy_preds = {s.annotation.image_id: _associate(s, "greedy") for s in scenes}
    global_map = evaluate(global_preds, annotations).map_50_95
    greedy_map = evaluate(greedy_preds, annotations).map_50_95
    assert global_map > greedy_map
    assert global_map > 0.5
