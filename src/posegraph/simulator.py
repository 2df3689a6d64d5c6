"""Synthetic crowded scenes and detector/estimator emulation.

Stands in for the neural stages: articulated 14-joint skeletons are placed so
the scene hits a requested crowd index, then box proposals and per-joint
candidate detections are sampled with controllable noise. Every candidate
carries provenance back to the ground-truth joint it detects (or a
false-positive marker), so association accuracy is exactly computable.

All randomness flows through numpy Generators seeded from (spec.seed, stage),
making every artifact bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grouping import CandidateJoint
from .graph import PersonProposal
from .heatmaps import DEFAULT_SIGMA
from .joints import JOINT_COUNT
from .metrics import (
    GroundTruthPerson,
    SceneAnnotation,
    _crowd_index_of,
    _joint_array,
    _joints_in_boxes,
    bbox_iou,
)

# Canonical standing skeleton, (x, y) in fractions of body height, y down,
# head at 0. Order follows the joint vocabulary.
_TEMPLATE = (
    (-0.11, 0.20), (0.11, 0.20),   # shoulders
    (-0.17, 0.37), (0.17, 0.37),   # elbows
    (-0.20, 0.54), (0.20, 0.54),   # wrists
    (-0.08, 0.52), (0.08, 0.52),   # hips
    (-0.09, 0.75), (0.09, 0.75),   # knees
    (-0.10, 0.97), (0.10, 0.97),   # ankles
    (0.0, 0.0), (0.0, 0.17),       # head_top, neck
)

_REFERENCE_HEIGHT = 200.0
_BOX_MARGIN = 0.05
_BOX_EXTENSION = 1.3
_RESPONSE_FLOOR = 0.01
IMAGE_WIDTH = 640
IMAGE_HEIGHT = 480
DEFAULT_MU = 0.5


@dataclass(frozen=True, slots=True)
class SceneSpec:
    """Knobs for one synthetic scene.

    ``sigma_noise`` jitters candidate locations and proposal boxes (pixels);
    ``fp_rate`` controls both redundant duplicate proposals and spurious
    candidates; ``missing_rate`` drops a proposal's own-joint detections;
    ``mu`` is the response level of interference candidates; ``sigma`` is
    the Gaussian response size recorded on every candidate. The synth
    command checks its flags by building one.
    """

    person_min: int = 2
    person_max: int = 6
    target_crowd_index: float = 0.5
    sigma_noise: float = 0.5
    fp_rate: float = 0.3
    missing_rate: float = 0.15
    mu: float = DEFAULT_MU
    sigma: float = DEFAULT_SIGMA
    seed: int = 0

    def __post_init__(self):
        for name in ("person_min", "person_max", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in (
            "target_crowd_index", "sigma_noise", "fp_rate", "missing_rate", "mu", "sigma"
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.person_min < 1 or self.person_max < self.person_min:
            raise ValueError(
                f"invalid person count range [{self.person_min}, {self.person_max}]"
            )
        if not 0.0 <= self.target_crowd_index <= 1.0:
            raise ValueError(
                f"target_crowd_index must lie in [0, 1], got {self.target_crowd_index}"
            )
        for name in ("fp_rate", "missing_rate", "mu"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not 0.0 <= self.sigma_noise < math.inf:
            raise ValueError(
                f"sigma_noise must be >= 0 and finite, got {self.sigma_noise}"
            )
        if not 0.0 < round(self.sigma, 6) < math.inf:
            raise ValueError(
                "sigma must be positive and finite, and above 5e-07 to stay "
                f"non-zero at the 6 decimals candidate files carry, got {self.sigma}"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True, slots=True)
class GeneratedScene:
    annotation: SceneAnnotation
    achieved_crowd_index: float
    on_target: bool


@dataclass(frozen=True, slots=True)
class SyntheticScene:
    """Full simulated artifact: ground truth, proposals, candidates, and the
    proposal -> person responsibility map used for accuracy scoring."""

    annotation: SceneAnnotation
    proposals: tuple[PersonProposal, ...]
    candidates: tuple[CandidateJoint, ...]
    proposal_sources: dict[int, int]
    achieved_crowd_index: float
    on_target: bool


def _sample_bodies(rng: np.random.Generator, count: int) -> list[list[tuple[float, float]]]:
    # Scales are similar within a scene so full stacking can reach a crowd
    # index near person_count - 1; across scenes they vary freely.
    base_scale = rng.uniform(0.7, 1.3)
    bodies = []
    for _ in range(count):
        height = _REFERENCE_HEIGHT * base_scale * rng.uniform(0.85, 1.15)
        angle = rng.uniform(-0.26, 0.26)
        ca, sa = math.cos(angle), math.sin(angle)
        joints = []
        for tx, ty in _TEMPLATE:
            jx = tx * height + rng.normal(0.0, 0.015 * height)
            jy = (ty - 0.5) * height + rng.normal(0.0, 0.015 * height)
            joints.append((ca * jx - sa * jy, sa * jx + ca * jy))
        bodies.append(joints)
    return bodies


def _build_annotation(
    spec: SceneSpec, boxes: np.ndarray, joints: np.ndarray
) -> SceneAnnotation:
    # A joint is occluded (visibility 1) when another person's box covers it.
    inside = _joints_in_boxes(boxes, joints)
    inside[np.diag_indices(len(boxes))] = False
    occluded = inside.any(axis=0).tolist()
    persons = tuple(
        GroundTruthPerson(
            person_id=idx,
            keypoints=tuple(
                ((x, y), 1 if hidden else 2) for (x, y), hidden in zip(points, flags)
            ),
            bbox=tuple(box),
        )
        for idx, (points, flags, box) in enumerate(
            zip(joints.tolist(), occluded, boxes.tolist())
        )
    )
    return SceneAnnotation(
        image_id=spec.seed, persons=persons, width=IMAGE_WIDTH, height=IMAGE_HEIGHT
    )


def generate_scene(spec: SceneSpec) -> GeneratedScene:
    """Place skeletons so the scene's crowd index lands near the target.

    Person shapes and layout directions are sampled once; a scalar spread
    factor (0 = fully stacked, large = far apart) is then swept over a fixed
    grid and the value whose measured crowd index is closest to the target
    wins. ``on_target`` reports whether the result is within 0.1; if not,
    the closest achieved scene is still returned.
    """
    rng = np.random.default_rng((spec.seed, 0))
    count = int(rng.integers(spec.person_min, spec.person_max + 1))
    bodies = _sample_bodies(rng, count)
    # Layout directions sit on a jittered circle so every pair separates as
    # the spread grows; fully random directions can coincide and leave two
    # people overlapped at any spread, making low targets unreachable.
    offsets = []
    for idx in range(count):
        angle = 2.0 * math.pi * (idx + rng.uniform(-0.2, 0.2)) / count
        radius = rng.uniform(0.7, 1.3)
        offsets.append((radius * math.cos(angle), radius * math.sin(angle)))

    # The image centre is also the half-extent each layout offset scales by.
    centre = np.array([IMAGE_WIDTH / 2.0, IMAGE_HEIGHT / 2.0])
    body_array, offset_array = np.array(bodies), np.array(offsets)

    def layout(spread: float) -> tuple[np.ndarray, np.ndarray]:
        """Boxes (P x 4) and joints (P x 14 x 2) at one spread."""
        # Keep these float operations and their order: tests pin the
        # scenes' bytes by SHA-256.
        joints = (centre + spread * offset_array * centre)[:, None, :] + body_array
        low, high = joints.min(axis=1), joints.max(axis=1)
        margin = (high - low) * _BOX_MARGIN
        return np.hstack([low - margin, (high - low) + 2 * margin]), joints

    def achieved(spread: float) -> tuple[float, float, float]:
        """(distance to the target, spread, crowd index) at one spread."""
        index = _crowd_index_of(*layout(spread))
        index = 0.0 if index is None else index
        return abs(index - spec.target_crowd_index), spread, index

    best = achieved(0.0)
    for step in range(1, 41):
        trial = achieved(step * 0.05)
        if trial[0] < best[0]:
            best = trial
    # The fine steps move with the best spread so far; step 0 would only
    # measure it again.
    for step in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5):
        spread = best[1] + step * 0.01
        if spread >= 0:
            trial = achieved(spread)
            if trial[0] < best[0]:
                best = trial

    err, spread, index = best
    return GeneratedScene(
        annotation=_build_annotation(spec, *layout(spread)),
        achieved_crowd_index=index,
        on_target=err <= 0.1,
    )


def simulate_proposals(scene: SceneAnnotation, spec: SceneSpec) -> list[PersonProposal]:
    """Sample detector boxes for a scene.

    One proposal per person: the ground-truth box, center-jittered and
    scale-jittered, then extended by 30% in both dimensions. With
    sigma_noise = 0 the box is exactly the extended ground-truth box. Each
    person additionally spawns a shifted, shrunken duplicate at the
    false-positive rate, emulating redundant detections. True boxes score
    higher than duplicates in expectation.
    """
    rng = np.random.default_rng((spec.seed, 1))
    proposals = []
    for person in scene.persons:
        x, y, w, h = person.bbox
        cx, cy = x + w / 2.0, y + h / 2.0
        if spec.sigma_noise > 0:
            cx += rng.normal(0.0, spec.sigma_noise)
            cy += rng.normal(0.0, spec.sigma_noise)
            w *= 1.0 + rng.uniform(-0.1, 0.1)
            h *= 1.0 + rng.uniform(-0.1, 0.1)
        ew, eh = _BOX_EXTENSION * w, _BOX_EXTENSION * h
        proposals.append(
            PersonProposal(
                proposal_id=len(proposals),
                bbox=(cx - ew / 2.0, cy - eh / 2.0, ew, eh),
                detection_score=float(rng.uniform(0.85, 1.0)),
            )
        )
    for person in scene.persons:
        if rng.random() < spec.fp_rate:
            x, y, w, h = person.bbox
            shrink = rng.uniform(0.6, 0.9)
            cx = x + w / 2.0 + rng.uniform(-0.3, 0.3) * w
            cy = y + h / 2.0 + rng.uniform(-0.3, 0.3) * h
            ew, eh = _BOX_EXTENSION * w * shrink, _BOX_EXTENSION * h * shrink
            proposals.append(
                PersonProposal(
                    proposal_id=len(proposals),
                    bbox=(cx - ew / 2.0, cy - eh / 2.0, ew, eh),
                    detection_score=float(rng.uniform(0.5, 0.75)),
                )
            )
    return proposals


def proposal_responsibilities(
    scene: SceneAnnotation, proposals: list[PersonProposal]
) -> dict[int, int]:
    """Which person each proposal is responsible for: the one whose
    ground-truth box it overlaps most (ties to the lower person_id, distance
    to box centers as a fallback when nothing overlaps)."""
    sources = {}
    for proposal in proposals:
        best_id = None
        best_key = None
        px = proposal.bbox[0] + proposal.bbox[2] / 2.0
        py = proposal.bbox[1] + proposal.bbox[3] / 2.0
        for person in scene.persons:
            iou = bbox_iou(proposal.bbox, person.bbox)
            gx = person.bbox[0] + person.bbox[2] / 2.0
            gy = person.bbox[1] + person.bbox[3] / 2.0
            key = (-iou, math.hypot(px - gx, py - gy), person.person_id)
            if best_key is None or key < best_key:
                best_key, best_id = key, person.person_id
        sources[proposal.proposal_id] = best_id
    return sources


def simulate_candidates(
    scene: SceneAnnotation,
    proposals: list[PersonProposal],
    spec: SceneSpec,
    sources: dict[int, int],
) -> list[CandidateJoint]:
    """Sample per-joint candidate detections for every proposal.

    ``sources`` maps each proposal to its responsible person, as
    ``proposal_responsibilities`` returns it. For each proposal and joint
    type: the responsible person's joint, when labeled, inside the box, and
    not missed, yields a strong candidate; every other person's labeled
    joint inside the box yields an interference candidate with response
    near ``mu``; a spurious low-response candidate appears at the
    false-positive rate. Locations are jittered by sigma_noise, responses
    by a fixed 0.05 deviation (clamped to [0.01, 1]).

    Misses are drawn once per (person, joint) for the whole scene and gate
    only own-joint emissions: a target peak that fails (occlusion, blur)
    fails in every box that covers the person, so a redundant proposal
    cannot recover the joint. Interference leakage is a separate mechanism
    and is not gated. Own-joint response means equal the proposal's
    detection score: a truncated or shifted duplicate box sees its person
    poorly and answers with weaker peaks, which is what lets the exclusive
    matching starve redundant proposals instead of splitting a person's
    joints between them.
    """
    rng = np.random.default_rng((spec.seed, 2))
    position = {p.person_id: j for j, p in enumerate(scene.persons)}
    missed = {
        (person.person_id, k)
        for person in scene.persons
        for k in range(JOINT_COUNT)
        if rng.random() < spec.missing_rate
    }
    candidates = []

    def add(location, response, joint_type, proposal_id, origin):
        candidates.append(
            CandidateJoint(
                location=(float(location[0]), float(location[1])),
                response=float(response),
                joint_type=joint_type,
                source_proposal=proposal_id,
                response_size=spec.sigma,
                origin=origin,
            )
        )

    def emit(location, response_mean, joint_type, proposal_id, origin):
        lx = location[0] + rng.normal(0.0, spec.sigma_noise)
        ly = location[1] + rng.normal(0.0, spec.sigma_noise)
        response = min(max(rng.normal(response_mean, 0.05), _RESPONSE_FLOOR), 1.0)
        add((lx, ly), response, joint_type, proposal_id, origin)

    # in_box[j][k]: joint k of the scene's j-th person lies in the box.
    boxes = np.array([p.bbox for p in proposals], dtype=float).reshape(-1, 4)
    inside = _joints_in_boxes(boxes, _joint_array(scene.persons)).tolist()
    for proposal, in_box in zip(proposals, inside):
        own_id = sources[proposal.proposal_id]
        own = position[own_id]
        own_strength = proposal.detection_score
        for k in range(JOINT_COUNT):
            if in_box[own][k] and (own_id, k) not in missed:
                location = scene.persons[own].keypoints[k][0]
                emit(location, own_strength, k, proposal.proposal_id, (own_id, k))
            for j, person in enumerate(scene.persons):
                if j != own and in_box[j][k]:
                    emit(person.keypoints[k][0], spec.mu, k, proposal.proposal_id,
                         (person.person_id, k))
            if rng.random() < spec.fp_rate:
                x, y, w, h = proposal.bbox
                location = (rng.uniform(x, x + w), rng.uniform(y, y + h))
                add(location, rng.uniform(0.1, 0.4), k, proposal.proposal_id, None)
    return candidates


def simulate_scene(spec: SceneSpec) -> SyntheticScene:
    """Generate ground truth, proposals and candidates in one call."""
    generated = generate_scene(spec)
    proposals = simulate_proposals(generated.annotation, spec)
    sources = proposal_responsibilities(generated.annotation, proposals)
    candidates = simulate_candidates(generated.annotation, proposals, spec, sources)
    return SyntheticScene(
        annotation=generated.annotation,
        proposals=tuple(proposals),
        candidates=tuple(candidates),
        proposal_sources=sources,
        achieved_crowd_index=generated.achieved_crowd_index,
        on_target=generated.on_target,
    )


def association_accuracy(
    selected, nodes, proposal_sources: dict[int, int]
) -> float:
    """Fraction of assigned joints that correctly cover a ground-truth joint.

    An assigned (joint_type, proposal, node) triple is correct when the
    node's strongest member traces back to the same (person, joint) the
    proposal is responsible for, and no earlier triple already covered that
    ground-truth joint. Re-claiming a covered joint is an error: when two
    poses locate the same physical knee, at most one of them can be right.
    False-positive members have no provenance and never count as correct.
    Triples are visited in (joint_type, proposal, node) order, so original
    proposals take credit before their duplicates. An empty selection scores
    1.0 vacuously.
    """
    node_map = {n.node_id: n for n in nodes}
    covered = set()
    total = 0
    correct = 0
    for k, i, j in sorted(selected):
        total += 1
        top = max(node_map[j].members, key=lambda m: m.response)
        if (
            top.origin is not None
            and top.origin == (proposal_sources.get(i), k)
            and top.origin not in covered
        ):
            covered.add(top.origin)
            correct += 1
    return correct / total if total else 1.0
