"""Keypoint evaluation: OKS, COCO-style mAP/mAR, and crowding statistics.

The crowd index of a scene measures how much people overlap: for each person,
count other people's labeled joints that fall inside this person's box,
divide by the person's own labeled joint count, and average the ratios.
Scenes bucket into easy / medium / hard bands by that index.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import IntegrityError, UndefinedMetricError
from .joints import JOINT_COUNT, OKS_SIGMAS, check_oks_sigmas

if TYPE_CHECKING:
    from .solver import Pose

OKS_THRESHOLDS = tuple((50 + 5 * i) / 100 for i in range(10))

VIS_OCCLUDED = 1
VIS_VISIBLE = 2

# Boxes per joint-in-box block in crowd_index: a block of B boxes against G
# persons holds B x G x 14 booleans, so memory grows with G, not G^2. One
# block covers a 30-person image.
_BOX_BLOCK = 64


def check_bbox(bbox: tuple[float, float, float, float]) -> None:
    """Raise ValueError unless x and y are finite and w and h are positive
    with a finite, non-zero product: the area ``bbox_iou`` divides by."""
    x, y, w, h = bbox
    # Positive w and h with a finite, non-zero product are both finite.
    if not (math.isfinite(x) and math.isfinite(y) and w > 0 and h > 0
            and 0 < w * h < math.inf):
        raise ValueError(f"bbox must be finite with positive area, got {bbox}")


@dataclass(frozen=True, slots=True)
class GroundTruthPerson:
    """Annotated person: per-joint (location, visibility) slots and a box.

    A slot is None when the joint is unlabeled; visibility is 1 for
    labeled-but-occluded and 2 for labeled-and-visible. Both labeled states
    count equally everywhere (OKS, crowd index).
    """

    person_id: int
    keypoints: tuple[tuple[tuple[float, float], int] | None, ...]
    bbox: tuple[float, float, float, float]

    def __post_init__(self):
        check_bbox(self.bbox)
        if len(self.keypoints) != JOINT_COUNT:
            raise ValueError(f"person keypoints must hold {JOINT_COUNT} entries")
        for slot in self.keypoints:
            if slot is not None:
                (px, py), vis = slot
                if vis not in (VIS_OCCLUDED, VIS_VISIBLE):
                    raise ValueError(f"visibility must be 1 or 2, got {vis}")
                if not (math.isfinite(px) and math.isfinite(py)):
                    raise ValueError(f"keypoint location must be finite, got {slot[0]}")

    def labeled_joints(self) -> list[tuple[int, tuple[float, float]]]:
        return [(k, slot[0]) for k, slot in enumerate(self.keypoints) if slot]


@dataclass(frozen=True, slots=True)
class SceneAnnotation:
    image_id: int
    persons: tuple[GroundTruthPerson, ...]
    width: int = 640
    height: int = 480

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError(
                f"image {self.image_id} width and height must be positive, "
                f"got {self.width} and {self.height}"
            )
        ids = [p.person_id for p in self.persons]
        if len(set(ids)) != len(ids):
            raise IntegrityError(f"duplicate person_id in image {self.image_id}")


@dataclass(frozen=True, slots=True)
class EvalReport:
    map_50_95: float
    map_50: float
    map_75: float
    mar_50_95: float
    mar_50: float
    mar_75: float
    ap_easy: float
    ap_medium: float
    ap_hard: float

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


class CrowdingLevel(str, Enum):
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"


def bbox_iou(
    a: tuple[float, float, float, float], b: tuple[float, float, float, float]
) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (aw * ah + bw * bh - inter)


def compute_oks(
    pred: "Pose", gt: GroundTruthPerson, sigmas: Sequence[float] = OKS_SIGMAS
) -> float:
    """Object keypoint similarity between a predicted pose and an annotation.

    Each labeled ground-truth joint contributes exp(-d^2 / (2 s^2 kappa^2))
    where d is the prediction displacement, s^2 the ground-truth box area and
    kappa twice the per-joint falloff constant; unpredicted joints contribute
    0. A squared displacement past the float range contributes 0, and where
    2 s^2 kappa^2 underflows to 0 the term takes its limit: 1 on an exact
    hit, 0 otherwise. The mean over labeled joints is returned.

    Raises:
        UndefinedMetricError: the annotation has no labeled joints.
    """
    labeled = gt.labeled_joints()
    if not labeled:
        raise UndefinedMetricError(
            f"person {gt.person_id} has no labeled joints; OKS is undefined"
        )
    if len(sigmas) < len(gt.keypoints):
        raise ValueError("need one falloff constant per joint")
    s2 = gt.bbox[2] * gt.bbox[3]
    terms = []
    for k, loc in labeled:
        slot = pred.keypoints[k]
        if slot is None:
            terms.append(0.0)
            continue
        (px, py), _score = slot
        try:
            d2 = (px - loc[0]) ** 2 + (py - loc[1]) ** 2
        except OverflowError:
            d2 = math.inf
        kappa = 2.0 * sigmas[k]
        scale = 2.0 * s2 * kappa * kappa
        terms.append(math.exp(-d2 / scale) if scale and d2 < math.inf else float(d2 == 0))
    return math.fsum(terms) / len(labeled)


def _joints_in_boxes(boxes: np.ndarray, joints: np.ndarray) -> np.ndarray:
    """``inside[i, j, k]``: joint k of person j lies in box i.

    ``boxes`` is B x 4 (x, y, w, h) and ``joints`` P x K x 2, NaN for an
    unlabeled slot (see ``_joint_array``); NaN never counts as inside.
    Boundary points count as inside: ground-truth boxes are often tight
    around the joints, so an exclusive test would drop perimeter joints.
    """
    x, y, w, h = (boxes[:, c, None, None] for c in range(4))
    px, py = joints[None, :, :, 0], joints[None, :, :, 1]
    return (x <= px) & (px <= x + w) & (y <= py) & (py <= y + h)


def _joint_array(persons: Sequence[GroundTruthPerson]) -> np.ndarray:
    """The persons' joint locations, P x K x 2 with NaN for unlabeled slots."""
    joints = np.full((len(persons), JOINT_COUNT, 2), np.nan)
    for j, person in enumerate(persons):
        for k, loc in person.labeled_joints():
            joints[j, k] = loc
    return joints


def _crowd_index_of(blocks: Iterable[np.ndarray]) -> float | None:
    """The crowd index of persons whose joint-in-box matrix (see
    ``_joints_in_boxes``) comes as consecutive blocks of box rows, or None
    when no person has a labeled joint in its own box."""
    ratios = []
    first = 0
    for inside in blocks:
        counts = inside.sum(axis=2)
        own = np.diagonal(counts, first)
        foreign = counts.sum(axis=1) - own
        ratios += [f / o for f, o in zip(foreign.tolist(), own.tolist()) if o]
        first += len(counts)
    if not ratios:
        return None
    return math.fsum(ratios) / len(ratios)


def crowd_index(scene: SceneAnnotation) -> float:
    """Mean over persons of (foreign labeled joints in own box) / (own
    labeled joints in own box).

    Persons whose own-joint count is zero are left out of the mean. The
    index is 0 for any scene with pairwise disjoint boxes and can exceed 1
    when several people stack inside one box.

    Raises:
        UndefinedMetricError: no person has a labeled joint in its own box.
    """
    boxes = np.array([p.bbox for p in scene.persons], dtype=float).reshape(-1, 4)
    joints = _joint_array(scene.persons)
    index = _crowd_index_of(
        _joints_in_boxes(boxes[start : start + _BOX_BLOCK], joints)
        for start in range(0, len(boxes), _BOX_BLOCK)
    )
    if index is None:
        raise UndefinedMetricError(
            f"image {scene.image_id}: no person with labeled joints in its own bbox"
        )
    return index


def crowding_level(index: float) -> CrowdingLevel:
    """Band for a crowd index: easy up to 0.1, medium up to 0.8, hard above.

    Boundary values land in the lower band.
    """
    if index < 0:
        raise ValueError(f"crowd index must be non-negative, got {index}")
    if index <= 0.1:
        return CrowdingLevel.EASY
    if index <= 0.8:
        return CrowdingLevel.MEDIUM
    return CrowdingLevel.HARD


def _ap_and_ar(
    records: list[tuple[float, int, int, bool]], n_gt: int
) -> tuple[float, float]:
    """101-point interpolated AP and final recall from pooled predictions.

    ``records`` holds (score, image_id, proposal_id, is_tp); an empty gt set
    yields (0.0, 0.0) by convention.
    """
    if n_gt == 0 or not records:
        return 0.0, 0.0
    records = sorted(records, key=lambda r: (-r[0], r[1], r[2]))
    tp = np.cumsum([r[3] for r in records])
    fp = np.cumsum([not r[3] for r in records])
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # Precision envelope from the right, then sample at 101 recall points.
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    samples = np.zeros(101)
    inds = np.searchsorted(recall, np.linspace(0.0, 1.0, 101), side="left")
    valid = inds < len(precision)
    samples[valid] = precision[inds[valid]]
    return float(np.mean(samples)), float(recall[-1])


def evaluate(
    predictions: Mapping[int, Sequence["Pose"]],
    annotations: Sequence[SceneAnnotation],
    sigmas: Sequence[float] = OKS_SIGMAS,
) -> EvalReport:
    """Score predicted poses against annotations over the OKS thresholds
    0.50:0.05:0.95.

    One pass per image, in image-id order: per threshold, its predictions in
    descending score order greedily claim the unmatched annotation with the
    highest OKS, provided that OKS reaches the threshold, and the records
    pool into the whole image set and the image's crowding band (none when
    its crowd index is undefined). Averaging the 101-point interpolated AP
    over thresholds gives the headline metric and each band's AP; a band
    with no image pools no records and scores 0.0.

    Args:
        predictions: image_id -> poses for that image.
        annotations: one SceneAnnotation per image.
        sigmas: per-joint falloff constants.

    Returns:
        EvalReport with mAP/mAR and per-band AP.

    Raises:
        ValueError: sigmas fail ``check_oks_sigmas``.
        IntegrityError: two annotations share an image id, or predictions
            reference an image id with no annotation.
    """
    check_oks_sigmas(sigmas)
    ann_by_id: dict[int, SceneAnnotation] = {}
    for scene in annotations:
        if scene.image_id in ann_by_id:
            raise IntegrityError(f"duplicate image_id {scene.image_id}")
        ann_by_id[scene.image_id] = scene
    for image_id in predictions:
        if image_id not in ann_by_id:
            raise IntegrityError(f"predictions reference unknown image {image_id}")

    # Records and labeled-person counts, pooled per image set.
    n_gt = dict.fromkeys(("all", *CrowdingLevel), 0)
    pooled = {group: {t: [] for t in OKS_THRESHOLDS} for group in n_gt}
    for image_id in sorted(ann_by_id):
        scene = ann_by_id[image_id]
        gts = [p for p in scene.persons if p.labeled_joints()]
        preds = sorted(
            predictions.get(image_id, []),
            key=lambda p: (-p.pose_score, p.proposal_id),
        )
        oks = [[compute_oks(pred, gt, sigmas) for gt in gts] for pred in preds]
        try:
            groups = ("all", crowding_level(crowd_index(scene)))
        except UndefinedMetricError:
            groups = ("all",)
        for group in groups:
            n_gt[group] += len(gts)
        for t in OKS_THRESHOLDS:
            taken = [False] * len(gts)
            records = []
            for pred, row in zip(preds, oks):
                best_gi, best_oks = -1, 0.0
                for gi, value in enumerate(row):
                    if not taken[gi] and value > best_oks:
                        best_gi, best_oks = gi, value
                # Every threshold is positive, so a match has best_gi >= 0.
                matched = best_oks >= t
                if matched:
                    taken[best_gi] = True
                records.append((pred.pose_score, image_id, pred.proposal_id, matched))
            for group in groups:
                pooled[group][t].extend(records)

    def mean_ap_ar(group: str) -> tuple[float, float, dict[float, tuple[float, float]]]:
        per_threshold = {
            t: _ap_and_ar(pooled[group][t], n_gt[group]) for t in OKS_THRESHOLDS
        }
        ap = math.fsum(v[0] for v in per_threshold.values()) / len(OKS_THRESHOLDS)
        ar = math.fsum(v[1] for v in per_threshold.values()) / len(OKS_THRESHOLDS)
        return ap, ar, per_threshold

    map_all, mar_all, per_t = mean_ap_ar("all")
    ap_50, ar_50 = per_t[0.5]
    ap_75, ar_75 = per_t[0.75]
    band_ap = {level: mean_ap_ar(level)[0] for level in CrowdingLevel}

    return EvalReport(
        map_50_95=map_all,
        map_50=ap_50,
        map_75=ap_75,
        mar_50_95=mar_all,
        mar_50=ar_50,
        mar_75=ar_75,
        ap_easy=band_ap[CrowdingLevel.EASY],
        ap_medium=band_ap[CrowdingLevel.MEDIUM],
        ap_hard=band_ap[CrowdingLevel.HARD],
    )
