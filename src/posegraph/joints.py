"""Joint vocabulary: the 14-keypoint skeleton and per-joint tolerance tables."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

JOINT_COUNT = 14

JOINT_NAMES = (
    "left_shoulder",
    "right_shoulder",
    "left_elbow",
    "right_elbow",
    "left_wrist",
    "right_wrist",
    "left_hip",
    "right_hip",
    "left_knee",
    "right_knee",
    "left_ankle",
    "right_ankle",
    "head_top",
    "neck",
)

# COCO keypoint falloff constants for the 12 shared body joints; head_top and
# neck have no COCO equivalent and reuse the shoulder value (nearest torso-level
# landmark).
OKS_SIGMAS = (
    0.079, 0.079,  # shoulders
    0.072, 0.072,  # elbows
    0.062, 0.062,  # wrists
    0.107, 0.107,  # hips
    0.087, 0.087,  # knees
    0.089, 0.089,  # ankles
    0.079, 0.079,  # head_top, neck
)


def default_grouping_deltas() -> tuple[float, ...]:
    """Per-joint grouping tolerances, proportional to the OKS constants but
    rescaled to mean 1.0 so the control radius ``u * delta`` stays on the order
    of one Gaussian response size."""
    mean = sum(OKS_SIGMAS) / len(OKS_SIGMAS)
    return tuple(s / mean for s in OKS_SIGMAS)


@dataclass(frozen=True, slots=True)
class JointSpec:
    """The per-joint control deviation used when clustering candidate joints,
    one entry per joint of the ``JOINT_COUNT``-joint vocabulary."""

    delta: tuple[float, ...] = field(default_factory=default_grouping_deltas)

    def __post_init__(self):
        if len(self.delta) != JOINT_COUNT:
            raise ValueError("delta must have one entry per joint")
        if not all(0.0 < d < math.inf for d in self.delta):
            raise ValueError("every delta entry must be positive and finite")
