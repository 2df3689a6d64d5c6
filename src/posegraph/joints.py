"""Joint vocabulary: the 14-keypoint skeleton and its two per-joint tables."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

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


def check_oks_sigmas(sigmas: Sequence[float]) -> None:
    """Raise ValueError unless there is one positive, finite sigma per joint."""
    if len(sigmas) != JOINT_COUNT:
        raise ValueError(f"oks_sigmas must have {JOINT_COUNT} entries")
    if not all(0.0 < v < math.inf for v in sigmas):
        raise ValueError("oks_sigmas entries must be positive and finite")


@dataclass(frozen=True, slots=True)
class JointSpec:
    """Both per-joint tables: ``delta``, the control deviation that groups
    candidate joints, and ``oks_sigmas``, the OKS falloff constants."""

    delta: tuple[float, ...] = field(default_factory=default_grouping_deltas)
    oks_sigmas: tuple[float, ...] = OKS_SIGMAS

    def __post_init__(self):
        if len(self.delta) != JOINT_COUNT:
            raise ValueError("delta must have one entry per joint")
        if not all(0.0 < d < math.inf for d in self.delta):
            raise ValueError("every delta entry must be positive and finite")
        check_oks_sigmas(self.oks_sigmas)
