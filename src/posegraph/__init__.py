"""Pose association for crowded scenes.

The pipeline runs heatmap peak extraction -> candidate grouping ->
person-joint graph construction -> globally optimal joint-to-person
assignment, with greedy and pose-suppression baselines, crowding metrics,
a synthetic scene generator, and a CLI tying the stages together.
"""

from .config import build_config, load_config_file
from .errors import FormatError, IntegrityError, UndefinedMetricError
from .graph import Edge, PersonJointGraph, PersonProposal, build_graph, degree_stats
from .grouping import (
    CandidateJoint,
    JointNode,
    group_candidates,
    same_group,
    weighted_center,
)
from .heatmaps import (
    Heatmap,
    compose_training_target,
    extract_peaks,
    jc_loss,
    render_gaussian,
)
from .joints import JOINT_COUNT, JOINT_NAMES, OKS_SIGMAS, JointSpec
from .metrics import (
    CrowdingLevel,
    EvalReport,
    GroundTruthPerson,
    SceneAnnotation,
    bbox_iou,
    compute_oks,
    crowd_index,
    crowding_level,
    evaluate,
)
from .simulator import (
    SceneSpec,
    SyntheticScene,
    association_accuracy,
    generate_scene,
    simulate_scene,
)
from .solver import (
    Assignment,
    Pose,
    build_poses,
    greedy_baseline,
    greedy_select,
    greedy_total_weight,
    pose_dedup_baseline,
    solve_graph,
)

__all__ = [
    "Assignment",
    "CandidateJoint",
    "CrowdingLevel",
    "Edge",
    "EvalReport",
    "FormatError",
    "GroundTruthPerson",
    "Heatmap",
    "IntegrityError",
    "JOINT_COUNT",
    "JOINT_NAMES",
    "JointNode",
    "JointSpec",
    "OKS_SIGMAS",
    "PersonJointGraph",
    "PersonProposal",
    "Pose",
    "SceneAnnotation",
    "SceneSpec",
    "SyntheticScene",
    "UndefinedMetricError",
    "association_accuracy",
    "bbox_iou",
    "build_config",
    "build_graph",
    "build_poses",
    "compose_training_target",
    "compute_oks",
    "crowd_index",
    "crowding_level",
    "degree_stats",
    "evaluate",
    "extract_peaks",
    "generate_scene",
    "greedy_baseline",
    "greedy_select",
    "greedy_total_weight",
    "group_candidates",
    "jc_loss",
    "load_config_file",
    "pose_dedup_baseline",
    "render_gaussian",
    "same_group",
    "simulate_scene",
    "solve_graph",
    "weighted_center",
]
