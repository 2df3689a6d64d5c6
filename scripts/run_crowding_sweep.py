"""Sweep scene crowding and compare global association, greedy, and greedy
followed by pose NMS.

For each target crowd index the script synthesizes scenes, runs both
association methods on identical candidates, and reports provenance-checked
association accuracy plus COCO-style mAP, AP50 and AP75 for each method,
per target and per achieved crowding band. "greedy+nms" runs
``pose_dedup_baseline`` (OKS threshold 0.7) on each scene's greedy poses:
the pose NMS that top-down pipelines use to drop duplicate poses. It removes
whole poses and changes no assignment, so its association accuracy is
greedy's. The interesting region is the medium and hard bands, where
proposals overlap enough that per-proposal greedy selection starts stealing
joints.

Usage:
    python scripts/run_crowding_sweep.py --scenes 50 --seed 0
"""

import argparse
from collections import defaultdict

from posegraph.graph import build_graph
from posegraph.grouping import group_candidates
from posegraph.joints import JointSpec
from posegraph.metrics import CrowdingLevel, crowding_level, evaluate
from posegraph.simulator import SceneSpec, association_accuracy, simulate_scene
from posegraph.solver import (
    build_poses,
    greedy_baseline,
    greedy_select,
    pose_dedup_baseline,
    solve_graph,
)

ASSOCIATION = ("global", "greedy")
METHODS = ("global", "greedy", "greedy+nms")


def run_scene(scene, spec):
    """Per association method, (accuracy, assigned joints); per method, poses."""
    nodes = group_candidates(list(scene.candidates), spec)
    graph = build_graph(list(scene.proposals), nodes)
    assignment = solve_graph(graph)
    accuracy = {}
    for method, selected in (
        ("global", sorted(assignment.selected)),
        ("greedy", greedy_select(graph)),
    ):
        score = association_accuracy(selected, nodes, scene.proposal_sources)
        accuracy[method] = (score, len(selected))
    greedy_poses = greedy_baseline(graph)
    poses = {
        "global": build_poses(assignment, graph),
        "greedy": greedy_poses,
        "greedy+nms": pose_dedup_baseline(greedy_poses),
    }
    return accuracy, poses


def keypoint_scores(scenes, method):
    """mAP / AP50 / AP75 of one method over (annotation, poses) pairs."""
    report = evaluate(
        {annotation.image_id: poses[method] for annotation, poses in scenes},
        [annotation for annotation, _ in scenes],
    )
    return f"{report.map_50_95:.3f} / {report.map_50:.3f} / {report.map_75:.3f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenes", type=int, default=50,
                        help="scenes per crowding target")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--targets", type=lambda t: [float(x) for x in t.split(",")],
        default=[0.1, 0.3, 0.5, 0.7, 0.9],
    )
    args = parser.parse_args()

    joint_spec = JointSpec()
    band_counts = {m: defaultdict(lambda: [0, 0]) for m in ASSOCIATION}
    by_target = {}
    by_band = defaultdict(list)

    print(f"{'target':>7s} {'achieved':>9s} {'global_acc':>11s} "
          f"{'greedy_acc':>11s} {'gap':>7s}")
    seed = args.seed
    for target in args.targets:
        stats = {m: [0, 0] for m in ASSOCIATION}
        achieved = []
        by_target[target] = []
        for _ in range(args.scenes):
            scene = simulate_scene(
                SceneSpec(target_crowd_index=target, seed=seed)
            )
            seed += 1
            achieved.append(scene.achieved_crowd_index)
            band = crowding_level(scene.achieved_crowd_index)
            accuracy, poses = run_scene(scene, joint_spec)
            for method, (score, n) in accuracy.items():
                stats[method][0] += score * n
                stats[method][1] += n
                band_counts[method][band][0] += score * n
                band_counts[method][band][1] += n
            by_target[target].append((scene.annotation, poses))
            by_band[band].append((scene.annotation, poses))

        def pooled(method):
            correct, total = stats[method]
            return correct / total if total else 0.0

        gap = pooled("global") - pooled("greedy")
        print(f"{target:>7.2f} {sum(achieved) / len(achieved):>9.3f} "
              f"{pooled('global'):>11.3f} {pooled('greedy'):>11.3f} "
              f"{gap * 100:>+6.1f}pp")

    print("\nper-band association accuracy (pooled):")
    for band in band_counts["global"]:
        row = []
        for method in ASSOCIATION:
            correct, total = band_counts[method][band]
            row.append(correct / total if total else float("nan"))
        print(f"  {band.value:>7s}: global {row[0]:.3f}  greedy {row[1]:.3f}  "
              f"gap {100 * (row[0] - row[1]):+.1f}pp")

    print("\nend-to-end keypoint evaluation:")
    print("  mAP / AP50 / AP75 per method; greedy+nms is pose NMS on greedy poses")
    print(f"  {'scenes':>13s} {'n':>5s}" + "".join(f"  {m:>21s}" for m in METHODS))
    groups = [("all", [s for scenes in by_target.values() for s in scenes])]
    groups += [(f"target {t:.2f}", scenes) for t, scenes in by_target.items()]
    groups += [(f"band {b.value}", by_band[b]) for b in CrowdingLevel if by_band[b]]
    for label, scenes in groups:
        cells = "".join(f"  {keypoint_scores(scenes, m):>21s}" for m in METHODS)
        print(f"  {label:>13s} {len(scenes):>5d}{cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
