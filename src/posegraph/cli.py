"""Command-line surface: synth, associate, evaluate.

Exit codes: 0 on success, 1 for internal or cross-reference failures, 2 for
argument and parse problems (argparse uses 2 on its own). All output is
deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

from .config import load_config_file
from .errors import FormatError, IntegrityError
from .formats import (
    annotations_to_payload,
    candidates_to_payload,
    parse_annotations_payload,
    parse_candidates_payload,
    parse_results_payload,
    report_to_payload,
    read_json,
    results_to_payload,
    write_json_atomic,
)
from .graph import build_graph
from .grouping import group_candidates
from .joints import JointSpec
from .metrics import SceneAnnotation, evaluate
from .simulator import SceneSpec, simulate_scene
from .solver import greedy_baseline, greedy_total_weight, build_poses, solve_graph


@contextlib.contextmanager
def _naming(path: str | Path):
    """Prefix an error that a file's content causes with the file's path."""
    try:
        yield
    except IntegrityError as exc:
        raise IntegrityError(f"{path}: {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _config_from_args(args: argparse.Namespace) -> JointSpec:
    if not args.config:
        return JointSpec()
    with _naming(args.config):
        return load_config_file(args.config)


def _collect(path: Path, suffix: str) -> list[Path]:
    if path.is_dir():
        found = sorted(path.glob(f"*{suffix}"))
        if not found:
            raise FileNotFoundError(f"no *{suffix} under {path}")
        return found
    if path.exists():
        return [path]
    raise FileNotFoundError(f"no such file: {path}")


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args: argparse.Namespace) -> int:
    if args.persons is not None:
        args.person_min = args.person_max = args.persons
    # SceneSpec owns every default and range: a bad value stops before any write.
    names = [field.name for field in dataclasses.fields(SceneSpec)]
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    spec = SceneSpec(**given)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    achieved = []
    for index in range(args.scenes):
        scene = simulate_scene(dataclasses.replace(spec, seed=args.seed + index))
        stem = f"scene_{index:03d}"
        write_json_atomic(
            out / f"{stem}.annotations.json",
            annotations_to_payload([scene.annotation]),
        )
        write_json_atomic(
            out / f"{stem}.candidates.json",
            candidates_to_payload(
                scene.annotation.image_id,
                scene.proposals,
                scene.candidates,
            ),
        )
        achieved.append(scene.achieved_crowd_index)
        note = "" if scene.on_target else " (off target)"
        print(
            f"{stem}: persons={len(scene.annotation.persons)} "
            f"proposals={len(scene.proposals)} "
            f"candidates={len(scene.candidates)} "
            f"crowd_index={scene.achieved_crowd_index:.4f}{note}"
        )
    mean = sum(achieved) / len(achieved)
    print(f"wrote {args.scenes} scene(s) to {out}; mean crowd index {mean:.4f}")
    return 0


# ---------------------------------------------------------------------------
# associate


def cmd_associate(args: argparse.Namespace) -> int:
    spec = _config_from_args(args)
    out = Path(args.out) if args.out else None
    into_dir = out is not None and (Path(args.input).is_dir() or out.is_dir())
    for path in _collect(Path(args.input), ".candidates.json"):
        with _naming(path):
            image_id, proposals, candidates = parse_candidates_payload(read_json(path))
            graph = build_graph(proposals, group_candidates(candidates, spec))
            if args.method == "global":
                assignment = solve_graph(graph)
                poses = build_poses(assignment, graph)
                total = assignment.total_weight
            else:
                poses = greedy_baseline(graph)
                total = greedy_total_weight(graph)
            name = path.name.replace(".candidates", ".results")
            if into_dir:
                out.mkdir(parents=True, exist_ok=True)
            target = out / name if into_dir else out or path.with_name(name)
            write_json_atomic(target, results_to_payload(image_id, poses))
        print(
            f"image {image_id}: proposals={len(graph.persons)} "
            f"nodes={len(graph.nodes)} edges={len(graph.edges)} "
            f"poses={len(poses)} total_weight={total:.6f}"
        )
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _claim(found: dict[int, Path], image_id: int, path: Path, what: str) -> None:
    """Record that ``path`` holds ``image_id``, unless an earlier file did."""
    if image_id in found:
        raise IntegrityError(f"duplicate {what} {image_id} in {found[image_id]} and {path}")
    found[image_id] = path


def cmd_evaluate(args: argparse.Namespace) -> int:
    spec = _config_from_args(args)
    # metrics.evaluate owns the image-id rules; the checks here only name
    # the files that break them.
    annotations: list[SceneAnnotation] = []
    annotated_in: dict[int, Path] = {}
    for path in _collect(Path(args.annotations), ".annotations.json"):
        with _naming(path):
            scenes = parse_annotations_payload(read_json(path))
        for scene in scenes:
            _claim(annotated_in, scene.image_id, path, "image_id")
        annotations.extend(scenes)
    predictions = {}
    source_of: dict[int, Path] = {}
    for path in _collect(Path(args.results), ".results.json"):
        with _naming(path):
            image_id, poses = parse_results_payload(read_json(path))
            if image_id not in annotated_in:
                raise IntegrityError(f"predictions reference unknown image {image_id}")
        _claim(source_of, image_id, path, "results for image_id")
        predictions[image_id] = poses
    report = evaluate(predictions, annotations, sigmas=spec.oks_sigmas)
    if args.out:
        write_json_atomic(args.out, report_to_payload(report))
    for key, value in report.to_dict().items():
        print(f"{key:12s} {value:.4f}")
    if args.out:
        print(f"report written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posegraph",
        description="Crowded-scene pose association: synthesize, associate, "
        "evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate synthetic scene files")
    synth.add_argument("--scenes", type=_positive_int, default=1)
    synth.add_argument("--persons", type=int,
                       help="exact person count (overrides min/max)")
    synth.add_argument("--person-min", type=int)
    synth.add_argument("--person-max", type=int)
    synth.add_argument("--crowd-index", type=float, dest="target_crowd_index",
                       metavar="CROWD_INDEX")
    synth.add_argument("--noise", type=float, dest="sigma_noise", metavar="NOISE",
                       help="location jitter in pixels")
    synth.add_argument("--fp-rate", type=float)
    synth.add_argument("--missing-rate", type=float)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--mu", type=float)
    synth.add_argument("--sigma", type=float)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    associate = sub.add_parser(
        "associate", help="group candidates, build the graph, assign joints"
    )
    associate.add_argument("input", help="candidates file or directory")
    associate.add_argument("--method", choices=("global", "greedy"),
                           default="global")
    associate.add_argument("--out", default=None, help="results directory if the "
                           "input or --out is a directory, else results file")
    associate.add_argument("--config", help="JSON file; only its 'delta' table is read")
    associate.set_defaults(func=cmd_associate)

    evaluate_ = sub.add_parser("evaluate", help="score results against annotations")
    evaluate_.add_argument("--results", required=True)
    evaluate_.add_argument("--annotations", required=True)
    evaluate_.add_argument("--out", default=None, help="report JSON path")
    evaluate_.add_argument("--config", help="JSON file; only its 'oks_sigmas' table is read")
    evaluate_.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
