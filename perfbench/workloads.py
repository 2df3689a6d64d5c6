"""The benchmark's workloads and the output checks that gate them.

Pipeline workloads drive the real CLI in-process, in the order a user runs
it: ``synth`` -> ``associate --method global`` -> ``associate --method
greedy`` -> ``evaluate``. Each round synthesises a fixed number of scenes
into a fresh directory, so round 0 of a seed is always the same input.

The ring workload calls ``solve_graph`` repeatedly on one large single-type
graph and touches no file and no CLI code.

After the timed work, an untimed check pass recomputes every image from its
candidates file through the library and requires the CLI's results files to
match byte for byte; the same pass counts the per-layer work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from posegraph import cli
from posegraph.config import build_config
from posegraph.errors import IntegrityError
from posegraph.formats import (
    dump_json,
    parse_annotations_payload,
    parse_candidates_payload,
    parse_results_payload,
    read_json,
    results_to_payload,
)
from posegraph.graph import Edge, PersonJointGraph, PersonProposal, build_graph, degree_stats
from posegraph.grouping import CandidateJoint, JointNode, group_candidates
from posegraph.joints import JointSpec
from posegraph.simulator import association_accuracy, proposal_responsibilities
from posegraph.solver import build_poses, greedy_baseline, greedy_total_weight, solve_graph

from tracing import COMMAND_SPAN, Tracer

STAGES = ("synth", "associate", "greedy", "evaluate")
RING_DEGREE = 4
RING_BATCH = 10
# Round r of seed s synthesises image ids from s * 100_000 + r * 1_000 on, so
# rounds and seeds never share a scene while a round holds < 1_000 scenes.
MAX_ROUNDS = 100


@dataclass(frozen=True)
class Pipeline:
    name: str
    scenes: int  # per round
    synth_args: tuple[str, ...]
    # Check-pass solves per image; scenes * solve_repeats >= 100 gives the
    # p90 solve latency at least ten samples beyond it from round 0 alone.
    solve_repeats: int
    # The traced run's layer timings come from exactly this many traced
    # rounds, so each `.tail` is the same percentile however fast the code is.
    trace_rounds: int


@dataclass(frozen=True)
class Ring:
    name: str
    size: int
    min_solves: int  # >= 100, for the same reason as above
    trace_batches: int  # as trace_rounds, in batches of RING_BATCH solves


WORKLOADS = {
    w.name: w
    for w in (
        Pipeline("scenes-medium", scenes=100, synth_args=(), solve_repeats=1, trace_rounds=2),
        Pipeline(
            "scenes-dense30",
            scenes=10,
            synth_args=("--persons", "30", "--crowd-index", "1.0"),
            solve_repeats=10,
            trace_rounds=2,
        ),
        Ring("solver-ring", size=1600, min_solves=100, trace_batches=10),
    )
}


class Tally:
    """Operations attempted and failed; a failed output check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        print(f"FAILED: {message}", file=sys.stderr)


class CheckFailed(Exception):
    pass


def synth_seed(seed: int, round_index: int) -> int:
    return seed * 100_000 + round_index * 1_000


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def combined_digest(digests: dict[str, str], prefix: str) -> str:
    lines = "".join(f"{k} {v}\n" for k, v in sorted(digests.items()) if k.startswith(prefix))
    return sha256(lines.encode())


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class Round:
    root: Path
    seconds: dict[str, float] = field(default_factory=dict)  # per stage
    stdout: dict[str, str] = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def scenes(self) -> Path:
        return self.root / "scenes"

    @property
    def report(self) -> Path:
        return self.root / "report.json"

    def results(self, method: str) -> Path:
        return self.root / method

    def digests(self) -> dict[str, str]:
        """SHA-256 of every output file and of each command's stdout."""
        found = {}
        for sub in ("scenes", "global", "greedy"):
            directory = self.root / sub
            if directory.is_dir():
                for path in sorted(directory.iterdir()):
                    found[f"{sub}/{path.name}"] = sha256(path.read_bytes())
        if self.report.exists():
            found["report.json"] = sha256(self.report.read_bytes())
        for stage, text in self.stdout.items():
            found[f"stdout/{stage}"] = sha256(text.encode())
        return found


def run_round(
    workload: Pipeline, root: Path, seed: int, tally: Tally, tracer: Tracer | None = None
) -> Round:
    """Run the four commands once on fresh directories under ``root``."""
    rnd = Round(root)
    root.mkdir(parents=True)
    # Existing output directories make associate write one file per input
    # even when a round holds a single scene.
    rnd.results("global").mkdir()
    rnd.results("greedy").mkdir()
    n = workload.scenes
    argv = {
        "synth": ["synth", "--scenes", str(n), *workload.synth_args,
                  "--seed", str(seed), "--out", str(rnd.scenes)],
        "associate": ["associate", str(rnd.scenes), "--method", "global",
                      "--out", str(rnd.results("global"))],
        "greedy": ["associate", str(rnd.scenes), "--method", "greedy",
                   "--out", str(rnd.results("greedy"))],
        "evaluate": ["evaluate", "--results", str(rnd.results("global")),
                     "--annotations", str(rnd.scenes), "--out", str(rnd.report)],
    }
    for stage in STAGES:
        ops = 1 if stage == "evaluate" else n
        tally.attempted += ops
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                if tracer is None:
                    code = cli.main(argv[stage])
                else:
                    code = tracer.record(COMMAND_SPAN, cli.main, argv[stage])
        except Exception:  # a crashing command is a failed operation, not a stop
            traceback.print_exc()
            code = "exception"
        rnd.seconds[stage] = time.perf_counter() - start
        if code != 0:
            tally.fail(ops, f"{stage} in {root.name} exited with {code}")
        rnd.stdout[stage] = captured.getvalue().replace(str(root), "<round>")
    return rnd


@dataclass
class CheckResult:
    solve_ms: list[float] = field(default_factory=list)
    accuracy_weighted: float = 0.0
    accuracy_joints: int = 0
    map_50_95: list[float] = field(default_factory=list)


def _check_image(
    candidates_path: Path, rnd: Round, spec: JointSpec, out: CheckResult,
    counters: Counter | None,
) -> PersonJointGraph:
    stem = candidates_path.name.removesuffix(".candidates.json")
    image_id, proposals, candidates = parse_candidates_payload(read_json(candidates_path))
    scenes = parse_annotations_payload(read_json(rnd.scenes / f"{stem}.annotations.json"))
    if len(scenes) != 1 or scenes[0].image_id != image_id:
        raise CheckFailed(f"{stem}: annotations do not match image {image_id}")
    nodes = group_candidates(candidates, spec)
    graph = build_graph(proposals, nodes)
    start = time.perf_counter()
    assignment = solve_graph(graph)
    out.solve_ms.append((time.perf_counter() - start) * 1000.0)

    per_proposal = {(k, i) for k, i, _j in assignment.selected}
    per_node = {j for _k, _i, j in assignment.selected}
    if len(per_proposal) != len(assignment.selected) or len(per_node) != len(assignment.selected):
        raise CheckFailed(f"{stem}: assignment is not exclusive")
    if assignment.total_weight < greedy_total_weight(graph):
        raise CheckFailed(f"{stem}: global total is below the greedy total")

    global_poses = build_poses(assignment, graph)
    for method, poses in (("global", global_poses), ("greedy", greedy_baseline(graph))):
        data = (rnd.results(method) / f"{stem}.results.json").read_bytes()
        if data != dump_json(results_to_payload(image_id, poses)).encode("utf-8"):
            raise CheckFailed(f"{stem}: {method} results differ from the library's poses")
        parsed_id, parsed = parse_results_payload(json.loads(data))
        if parsed_id != image_id or len(parsed) != len(poses):
            raise CheckFailed(f"{stem}: {method} results do not parse back")

    selected = sorted(assignment.selected)
    sources = proposal_responsibilities(scenes[0], proposals)
    out.accuracy_weighted += association_accuracy(selected, nodes, sources) * len(selected)
    out.accuracy_joints += len(selected)

    if counters is None:
        return graph
    per_type = Counter(c.joint_type for c in candidates)
    counters["grouping.candidates"] += len(candidates)
    counters["grouping.nodes"] += len(nodes)
    counters["grouping.pairs_possible"] += sum(n * (n - 1) // 2 for n in per_type.values())
    count_graph(graph, selected, counters)
    labeled = sum(1 for p in scenes[0].persons if p.labeled_joints())
    counters["metrics.oks_pairs"] += len(global_poses) * labeled
    return graph


def count_graph(graph: PersonJointGraph, selected, counters: Counter) -> None:
    """Graph shape and solver outcome counts for one solved graph (the
    largest component is counted apart, by largest_component_edges)."""
    counters["graph.edges"] += len(graph.edges)
    counters["graph.max_degree"] = max(
        counters["graph.max_degree"], max(degree_stats(graph), default=0)
    )
    counters["solver.selected"] += len(selected)
    matched = {i for _k, i, _j in selected}
    counters["solver.unmatched_proposals"] += sum(
        1 for p in graph.persons if p.proposal_id not in matched
    )


def largest_component_edges(graph: PersonJointGraph) -> int:
    """Edge count of the largest connected component of any per-type subgraph."""
    # Imported here, like linear_sum_assignment below: the program does not
    # load these modules, so neither set-up nor peak_rss_mb may include them.
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    by_type: dict[int, list[Edge]] = {}
    for edge in graph.edges:
        by_type.setdefault(edge.joint_type, []).append(edge)
    best = 0
    for edges in by_type.values():
        rows = {p: i for i, p in enumerate(sorted({e.proposal for e in edges}))}
        cols = {n: len(rows) + i for i, n in enumerate(sorted({e.node for e in edges}))}
        size = len(rows) + len(cols)
        row_ids = [rows[e.proposal] for e in edges]
        adjacency = coo_matrix(
            (np.ones(len(edges)), (row_ids, [cols[e.node] for e in edges])), shape=(size, size)
        )
        _count, labels = connected_components(adjacency, directed=False)
        best = max(best, int(np.bincount(labels[row_ids]).max()))
    return best


def check_round(workload: Pipeline, rnd: Round, tally: Tally, out: CheckResult,
                counters: Counter | None = None) -> list[PersonJointGraph]:
    """Check one round's outputs; every mismatch is a failed operation.

    With ``counters``, also count the round's per-layer work into it. Returns
    the graphs of the images that passed.
    """
    spec = JointSpec(delta=build_config().delta)
    names = sorted(p.name for p in rnd.scenes.iterdir()) if rnd.scenes.is_dir() else []
    inputs = sorted(rnd.scenes.glob("*.candidates.json"))
    if len(names) != 2 * workload.scenes or len(inputs) != workload.scenes:
        tally.fail(1, f"{rnd.root.name}: synth wrote {len(names)} files for "
                      f"{workload.scenes} scenes")
    graphs = []
    for path in inputs:
        try:
            graphs.append(_check_image(path, rnd, spec, out, counters))
        except (CheckFailed, OSError, ValueError, KeyError, IntegrityError) as exc:
            tally.fail(1, f"{rnd.root.name}/{path.name}: {exc!r}")
    # Further solves pass over all images in turn, so the samples of one
    # image are spread over the pass rather than taken back to back.
    for _ in range(workload.solve_repeats - 1):
        for graph in graphs:
            start = time.perf_counter()
            solve_graph(graph)
            out.solve_ms.append((time.perf_counter() - start) * 1000.0)
    try:
        value = json.loads(rnd.report.read_bytes())["map_50_95"]
        if not (isinstance(value, float) and 0.0 <= value <= 1.0):
            raise CheckFailed(f"map_50_95 out of range: {value!r}")
        out.map_50_95.append(value)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        tally.fail(1, f"{rnd.root.name}/report.json: {exc!r}")
    return graphs


def file_counters(rnd: Round, counters: Counter) -> None:
    """Bytes the four commands wrote and read, and the simulator's on-target
    share, from round 0's files and captured stdout."""
    size = {p.relative_to(rnd.root).as_posix(): p.stat().st_size
            for p in rnd.root.rglob("*") if p.is_file()}
    counters["formats.bytes_written"] = sum(size.values())
    counters["formats.bytes_read"] = sum(
        n * (2 if name.endswith(".candidates.json") else 1)
        for name, n in size.items()
        if name.startswith("scenes/") or name.startswith("global/")
    )
    scene_lines = [line for line in rnd.stdout.get("synth", "").splitlines()
                   if line.startswith("scene_")]
    off = sum(1 for line in scene_lines if line.endswith("(off target)"))
    counters["simulator.scenes"] = len(scene_lines)
    counters["simulator.on_target"] = len(scene_lines) - off


# ---------------------------------------------------------------------------
# ring


def ring_graph(size: int, seed: int) -> PersonJointGraph:
    """Single joint type, ``size`` proposals and nodes, each proposal joined
    to the next RING_DEGREE nodes: the instance ``posegraph bench`` times,
    built from public constructors."""
    rng = np.random.default_rng((seed, size))
    proposals = [PersonProposal(proposal_id=i, bbox=(0.0, 0.0, 1.0, 1.0)) for i in range(size)]
    nodes = [
        JointNode(
            joint_type=0,
            members=(CandidateJoint(location=(float(j), 0.0), response=1.0, joint_type=0,
                                    source_proposal=0, response_size=1.0),),
            node_id=j,
        )
        for j in range(size)
    ]
    weights = {}
    for i in range(size):
        for offset in range(RING_DEGREE):
            weights[(i, (i + offset) % size)] = float(rng.uniform(0.1, 1.0))
    edges = [Edge(proposal=i, node=j, joint_type=0, weight=w)
             for (i, j), w in sorted(weights.items())]
    return PersonJointGraph(persons=proposals, nodes=nodes, edges=edges)


def reference_total(graph: PersonJointGraph) -> float:
    """fsum of the optimum scipy's linear_sum_assignment finds with one
    zero-cost slack column per row (leaving a row unmatched)."""
    from scipy.optimize import linear_sum_assignment

    rows = len(graph.persons)
    cols = len(graph.nodes)
    cost = np.full((rows, cols + rows), np.inf)
    cost[np.arange(rows), cols + np.arange(rows)] = 0.0
    for edge in graph.edges:
        cost[edge.proposal, edge.node] = -edge.weight
    row_ind, col_ind = linear_sum_assignment(cost)
    return math.fsum(-cost[r, c] for r, c in zip(row_ind, col_ind) if c < cols)


def ring_digest(assignment) -> str:
    text = "".join(f"{k} {i} {j}\n" for k, i, j in sorted(assignment.selected))
    return sha256(f"{text}{assignment.total_weight!r}\n".encode())
