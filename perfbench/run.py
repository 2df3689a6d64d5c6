"""posegraph benchmark: CLI pipeline throughput, solver latency, per-layer trace.

Run every workload, untraced and then traced, each in a fresh process:

    python3 perfbench/run.py

Run one workload for a fixed time (what a comparison of two commits runs):

    python3 perfbench/run.py --workload scenes-medium --seed 0 --seconds 20 --trace 0

Workloads:
    scenes-medium   default scenes (2-6 persons, crowd index 0.5), 100 per round
    scenes-dense30  30-person scenes at crowd index 1.0, 10 per round
    solver-ring     repeated solve_graph on a 1,600-node degree-4 ring graph

Human-readable lines name every metric with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics listed in
BENCHMARK.json, ``--trace 1`` the per-layer ones, and also writes the spans
and every layer metric to ``perfbench/out/trace-<workload>-seed<n>.json``.
The program is imported from ``src/`` next to this directory; the run stops
with an error, printing no result, when it is not there.
"""

import os

# One thread per process: the benchmark measures the program single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 15
TAIL_PCT = 90.0
# Units of the listed metrics that are times: each must be positive on every
# workload, because a time that reads the same on every run is no measurement.
TIME_UNITS = ("s", "ms")
UNMEASURED = {
    "heatmaps": "no CLI path calls extract_peaks or render_gaussian: the "
    "simulator emits candidate joints directly",
}

if not (SRC / "posegraph" / "__init__.py").is_file():
    sys.exit(f"error: the posegraph sources are missing: no {SRC / 'posegraph'}")
sys.path.insert(0, str(SRC))

import posegraph  # noqa: E402

if Path(posegraph.__file__).resolve().parent != SRC / "posegraph":
    sys.exit(f"error: imported posegraph from {posegraph.__file__}, not from {SRC}")

from tracing import Tracer, layer_metrics, percentile  # noqa: E402
from workloads import (  # noqa: E402
    MAX_ROUNDS,
    RING_BATCH,
    STAGES,
    WORKLOADS,
    CheckResult,
    Pipeline,
    Ring,
    Tally,
    check_round,
    combined_digest,
    count_graph,
    file_counters,
    largest_component_edges,
    reference_total,
    ring_digest,
    ring_graph,
    run_round,
    synth_seed,
)
from posegraph.solver import solve_graph  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up


def setup_child(workload: str, seed: int) -> int:
    """What a run does before it is ready: the imports above, a fresh work
    directory and, for the ring, the graph."""
    work = OUT / f"setup-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec = WORKLOADS[workload]
        if not isinstance(spec, Pipeline):
            ring_graph(spec.size, seed)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process exited with {code} before it was ready")
    return ready - start


class SetupSamples:
    """SETUP_SAMPLES set-up times, taken at even steps through the run.

    The shared host switches between a fast and a slow speed every few
    seconds; samples spread over the whole run see both in their usual
    proportion, where samples taken back to back may see only one.
    """

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.times: list[float] = []

    def due(self, progress: float) -> None:
        """Take the samples due once ``progress`` (0 to 1) of the run is done."""
        wanted = 1 + int(min(progress, 1.0) * (SETUP_SAMPLES - 1))
        while len(self.times) < wanted:
            self.times.append(measure_setup(self.workload, self.seed))


# ---------------------------------------------------------------------------
# workloads


def differing(first: dict[str, str], second: dict[str, str]) -> list[str]:
    return sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))


def gate(name: str, digests: dict[str, str], tally: Tally) -> None:
    """Compare the default seed's outputs with the stored reference digests."""
    diff = differing(json.loads(REFERENCE.read_text(encoding="utf-8"))[name], digests)
    if diff:
        tally.fail(len(diff), f"{name}: {len(diff)} output(s) differ from {REFERENCE.name}: "
                              f"{', '.join(diff[:5])}")


def run_pipeline(w: Pipeline, seed: int, seconds: float, trace: bool, work: Path,
                 tally: Tally, setup: SetupSamples, report: dict) -> None:
    """Rounds of the four commands until ``seconds`` of them are measured.

    Traced, each round runs once untraced and once traced on the same seed,
    and the traced outputs must reproduce the untraced ones byte for byte.
    """
    rounds, traced, counters = [], [], Counter()
    checked = CheckResult()
    timed = 0.0
    while (not rounds or (trace and len(traced) < w.trace_rounds)
           or (timed < seconds and len(rounds) < MAX_ROUNDS)):
        r = len(rounds)
        rnd = run_round(w, work / f"r{r}", synth_seed(seed, r), tally)
        rounds.append(rnd)
        timed += sum(rnd.seconds.values())
        if trace:
            tracer = Tracer()
            with tracer.patched():
                seen = run_round(w, work / f"r{r}-traced", synth_seed(seed, r), tally, tracer)
            seen.spans = tracer.spans
            traced.append(seen)
            timed += sum(seen.seconds.values())
            diff = differing(rnd.digests(), seen.digests())
            if diff:
                tally.fail(len(diff), f"traced round {r} differs from the untraced run: "
                                      f"{', '.join(diff[:5])}")
            shutil.rmtree(seen.root)
        # Checking each round as it ends spreads the solve samples over the
        # whole run instead of a few seconds at its end.
        if r == 0:
            first_graphs = check_round(w, rnd, tally, checked, counters)
            file_counters(rnd, counters)
            digests = rnd.digests()
            if seed == DEFAULT_SEED:
                gate(w.name, digests, tally)
        else:
            check_round(w, rnd, tally, checked)
        shutil.rmtree(rnd.root)
        setup.due(timed / seconds if seconds else 1.0)
    report["peak_rss_mb"] = peak_rss_mb()
    counters["graph.largest_component_edges"] = max(
        map(largest_component_edges, first_graphs), default=0)

    scenes = w.scenes * len(rounds)
    stage_s = {stage: sum(rnd.seconds[stage] for rnd in rounds) for stage in STAGES}
    round_s = [sum(rnd.seconds.values()) for rnd in rounds]
    report.update(
        rounds=len(rounds),
        items_per_s=scenes / sum(round_s),
        synth_scenes_per_s=scenes / stage_s["synth"],
        associate_images_per_s=scenes / stage_s["associate"],
        greedy_images_per_s=scenes / stage_s["greedy"],
        evaluate_images_per_s=scenes / stage_s["evaluate"],
        pipeline_s=statistics.median(round_s),
        # no samples only when every image failed its check
        solve_p50_ms=statistics.median(checked.solve_ms) if checked.solve_ms else 0.0,
        solve_tail_ms=percentile(checked.solve_ms, TAIL_PCT) if checked.solve_ms else 0.0,
        solve_samples=len(checked.solve_ms),
        map_50_95=statistics.fmean(checked.map_50_95) if checked.map_50_95 else 0.0,
        assoc_accuracy=(checked.accuracy_weighted / checked.accuracy_joints
                        if checked.accuracy_joints else 0.0),
        digests={part: combined_digest(digests, prefix) for part, prefix in (
            ("synth", "scenes/"), ("global", "global/"), ("greedy", "greedy/"),
            ("report", "report.json"), ("stdout", "stdout/"))},
        counters=counters,
    )
    if trace:
        report["trace.overhead_s"] = statistics.median(
            sum(t.seconds.values()) - u for t, u in zip(traced, round_s))
        measured = traced[:w.trace_rounds]
        wall = [sum(end - begin for _n, begin, end, parent, _i in rnd.spans if parent < 0)
                for rnd in measured]
        report["layers"] = layer_metrics([rnd.spans for rnd in measured], w.scenes, wall)
        report["spans"] = [rnd.spans for rnd in traced]
        report["counters"]["simulator.crowd_index_calls"] = sum(
            1 for span in traced[0].spans if span[0] == "crowd_index")


def run_ring(w: Ring, seed: int, seconds: float, trace: bool, tally: Tally,
             setup: SetupSamples, report: dict) -> None:
    graph = ring_graph(w.size, seed)
    first = None

    def solve(solver=solve_graph):
        nonlocal first
        tally.attempted += 1
        begin = time.perf_counter()
        assignment = solver(graph)
        elapsed = time.perf_counter() - begin
        if first is None:
            first = assignment
        elif assignment != first:
            tally.fail(1, "a ring solve returned a different assignment")
        return elapsed

    samples, plain_s, traced_s, spans = [], [], [], []
    if trace:
        while len(traced_s) < w.trace_batches or sum(plain_s) + sum(traced_s) < seconds:
            plain_s.append(sum(solve() for _ in range(RING_BATCH)))
            tracer = Tracer()
            traced_s.append(sum(
                solve(lambda g: tracer.record("solve_graph", solve_graph, g))
                for _ in range(RING_BATCH)))
            spans.append(tracer.spans)
            setup.due((sum(plain_s) + sum(traced_s)) / seconds if seconds else 1.0)
    else:
        while len(samples) < w.min_solves or sum(samples) / 1000.0 < seconds:
            samples.append(solve() * 1000.0)
            setup.due(sum(samples) / 1000.0 / seconds if seconds else 1.0)
    report["peak_rss_mb"] = peak_rss_mb()

    expected = reference_total(graph)
    if first.total_weight != expected:
        tally.fail(1, f"ring total {first.total_weight!r} != linear_sum_assignment "
                      f"optimum {expected!r}")
    digest = ring_digest(first)
    if seed == DEFAULT_SEED:
        gate(w.name, {"assignment": digest}, tally)
    counters = Counter()
    count_graph(graph, first.selected, counters)
    counters["graph.largest_component_edges"] = largest_component_edges(graph)
    report.update(
        rounds=len(traced_s) if trace else 1,
        digests={"assignment": digest},
        counters=counters,
    )
    if trace:
        report["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_s, plain_s))
        measured = slice(w.trace_batches)
        report["layers"] = layer_metrics(spans[measured], 1,
                                         [int(s * 1e9) for s in traced_s[measured]])
        report["spans"] = spans
    else:
        report.update(
            items_per_s=len(samples) / (sum(samples) / 1000.0),
            solve_p50_ms=statistics.median(samples),
            solve_tail_ms=percentile(samples, TAIL_PCT),
            solve_samples=len(samples),
        )


# ---------------------------------------------------------------------------
# reporting

E2E_ROWS = (
    ("setup_s", "s", f"median of {SETUP_SAMPLES} fresh-process set-ups spread over the run"),
    ("items_per_s", "1/s", "scenes through all four commands, or ring solves, per second"),
    ("synth_scenes_per_s", "1/s", "synth"),
    ("associate_images_per_s", "1/s", "associate --method global"),
    ("greedy_images_per_s", "1/s", "associate --method greedy"),
    ("evaluate_images_per_s", "1/s", "evaluate"),
    ("pipeline_s", "s", "median wall time of the four commands per round"),
    ("solve_p50_ms", "ms", "solve_graph per call"),
    ("solve_tail_ms", "ms", f"p{TAIL_PCT:g} of solve_graph per call"),
    ("map_50_95", "1", "evaluate report, mean over rounds"),
    ("assoc_accuracy", "1", "global method, pooled over assigned joints"),
    ("peak_rss_mb", "MB", "peak resident set of the run process"),
)


def layer_counts(report: dict) -> dict[str, float]:
    """Per-layer counts and ratios, from round 0's check pass and trace."""
    c = report["counters"]
    values = {name: c[name] for name in (
        "simulator.crowd_index_calls", "formats.bytes_written", "formats.bytes_read",
        "grouping.candidates", "grouping.nodes", "grouping.pairs_possible", "graph.edges",
        "graph.max_degree", "graph.largest_component_edges", "solver.unmatched_proposals",
        "metrics.oks_pairs")}
    values["simulator.on_target_ratio"] = (
        c["simulator.on_target"] / c["simulator.scenes"] if c["simulator.scenes"] else 0.0)
    values["grouping.merge_ratio"] = (
        (c["grouping.candidates"] - c["grouping.nodes"]) / c["grouping.pairs_possible"]
        if c["grouping.pairs_possible"] else 0.0)
    values["solver.matched_ratio"] = (
        c["solver.selected"] / c["graph.edges"] if c["graph.edges"] else 0.0)
    values["trace.overhead_s"] = report["trace.overhead_s"]
    return values


def run_one(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    w = WORKLOADS[name]
    setup = SetupSamples(name, seed)
    setup.due(0.0)
    tally = Tally()
    report: dict = {}
    work = OUT / f"work-{os.getpid()}"
    try:
        if isinstance(w, Pipeline):
            run_pipeline(w, seed, seconds, trace, work, tally, setup, report)
        else:
            run_ring(w, seed, seconds, trace, tally, setup, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup.due(1.0)
    report["setup_s"] = statistics.median(setup.times)

    print(f"workload {name}  seed {seed}  trace {int(trace)}  rounds {report['rounds']}")
    if trace:
        listed = bench["per_layer"]
        counts = layer_counts(report)
        values = dict(counts)
        for metric, row in report["layers"].items():
            if "value" in row:
                values[metric] = row["value"]
                print(f"  {metric:30s} {row['value']:12.4f} %")
                continue
            values.update({f"{metric}.{key}": row[key] for key in ("p50", "tail", "total")})
            print(f"  {metric:30s} p50 {row['p50']:10.4f}  p{row['tail_pct']:g} "
                  f"{row['tail']:10.4f}  total {row['total']:10.3f} ms  "
                  f"({row['samples']} samples)")
        for metric, value in counts.items():
            print(f"  {metric:30s} {value:12.4f}")
        for layer, reason in UNMEASURED.items():
            print(f"  {layer:30s} unmeasured: {reason}")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps({
            "workload": name, "seed": seed, "per_layer": values, "layers": report["layers"],
            "unmeasured": UNMEASURED,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "image_id"],
            "spans": report["spans"],
        }) + "\n", encoding="utf-8")
        print(f"  spans and layer metrics written to {path.relative_to(ROOT)}")
    else:
        listed = bench["end_to_end"]
        values = {key: report[key] for key, _unit, _note in E2E_ROWS if key in report}
        for key, unit, note in E2E_ROWS:
            shown = f"{report[key]:12.4f}" if key in report else f"{'n/a':>12s}"
            print(f"  {key:24s} {shown} {unit:4s} {note}")
        if "solve_samples" in report:
            print(f"  solve samples: {report['solve_samples']}")
        print(f"  setup samples: {len(setup.times)}, "
              f"{' '.join(f'{t:.3f}' for t in setup.times)} s")
    for part, digest in report["digests"].items():
        print(f"  digest {part:10s} {digest}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  error_rate {rate:.6f} ({tally.failed} failed of {tally.attempted} attempted)")
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics listed in BENCHMARK.json were not measured: {missing}")
    unmeasured = [m["name"] for m in listed
                  if m["unit"] in TIME_UNITS and not values[m["name"]] > 0]
    if unmeasured and not tally.failed:
        raise RuntimeError(f"times listed in BENCHMARK.json are not positive: {unmeasured}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    traces = (args.trace,) if args.trace is not None else (0, 1)
    for name in WORKLOADS:
        for trace in traces:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace} exited with {done.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, row in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = row
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="posegraph benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics from a traced run")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_child:
        return setup_child(args.workload, args.seed)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload is None:
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), bench)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
