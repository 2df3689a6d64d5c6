"""Span tracing from outside the program.

The traced run replaces the layer functions that ``posegraph.cli`` imports
(and, optionally, the names ``simulate_scene`` resolves at call time in
``posegraph.simulator``) with wrappers that record one span per call, then
calls ``cli.main`` unchanged. Nothing in ``src/`` knows about tracing.

A span is ``[name, start_ns, end_ns, parent_index, image_id]``. Spans stay in
memory and are written once, at the end of the run. Spans of one image share
its image id: synthesis learns the id from the scene spec before the call,
parsing learns it from the parsed document and back-fills the spans of the
file read that produced it.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from contextlib import contextmanager

import posegraph.cli
import posegraph.simulator

# name in posegraph.cli -> layer
REQUIRED = {
    "simulate_scene": "simulator",
    "read_json": "formats",
    "write_json_atomic": "formats",
    "parse_annotations_payload": "formats",
    "parse_candidates_payload": "formats",
    "parse_results_payload": "formats",
    "annotations_to_payload": "formats",
    "candidates_to_payload": "formats",
    "results_to_payload": "formats",
    "report_to_payload": "formats",
    "group_candidates": "grouping",
    "build_graph": "graph",
    "solve_graph": "solver",
    "build_poses": "solver",
    "greedy_baseline": "solver",
    "greedy_total_weight": "solver",
    "evaluate": "metrics",
}

# name in posegraph.simulator -> layer; absent names record nothing.
OPTIONAL = {
    "generate_scene": "simulator",
    "simulate_candidates": "simulator",
    "proposal_responsibilities": "simulator",
    "crowd_index": "simulator",
}

COMMAND_SPAN = "cli.main"
LAYER_OF = {**REQUIRED, **OPTIONAL, COMMAND_SPAN: "cli"}
LAYERS = ("simulator", "formats", "grouping", "graph", "solver", "metrics", "cli")


class TraceError(RuntimeError):
    """A name the traced run must wrap is missing from the program."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._image: int | None = None
        self._unit_start = 0

    def record(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        if name == "simulate_scene":
            self._image = args[0].seed
        elif name == "read_json":
            self._image = None
            self._unit_start = len(self.spans)
        elif name in ("evaluate", COMMAND_SPAN):
            self._image = None
        index = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self._image]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        if name in ("parse_candidates_payload", "parse_results_payload"):
            self._set_image(result[0])
        elif name == "parse_annotations_payload" and len(result) == 1:
            self._set_image(result[0].image_id)
        return result

    def _set_image(self, image_id: int) -> None:
        self._image = image_id
        for span in self.spans[self._unit_start:]:
            if span[4] is None and span[0] != COMMAND_SPAN:
                span[4] = image_id

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.record(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def patched(self):
        """Wrap every layer name for the duration of the block."""
        targets = []
        for name in REQUIRED:
            if not hasattr(posegraph.cli, name):
                raise TraceError(f"posegraph.cli has no '{name}' to trace")
            targets.append((posegraph.cli, name))
        for name in OPTIONAL:
            if hasattr(posegraph.simulator, name):
                targets.append((posegraph.simulator, name))
        originals = [(module, name, getattr(module, name)) for module, name in targets]
        try:
            for module, name, fn in originals:
                setattr(module, name, self._wrapper(name, fn))
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    The program is single-threaded, so children of one span never overlap.
    """
    own = [end - start for _name, start, end, _parent, _image in spans]
    for _name, start, end, parent, _image in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_ns(spans: list[list]) -> dict[str, int]:
    totals = dict.fromkeys(LAYERS, 0)
    for span, own in zip(spans, self_times_ns(spans)):
        totals[LAYER_OF[span[0]]] += own
    return totals


def per_image_ms(spans: list[list], names: tuple[str, ...]) -> list[float]:
    """Summed duration of the named spans, one sample per image id (spans
    without an image id form one sample per span)."""
    per_image: dict[int, int] = {}
    loose: list[int] = []
    for name, start, end, _parent, image in spans:
        if name not in names:
            continue
        if image is None:
            loose.append(end - start)
        else:
            per_image[image] = per_image.get(image, 0) + end - start
    return [ns / 1e6 for ns in (*per_image.values(), *loose)]


# per-layer time metric -> the span names it sums, per image or scene
LAYER_MS = {
    "simulator.scene_ms": ("simulate_scene",),
    "simulator.generate_ms": ("generate_scene",),
    "simulator.candidates_ms": ("simulate_candidates",),
    "simulator.crowd_index_ms": ("crowd_index",),
    "formats.write_ms": ("write_json_atomic", "annotations_to_payload",
                         "candidates_to_payload", "results_to_payload", "report_to_payload"),
    "formats.parse_ms": ("read_json", "parse_annotations_payload",
                         "parse_candidates_payload", "parse_results_payload"),
    "grouping.group_ms": ("group_candidates",),
    "graph.build_ms": ("build_graph",),
    "solver.solve_ms": ("solve_graph",),
    "solver.poses_ms": ("build_poses",),
    "solver.greedy_ms": ("greedy_baseline", "greedy_total_weight"),
    "metrics.evaluate_ms": ("evaluate",),
}
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it, as
    (value, percentile); the maximum, labelled 100, when there are too few."""
    n = len(samples)
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return percentile(samples, pct), pct
    return max(samples), 100.0


def layer_metrics(rounds: list[list[list]], scenes: int, wall_ns: list[int]) -> dict[str, dict]:
    """Per-layer timings from the spans of each traced round.

    ``_ms`` metrics give p50 and tail over images (``evaluate`` is one call
    per round and is spread over its ``scenes`` images) and the median
    per-round total; ``self_pct`` is a layer's self time as a share of the
    traced wall time ``wall_ns``.
    """
    out: dict[str, dict] = {}
    names = dict(LAYER_MS)
    names["cli.self_ms"] = (COMMAND_SPAN,)
    for metric, span_names in names.items():
        samples: list[float] = []
        totals: list[float] = []
        for spans in rounds:
            if metric == "cli.self_ms":
                values = [own / 1e6 for span, own in zip(spans, self_times_ns(spans))
                          if span[0] == COMMAND_SPAN]
                samples += values
                totals.append(sum(values))
                continue
            if metric == "metrics.evaluate_ms":
                calls = [(end - start) / 1e6 for name, start, end, _p, _i in spans
                         if name == "evaluate"]
                samples += [ms / scenes for ms in calls]
            else:
                samples += per_image_ms(spans, span_names)
            totals.append(sum((end - start) / 1e6 for name, start, end, _p, _i in spans
                              if name in span_names))
        tail_ms, tail_pct = tail(samples) if samples else (0.0, 100.0)
        out[metric] = {
            "p50": statistics.median(samples) if samples else 0.0,
            "tail": tail_ms,
            "tail_pct": tail_pct,
            "samples": len(samples),
            "total": statistics.median(totals) if totals else 0.0,
        }
    own = dict.fromkeys(LAYERS, 0)
    for spans in rounds:
        for layer, ns in layer_self_ns(spans).items():
            own[layer] += ns
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = {"value": 100.0 * own[layer] / sum(wall_ns)}
    return out
