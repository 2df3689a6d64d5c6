"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402  (puts the program's src/ on the path)
import posegraph.cli  # noqa: E402
import workloads  # noqa: E402
from tracing import REQUIRED, Tracer, TraceError  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "scenes-medium": workloads.Pipeline("scenes-medium", scenes=3, synth_args=(), solve_repeats=1,
                                        trace_rounds=1),
    "scenes-dense30": workloads.Pipeline(
        "scenes-dense30", scenes=1, synth_args=("--persons", "8", "--crowd-index", "1.0"),
        solve_repeats=2, trace_rounds=1),
    "solver-ring": workloads.Ring("solver-ring", size=40, min_solves=3, trace_batches=2),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    for name, workload in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_listed_metric(tiny, name, trace, capsys):
    result = run.run_one(name, seed=5, seconds=0, trace=bool(trace), bench=BENCH)
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        row = result["metrics"][metric["name"]]
        assert row["unit"] == metric["unit"]
        assert isinstance(row["value"], (int, float))
    printed = capsys.readouterr().out
    assert "error_rate" in printed
    if trace:
        assert "heatmaps" in printed and "unmeasured" in printed
    else:
        assert all(m["name"] in printed for m in listed)


def test_corrupt_results_file_trips_gate_and_counts_as_failure(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    original = run.run_round

    def corrupting(*args, **kwargs):
        rnd = original(*args, **kwargs)
        target = rnd.results("global") / "scene_000.results.json"
        target.write_bytes(target.read_bytes().replace(b'"score": ', b'"score":  ', 1))
        return rnd

    monkeypatch.setattr(run, "run_round", corrupting)
    # The default seed, so the reference digests apply.
    result = run.run_one("scenes-medium", seed=run.DEFAULT_SEED, seconds=0, trace=False,
                         bench=BENCH)
    errors = capsys.readouterr().err
    assert not result["correct"]
    # one failure from the check pass, one from the reference gate
    assert result["failed"] == 2
    assert "scene_000.candidates.json" in errors and "reference.json" in errors


def test_missing_required_name_fails_the_traced_run(tiny, monkeypatch):
    monkeypatch.delattr(posegraph.cli, "group_candidates")
    with pytest.raises(TraceError, match="group_candidates"):
        run.run_one("scenes-medium", seed=5, seconds=0, trace=True, bench=BENCH)


def test_tracer_restores_the_program_after_the_block():
    before = {name: getattr(posegraph.cli, name) for name in REQUIRED}
    with Tracer().patched():
        assert all(getattr(posegraph.cli, name) is not fn for name, fn in before.items())
    assert all(getattr(posegraph.cli, name) is fn for name, fn in before.items())


def test_layer_timings_come_from_the_fixed_traced_rounds(tiny, capsys):
    # Enough seconds for several traced rounds; only the first trace_rounds count.
    run.run_one("scenes-medium", seed=5, seconds=1.0, trace=True, bench=BENCH)
    printed = capsys.readouterr().out
    assert int(printed.split("rounds ")[1].split()[0]) > 1
    trace = json.loads((run.OUT / "trace-scenes-medium-seed5.json").read_text(encoding="utf-8"))
    assert trace["layers"]["solver.solve_ms"]["samples"] == TINY["scenes-medium"].scenes


def test_a_listed_time_that_reads_zero_fails_the_run(tiny):
    bench = dict(BENCH, per_layer=[{"name": "formats.write_ms.p50", "unit": "ms",
                                    "better": "lower"}])
    with pytest.raises(RuntimeError, match="formats.write_ms.p50"):
        run.run_one("solver-ring", seed=5, seconds=0, trace=True, bench=bench)
