import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posegraph
from posegraph.cli import main
from posegraph.formats import candidates_to_payload, dump_json, read_json
from posegraph.joints import OKS_SIGMAS, default_grouping_deltas
from posegraph.simulator import SceneSpec, simulate_scene


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_clean(tmp_path, capsys, name="scenes", scenes=2, seed=3):
    out = tmp_path / name
    code, stdout, _ = run(
        capsys, "synth", "--scenes", str(scenes), "--crowd-index", "0",
        "--noise", "0", "--fp-rate", "0", "--missing-rate", "0",
        "--seed", str(seed), "--out", str(out),
    )
    assert code == 0
    return out, stdout


def test_synth_writes_scene_files(tmp_path, capsys):
    out = tmp_path / "scenes"
    code, stdout, _ = run(
        capsys, "synth", "--scenes", "2", "--seed", "5", "--out", str(out)
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "scene_000.annotations.json",
        "scene_000.candidates.json",
        "scene_001.annotations.json",
        "scene_001.candidates.json",
    ]
    assert "wrote 2 scene(s)" in stdout
    assert "mean crowd index" in stdout
    assert "crowd_index=" in stdout


def test_synth_is_deterministic(tmp_path, capsys):
    args = ["synth", "--scenes", "2", "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_rejects_out_of_range_crowd_index(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "synth", "--crowd-index", "1.5", "--out", str(tmp_path / "x")
    )
    assert code == 2
    assert "target_crowd_index must lie in [0, 1], got 1.5" in stderr
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--fp-rate", "-0.1"], "fp_rate must lie in [0, 1], got -0.1"),
        (["--missing-rate", "2"], "missing_rate must lie in [0, 1], got 2.0"),
        (["--persons", "0"], "invalid person count range [0, 0]"),
        (["--person-min", "7"], "invalid person count range [7, 6]"),
        (["--person-max", "1"], "invalid person count range [2, 1]"),
        (["--noise", "nan"], "sigma_noise must be >= 0 and finite, got nan"),
        (["--seed", "-1"], "seed must be non-negative"),
        (["--mu", "2"], "mu must lie in [0, 1], got 2.0"),
        (["--sigma", "1e-7"], "above 5e-07 to stay non-zero at the 6 decimals"),
    ],
    ids=["fp-rate", "missing-rate", "persons", "person-min",
         "person-max", "noise", "seed", "mu", "sigma"],
)
def test_synth_refuses_a_bad_setting_before_writing(tmp_path, capsys, flags, message):
    # SceneSpec owns every synth setting; its message names the field, and
    # the output directory is never created.
    code, stdout, stderr = run(capsys, "synth", *flags, "--out", str(tmp_path / "x"))
    assert code == 2
    assert message in stderr
    assert stdout == ""
    assert not (tmp_path / "x").exists()


def test_synth_smallest_sigma_round_trips_through_associate(tmp_path, capsys):
    # 1e-6 is the smallest response size the 6-decimal candidate file keeps.
    out = tmp_path / "scenes"
    code, _, _ = run(capsys, "synth", "--sigma", "1e-6", "--seed", "2", "--out", str(out))
    assert code == 0
    assert read_json(out / "scene_000.candidates.json")["candidates"][0]["u"] == 1e-6
    code, _, stderr = run(capsys, "associate", str(out))
    assert code == 0, stderr


def test_synth_defaults_are_the_scene_spec_defaults(tmp_path, capsys):
    # The CLI keeps no default of its own: no flags write SceneSpec()'s scene.
    out = tmp_path / "scenes"
    assert main(["synth", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    scene = simulate_scene(SceneSpec(seed=4))
    want = candidates_to_payload(
        scene.annotation.image_id, scene.proposals, scene.candidates
    )
    assert (out / "scene_000.candidates.json").read_text() == dump_json(want)


def test_associate_directory_end_to_end(tmp_path, capsys):
    out, _ = synth_clean(tmp_path, capsys)
    code, stdout, _ = run(capsys, "associate", str(out))
    assert code == 0
    results = sorted(p.name for p in out.glob("*.results.json"))
    assert results == ["scene_000.results.json", "scene_001.results.json"]
    lines = [l for l in stdout.splitlines() if l.startswith("image ")]
    assert len(lines) == 2
    assert all("total_weight=" in l for l in lines)


def _total_weights(stdout):
    return [
        float(line.rsplit("total_weight=", 1)[1])
        for line in stdout.splitlines()
        if "total_weight=" in line
    ]


def test_global_weight_dominates_greedy_at_cli_level(tmp_path, capsys):
    out = tmp_path / "scenes"
    assert main(["synth", "--scenes", "3", "--crowd-index", "0.7",
                 "--seed", "21", "--out", str(out)]) == 0
    capsys.readouterr()
    code, global_out, _ = run(capsys, "associate", str(out), "--method", "global")
    assert code == 0
    code, greedy_out, _ = run(capsys, "associate", str(out), "--method", "greedy")
    assert code == 0
    for g, h in zip(_total_weights(global_out), _total_weights(greedy_out)):
        assert g >= h


def test_associate_single_file_with_explicit_out(tmp_path, capsys):
    out, _ = synth_clean(tmp_path, capsys)
    target = tmp_path / "poses.results.json"
    code, _, _ = run(
        capsys, "associate", str(out / "scene_000.candidates.json"),
        "--out", str(target),
    )
    assert code == 0
    payload = read_json(target)
    assert payload["poses"]


def test_associate_empty_candidates_yields_empty_results(tmp_path, capsys):
    src = tmp_path / "empty.candidates.json"
    src.write_text(json.dumps(
        {"image_id": 4, "proposals": [], "candidates": []}
    ))
    code, stdout, _ = run(capsys, "associate", str(src))
    assert code == 0
    payload = read_json(tmp_path / "empty.results.json")
    assert payload == {"image_id": 4, "poses": []}
    assert "poses=0" in stdout


def test_associate_missing_input_is_usage_error(tmp_path, capsys):
    code, _, stderr = run(capsys, "associate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "no such file" in stderr


def test_associate_empty_directory_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, stderr = run(capsys, "associate", str(empty))
    assert code == 2
    assert "candidates.json" in stderr


def test_associate_malformed_json_is_parse_error(tmp_path, capsys):
    src = tmp_path / "bad.candidates.json"
    src.write_text("{broken")
    code, _, stderr = run(capsys, "associate", str(src))
    assert code == 2
    assert "error" in stderr


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_associate_non_finite_number_is_parse_error(tmp_path, token):
    # An Infinity response once hung the solver and NaN silently dropped the
    # edge; a child process bounds the run so a regression cannot hang.
    src = tmp_path / "bad.candidates.json"
    src.write_text(
        '{"image_id": 0, "proposals": [{"proposal_id": 0, '
        '"bbox": [0, 0, 10, 10], "score": 1.0}], "candidates": ['
        '{"proposal_id": 0, "joint_type": 0, "x": 1.0, "y": 2.0, '
        f'"response": {token}, "u": 2.0}}]}}'
    )
    src_dir = str(Path(posegraph.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])
    )}
    child = subprocess.run(
        [sys.executable, "-m", "posegraph", "associate", str(src)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 2
    assert f"error: {src}: non-finite number {token}" in child.stderr
    assert not (tmp_path / "bad.results.json").exists()


@pytest.mark.parametrize("method", ["global", "greedy"])
def test_associate_total_weight_overflow_is_named_error(tmp_path, method):
    # Two finite 1e308 edges sum past the float range, so math.fsum raises
    # OverflowError; it must end as a named error, not a traceback.
    src = tmp_path / "huge.candidates.json"
    src.write_text(json.dumps({
        "image_id": 0,
        "proposals": [{"proposal_id": 0, "bbox": [0, 0, 10, 10], "score": 1.0}],
        "candidates": [
            {"proposal_id": 0, "joint_type": k, "x": 1.0, "y": 2.0,
             "response": 1e308, "u": 2.0}
            for k in (0, 1)
        ],
    }))
    src_dir = str(Path(posegraph.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])
    )}
    child = subprocess.run(
        [sys.executable, "-m", "posegraph", "associate", str(src),
         "--method", method],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 2
    assert f"error: {src}: intermediate overflow in fsum" in child.stderr
    assert "Traceback" not in child.stderr
    assert not (tmp_path / "huge.results.json").exists()


_PROPOSAL = {"proposal_id": 0, "bbox": [0, 0, 10, 10], "score": 1.0}
_CANDIDATE = {"proposal_id": 0, "joint_type": 0, "x": 1.0, "y": 2.0,
              "response": 0.5, "u": 2.0}
_CANDIDATES = {"image_id": 0, "proposals": [_PROPOSAL], "candidates": [_CANDIDATE]}
_ANNOTATIONS = {"images": [{"id": 0, "width": 640, "height": 480}],
                "annotations": []}
_RESULTS = {"image_id": 0, "poses": []}
_POSE = {"proposal_id": 0, "score": 1.0, "keypoints": [[None, 2, 3]] + [None] * 13}
_PERSON = {"image_id": 0, "person_id": 0, "bbox": [0, 0, 10, 10],
           "keypoints": [1.0, 1.0, 2] * 14}


@pytest.mark.parametrize(
    "document,payload,named",
    [
        ("candidates", {**_CANDIDATES, "proposals": 7}, "proposals"),
        ("candidates", {**_CANDIDATES, "provenance": 5}, "provenance"),
        ("candidates", {**_CANDIDATES, "candidates": [{**_CANDIDATE, "x": [1]}]},
         "'x' must be a number, got a list"),
        ("candidates", {**_CANDIDATES, "image_id": None},
         "'image_id' must be a number, got null"),
        ("candidates",
         {**_CANDIDATES, "proposals": [{**_PROPOSAL, "bbox": [0, 0, None, 10]}]},
         "bbox field 'w' must be a number, got null"),
        ("annotations", {**_ANNOTATIONS, "images": 5}, "images"),
        ("results", {**_RESULTS, "poses": [_POSE]},
         "pose keypoint field 'x' must be a number, got null"),
        ("config", {"delta": ["abc"]}, "'delta' must be a number, got a string"),
        ("config", {"oks_sigmas": [True]}, "'oks_sigmas' must be a number, got a boolean"),
        ("config", {"delta": [[2]]}, "'delta' must be a number, got a list"),
        ("config", {"delta": 5}, "'delta' must be a list of numbers"),
        # int() once truncated a non-integral id or count silently (1.5 -> 1)
        ("candidates", {**_CANDIDATES, "image_id": 3.7},
         "'image_id' must be an integer, got 3.7"),
        ("candidates", {**_CANDIDATES, "proposals": [{**_PROPOSAL, "proposal_id": 1.5}]},
         "'proposal_id' must be an integer"),
        ("candidates", {**_CANDIDATES, "candidates": [{**_CANDIDATE, "joint_type": 2.9}]},
         "'joint_type' must be an integer"),
        ("candidates", {**_CANDIDATES, "provenance": [[0.5, 0]]},
         "'person_id' must be an integer"),
        ("candidates", {**_CANDIDATES, "provenance": [[0, 0.5]]},
         "'joint_type' must be an integer"),
        ("annotations", {**_ANNOTATIONS, "images": [{"id": 0.5, "width": 640, "height": 480}]},
         "'id' must be an integer"),
        ("annotations", {**_ANNOTATIONS, "images": [{"id": 0, "width": 640.5, "height": 480}]},
         "'width' must be an integer"),
        ("annotations", {**_ANNOTATIONS, "images": [{"id": 0, "width": 640, "height": 0.5}]},
         "'height' must be an integer"),
        ("annotations", {**_ANNOTATIONS, "annotations": [{**_PERSON, "person_id": 0.5}]},
         "'person_id' must be an integer"),
        ("annotations",
         {**_ANNOTATIONS, "annotations": [{**_PERSON, "keypoints": [1.0, 1.0, 1.5] * 14}]},
         "'v' must be an integer"),
        ("results", {**_RESULTS, "image_id": 0.25}, "'image_id' must be an integer"),
        ("results", {**_RESULTS, "poses": [{**_POSE, "proposal_id": 0.5,
                                            "keypoints": [None] * 14}]},
         "'proposal_id' must be an integer"),
        # An entry that must be an object was once read by position when
        # written as a list: a full one parsed, a short one failed unnamed.
        ("candidates", {**_CANDIDATES, "candidates": [[0, 0, 1.0, 2.0, 0.5, 2.0]]},
         "candidate entry must be a JSON object"),
        ("annotations", {**_ANNOTATIONS, "images": [[0, 640, 480]]},
         "image entry must be a JSON object"),
        ("candidates", {**_CANDIDATES, "candidates": [[0]]},
         "candidate entry must be a JSON object"),
        ("candidates", {**_CANDIDATES, "proposals": [[0]]},
         "proposal entry must be a JSON object"),
        ("annotations", {**_ANNOTATIONS, "images": [[0]]},
         "image entry must be a JSON object"),
        ("annotations", {**_ANNOTATIONS, "annotations": [[0]]},
         "annotation entry must be a JSON object"),
        ("candidates", [], "candidates document must be a JSON object"),
        ("results", [], "results document must be a JSON object"),
    ],
    ids=["proposals-number", "provenance-number", "x-list", "image_id-null",
         "bbox-null", "images-number", "keypoint-null", "delta-entry-string",
         "oks_sigmas-entry-boolean", "delta-entry-list", "delta-number", "image_id-fraction", "proposal_id-fraction",
         "joint_type-fraction", "provenance-person_id-fraction",
         "provenance-joint_type-fraction", "image-id-fraction", "width-fraction",
         "height-fraction", "person_id-fraction", "visibility-fraction",
         "results-image_id-fraction", "pose-proposal_id-fraction",
         "candidate-list", "image-list", "candidate-short-list", "proposal-short-list",
         "image-short-list", "annotation-short-list", "candidates-empty-list",
         "results-empty-list"],
)
def test_wrong_json_type_is_named_error(tmp_path, capsys, document, payload, named):
    # Each document once raised TypeError (or, for a boolean, was read as a
    # number, or for a fraction under an integer field, truncated); a wrong
    # type must end as a named error, exit 2.
    docs = {"candidates": _CANDIDATES, "annotations": _ANNOTATIONS,
            "results": _RESULTS, "config": {}}
    docs[document] = payload
    for name, doc in docs.items():
        (tmp_path / f"in.{name}.json").write_text(json.dumps(doc))
    if document in ("candidates", "config"):
        written = tmp_path / "out.results.json"
        argv = ["associate", str(tmp_path / "in.candidates.json"),
                "--config", str(tmp_path / "in.config.json"), "--out", str(written)]
    else:
        written = tmp_path / "report.json"
        argv = ["evaluate", "--results", str(tmp_path / "in.results.json"),
                "--annotations", str(tmp_path / "in.annotations.json"),
                "--out", str(written)]
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert stderr.startswith("error: ")
    assert named in stderr
    assert "Traceback" not in stderr
    assert not written.exists()


@pytest.mark.parametrize("size", [1e-200, 1e200])
def test_associate_proposal_box_without_area_is_named_error(tmp_path, capsys, size):
    # The area of such a box underflows to 0 or overflows to inf; the
    # proposal was once accepted and reached bbox_iou.
    src = tmp_path / "in.candidates.json"
    proposal = {**_PROPOSAL, "bbox": [0, 0, size, size]}
    src.write_text(json.dumps({**_CANDIDATES, "proposals": [proposal]}))
    written = tmp_path / "out.results.json"
    code, _, stderr = run(capsys, "associate", str(src), "--out", str(written))
    assert code == 2
    assert stderr.startswith(f"error: {src}: bbox must be finite with positive area")
    assert not written.exists()


def test_associate_dangling_reference_is_integrity_error(tmp_path, capsys):
    src = tmp_path / "dangling.candidates.json"
    src.write_text(json.dumps({
        "image_id": 0,
        "proposals": [],
        "candidates": [{"proposal_id": 5, "joint_type": 0, "x": 1.0, "y": 2.0,
                        "response": 0.5, "u": 2.0}],
    }))
    code, _, stderr = run(capsys, "associate", str(src))
    assert code == 1
    assert "integrity error" in stderr


def test_associate_directory_input_writes_into_a_directory(tmp_path, capsys):
    # --out was once a directory only when the input held more than one
    # file: a one-scene directory wrote a file at --out, and once a second
    # scene was added the same command failed on that file.
    scenes, results = tmp_path / "scenes", tmp_path / "results"
    assert main(["synth", "--scenes", "1", "--seed", "3", "--out", str(scenes)]) == 0
    assert main(["associate", str(scenes), "--out", str(results)]) == 0
    assert sorted(p.name for p in results.iterdir()) == ["scene_000.results.json"]
    assert main(["synth", "--scenes", "2", "--seed", "3", "--out", str(scenes)]) == 0
    assert main(["associate", str(scenes), "--out", str(results)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in results.iterdir()) == [
        "scene_000.results.json", "scene_001.results.json",
    ]


def test_associate_file_input_writes_the_named_file_or_into_a_directory(
    tmp_path, capsys
):
    scenes, _ = synth_clean(tmp_path, capsys, scenes=1)
    src = scenes / "scene_000.candidates.json"
    written, existing = tmp_path / "out.json", tmp_path / "existing"
    existing.mkdir()
    assert main(["associate", str(src), "--out", str(written)]) == 0
    assert main(["associate", str(src), "--out", str(existing)]) == 0
    capsys.readouterr()
    assert written.is_file()
    assert (existing / "scene_000.results.json").read_bytes() == written.read_bytes()


def test_associate_error_names_the_file(tmp_path, capsys):
    # A bad candidate in the second of two scenes once printed only the
    # constructor's message, after the first scene's results were written.
    scenes = tmp_path / "scenes"
    assert main(["synth", "--scenes", "2", "--seed", "3", "--out", str(scenes)]) == 0
    bad = scenes / "scene_001.candidates.json"
    doc = read_json(bad)
    doc["candidates"][83]["response"] = -1
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code, _, stderr = run(capsys, "associate", str(scenes), "--out", str(tmp_path / "r"))
    assert code == 2
    assert stderr == f"error: {bad}: response must be positive and finite, got -1.0\n"


@pytest.mark.parametrize(
    "kind,edit,message",
    [
        ("annotations", lambda doc: doc["annotations"][0]["bbox"].__setitem__(2, 0),
         "bbox must be finite with positive area"),
        ("results", lambda doc: doc["poses"][0].__setitem__("score", "x"),
         "pose entry field 'score' must be a number, got a string"),
        ("results", lambda doc: doc["poses"][0]["keypoints"].pop(),
         "pose keypoints must hold 14 entries"),
        ("results", lambda doc: doc["poses"][0].__setitem__("keypoints", 5),
         "pose entry field 'keypoints' must be a list"),
    ],
    ids=["annotations", "results", "results-keypoint-count", "results-keypoints-not-list"],
)
def test_evaluate_error_names_the_file(tmp_path, capsys, kind, edit, message):
    out, _ = synth_clean(tmp_path, capsys)
    assert main(["associate", str(out)]) == 0
    bad = out / f"scene_001.{kind}.json"
    doc = read_json(bad)
    edit(doc)
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code, stdout, stderr = run(
        capsys, "evaluate", "--results", str(out), "--annotations", str(out)
    )
    assert code == 2
    assert stderr.startswith(f"error: {bad}: {message}")
    assert stdout == ""


def _associate_with_config(tmp_path, capsys, text):
    # associate on one small candidates file, with ``text`` as its config file.
    (tmp_path / "in.candidates.json").write_text(json.dumps(_CANDIDATES))
    config = tmp_path / "config.json"
    config.write_text(text)
    written = tmp_path / "out.results.json"
    code, stdout, stderr = run(
        capsys, "associate", str(tmp_path / "in.candidates.json"),
        "--config", str(config), "--out", str(written),
    )
    return code, stdout, stderr, config, written


def test_config_error_names_the_file_once(tmp_path, capsys):
    code, _, stderr, config, _ = _associate_with_config(tmp_path, capsys, "[1, 2]")
    assert code == 2
    assert stderr == f"error: {config}: config file must hold a JSON object\n"


def test_evaluate_clean_pipeline_reaches_perfect_map(tmp_path, capsys):
    out, _ = synth_clean(tmp_path, capsys)
    assert main(["associate", str(out)]) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "evaluate", "--results", str(out), "--annotations", str(out),
        "--out", str(report_path),
    )
    assert code == 0
    assert "map_50_95    1.0000" in stdout
    assert "mar_50_95    1.0000" in stdout
    payload = read_json(report_path)
    assert payload["map_50_95"] == 1.0
    assert set(payload) == {
        "map_50_95", "map_50", "map_75", "mar_50_95", "mar_50", "mar_75",
        "ap_easy", "ap_medium", "ap_hard",
    }


def test_evaluate_unknown_image_is_integrity_error(tmp_path, capsys):
    out, _ = synth_clean(tmp_path, capsys)
    assert main(["associate", str(out)]) == 0
    capsys.readouterr()
    rogue = read_json(out / "scene_000.results.json")
    rogue["image_id"] = 999
    (out / "scene_000.results.json").write_text(json.dumps(rogue))
    code, _, stderr = run(
        capsys, "evaluate", "--results", str(out), "--annotations", str(out)
    )
    assert code == 1
    assert "integrity error" in stderr


def test_evaluate_duplicate_image_id_is_named_error(tmp_path, capsys):
    # The second entry's size used to replace the first's, and evaluate
    # exited 0.
    annotations = {**_ANNOTATIONS, "images": [
        {"id": 0, "width": 640, "height": 480},
        {"id": 0, "width": 10, "height": 10},
    ]}
    (tmp_path / "in.annotations.json").write_text(json.dumps(annotations))
    (tmp_path / "in.results.json").write_text(json.dumps(_RESULTS))
    report = tmp_path / "report.json"
    code, stdout, stderr = run(
        capsys, "evaluate", "--results", str(tmp_path / "in.results.json"),
        "--annotations", str(tmp_path / "in.annotations.json"), "--out", str(report),
    )
    assert code == 1
    assert stderr == f"integrity error: {tmp_path / 'in.annotations.json'}: duplicate image_id 0\n"
    assert "map_50_95" not in stdout
    assert not report.exists()


def test_evaluate_duplicate_image_id_across_files_is_integrity_error(tmp_path, capsys):
    annotations = tmp_path / "annotations"
    annotations.mkdir()
    for stem in ("a", "b"):
        (annotations / f"{stem}.annotations.json").write_text(json.dumps(_ANNOTATIONS))
    (tmp_path / "in.results.json").write_text(json.dumps(_RESULTS))
    code, stdout, stderr = run(
        capsys, "evaluate", "--results", str(tmp_path / "in.results.json"),
        "--annotations", str(annotations),
    )
    first, second = (annotations / f"{stem}.annotations.json" for stem in ("a", "b"))
    assert (code, stdout, stderr) == (
        1, "", f"integrity error: duplicate image_id 0 in {first} and {second}\n"
    )


def test_evaluate_unknown_image_names_the_results_file(tmp_path, capsys):
    (tmp_path / "in.annotations.json").write_text(json.dumps(_ANNOTATIONS))
    results = tmp_path / "in.results.json"
    results.write_text(json.dumps({**_RESULTS, "image_id": 7}))
    code, stdout, stderr = run(
        capsys, "evaluate", "--results", str(results),
        "--annotations", str(tmp_path / "in.annotations.json"),
    )
    assert (code, stdout, stderr) == (
        1, "", f"integrity error: {results}: predictions reference unknown image 7\n"
    )


def test_evaluate_duplicate_results_names_both_files(tmp_path, capsys):
    out, _ = synth_clean(tmp_path, capsys)
    results = tmp_path / "results"
    assert main(["associate", str(out), "--out", str(results)]) == 0
    capsys.readouterr()
    first = results / "scene_000.results.json"
    copy = results / "scene_000_copy.results.json"
    copy.write_bytes(first.read_bytes())
    image_id = read_json(first)["image_id"]
    code, stdout, stderr = run(
        capsys, "evaluate", "--results", str(results), "--annotations", str(out)
    )
    assert (code, stdout) == (1, "")
    assert stderr == (
        f"integrity error: duplicate results for image_id {image_id} in {first} and {copy}\n"
    )


def test_evaluate_repeated_proposal_id_is_named_error(tmp_path, capsys):
    # A copied pose used to be scored as one more detection, lowering the
    # mAP with exit 0.
    out, _ = synth_clean(tmp_path, capsys)
    assert main(["associate", str(out)]) == 0
    capsys.readouterr()
    bad = out / "scene_000.results.json"
    doc = read_json(bad)
    pose = doc["poses"][1]
    doc["poses"].append({**pose, "score": 0.99})
    bad.write_text(json.dumps(doc))
    code, stdout, stderr = run(
        capsys, "evaluate", "--results", str(out), "--annotations", str(out)
    )
    assert (code, stdout) == (1, "")
    assert stderr == f"integrity error: {bad}: duplicate proposal_id {pose['proposal_id']}\n"


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([_CANDIDATE] * 3 + [{**_CANDIDATE, "proposal_id": 99}],
         (1, "integrity error: {path}: candidate 3 references unknown proposal_id 99\n")),
        ([_CANDIDATE, {**_CANDIDATE, "joint_type": 14}],
         (2, "error: {path}: joint_type 14 out of range for 14 joints\n")),
    ],
    ids=["unknown-proposal", "joint_type-14"],
)
def test_associate_bad_candidate_exit_and_message(tmp_path, capsys, rows, expected):
    path = tmp_path / "in.candidates.json"
    path.write_text(json.dumps({**_CANDIDATES, "candidates": rows}))
    written = tmp_path / "out.results.json"
    code, stdout, stderr = run(capsys, "associate", str(path), "--out", str(written))
    assert (code, stderr) == (expected[0], expected[1].format(path=path))
    assert stdout == ""
    assert not written.exists()


def test_evaluate_nonpositive_image_size_is_named_error(tmp_path, capsys):
    # An image of width -640 and height 0 was once evaluated with exit 0.
    annotations = {**_ANNOTATIONS, "images": [{"id": 0, "width": -640, "height": 0}]}
    (tmp_path / "in.annotations.json").write_text(json.dumps(annotations))
    (tmp_path / "in.results.json").write_text(json.dumps(_RESULTS))
    code, stdout, stderr = run(
        capsys, "evaluate", "--results", str(tmp_path / "in.results.json"),
        "--annotations", str(tmp_path / "in.annotations.json"),
    )
    assert code == 2
    assert stderr == (f"error: {tmp_path / 'in.annotations.json'}: "
                      "image 0 width and height must be positive, got -640 and 0\n")
    assert stdout == ""


def test_evaluate_out_of_range_bbox_is_parse_error(tmp_path, capsys):
    # A width of 1e309 would overflow to inf; evaluate must refuse the file
    # rather than score it.
    out, _ = synth_clean(tmp_path, capsys, scenes=1)
    assert main(["associate", str(out)]) == 0
    capsys.readouterr()
    path = out / "scene_000.annotations.json"
    doc = read_json(path)
    doc["annotations"][0]["bbox"][2] = "WIDTH"
    path.write_text(json.dumps(doc).replace('"WIDTH"', "1e309"))
    code, stdout, stderr = run(
        capsys, "evaluate", "--results", str(out), "--annotations", str(out)
    )
    assert code == 2
    assert "non-finite number 1e309" in stderr
    assert "map_50_95" not in stdout


def _evaluate_one_person(tmp_path, capsys, person, keypoints, config=None):
    # One annotated person and one predicted pose on image 0.
    (tmp_path / "in.annotations.json").write_text(
        json.dumps({**_ANNOTATIONS, "annotations": [person]})
    )
    pose = {"proposal_id": 0, "score": 1.0, "keypoints": keypoints}
    (tmp_path / "in.results.json").write_text(json.dumps({**_RESULTS, "poses": [pose]}))
    argv = ["evaluate", "--results", str(tmp_path / "in.results.json"),
            "--annotations", str(tmp_path / "in.annotations.json")]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    return run(capsys, *argv)


def test_evaluate_far_keypoint_scores_zero(tmp_path, capsys):
    # Squaring a displacement of 1e200 once raised OverflowError, and
    # evaluate exited 2; that joint scores 0, so OKS is 13/14.
    keypoints = [[1e200, 1.0, 1.0]] + [[1.0, 1.0, 1.0]] * 13
    code, stdout, stderr = _evaluate_one_person(tmp_path, capsys, _PERSON, keypoints)
    assert (code, stderr) == (0, "")
    assert "map_50_95    0.9000" in stdout


def test_evaluate_zero_area_bbox_is_named_error(tmp_path, capsys):
    # 1e-200 * 1e-200 underflows to zero area, which once divided by zero.
    person = {**_PERSON, "bbox": [0, 0, 1e-200, 1e-200]}
    code, stdout, stderr = _evaluate_one_person(
        tmp_path, capsys, person, [[1.0, 1.0, 1.0]] * 14
    )
    assert code == 2
    assert stderr.startswith(
        f"error: {tmp_path / 'in.annotations.json'}: bbox must be finite with positive area"
    )
    assert "map_50_95" not in stdout


def test_evaluate_underflowing_oks_sigma_takes_the_limit(tmp_path, capsys):
    # 2 s^2 kappa^2 underflows to zero for sigma 1e-200: an exact hit scores
    # 1 and any miss 0, where the division once raised ZeroDivisionError.
    keypoints = [[1.5, 1.0, 1.0]] + [[1.0, 1.0, 1.0]] * 13
    code, stdout, stderr = _evaluate_one_person(
        tmp_path, capsys, _PERSON, keypoints, config={"oks_sigmas": [1e-200] * 14}
    )
    assert (code, stderr) == (0, "")
    assert "map_50_95    0.9000" in stdout


@pytest.mark.parametrize("document", ["candidates", "config"])
def test_deeply_nested_json_is_named_error(tmp_path, capsys, document):
    # The parser's RecursionError once ended in a traceback with exit 1.
    (tmp_path / "in.candidates.json").write_text(json.dumps(_CANDIDATES))
    (tmp_path / "in.config.json").write_text("{}")
    bad = tmp_path / f"in.{document}.json"
    bad.write_text("[" * 100_000)
    written = tmp_path / "out.results.json"
    code, _, stderr = run(
        capsys, "associate", str(tmp_path / "in.candidates.json"),
        "--config", str(tmp_path / "in.config.json"), "--out", str(written),
    )
    assert code == 2
    assert stderr == f"error: {bad}: JSON nested too deeply\n"
    assert not written.exists()


_HUGE_INT = "1" + "0" * 400


def test_associate_oversized_integer_is_named_error(tmp_path, capsys):
    # An integer past the float range once ended as "int too large to
    # convert to float", naming no field.
    src = tmp_path / "in.candidates.json"
    src.write_text(json.dumps(_CANDIDATES).replace('"x": 1.0', f'"x": {_HUGE_INT}'))
    written = tmp_path / "out.results.json"
    code, _, stderr = run(capsys, "associate", str(src), "--out", str(written))
    assert code == 2
    assert stderr == f"error: {src}: candidate entry field 'x' is beyond the float range\n"
    assert not written.exists()


def test_config_oversized_integer_is_named_error(tmp_path, capsys):
    code, _, stderr, config, written = _associate_with_config(
        tmp_path, capsys, f'{{"delta": [{_HUGE_INT}]}}'
    )
    assert code == 2
    assert stderr == f"error: {config}: config file field 'delta' is beyond the float range\n"
    assert not written.exists()


def test_evaluate_missing_results_is_usage_error(tmp_path, capsys):
    out, _ = synth_clean(tmp_path, capsys)
    code, _, stderr = run(
        capsys, "evaluate", "--results", str(tmp_path / "nothing"),
        "--annotations", str(out),
    )
    assert code == 2
    assert "error" in stderr


@pytest.mark.parametrize(
    "command,config,message",
    [
        ("associate", {"delta": [1.0] * 5}, "delta must have one entry per joint"),
        ("associate", {"delta": [0.0] * 14}, "every delta entry must be positive"),
        ("evaluate", {"oks_sigmas": [0.1, 0.1]}, "oks_sigmas must have 14 entries"),
        # Every synth setting is a synth flag, so a config file cannot name one.
        ("associate", {"mu": 0.5}, "unknown config field(s): mu"),
        ("evaluate", {"mu": 0.5}, "unknown config field(s): mu"),
        ("associate", {"sigma": 2.0}, "unknown config field(s): sigma"),
        ("evaluate", {"sigma": 2.0}, "unknown config field(s): sigma"),
    ],
)
def test_config_range_error_names_the_file(tmp_path, capsys, command, config, message):
    # load_config_file checks the keys and JointSpec the ranges while the
    # file is read, so the message names it.
    scenes, _ = synth_clean(tmp_path, capsys)
    assert main(["associate", str(scenes)]) == 0
    capsys.readouterr()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = {
        "associate": [str(scenes), "--out", str(tmp_path / "x")],
        "evaluate": ["--results", str(scenes), "--annotations", str(scenes),
                     "--out", str(tmp_path / "x")],
    }[command]
    code, stdout, stderr = run(capsys, command, "--config", str(path), *argv)
    assert code == 2
    assert stderr.startswith(f"error: {path}: {message}")
    assert stdout == ""
    assert not (tmp_path / "x").exists()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    code, _, stderr, _, _ = _associate_with_config(tmp_path, capsys, '{"deltaa": [0.9]}')
    assert code == 2
    assert "deltaa" in stderr


def test_config_file_cannot_set_the_seed(tmp_path, capsys):
    # --seed alone decides the scenes, so a config file cannot name a seed.
    code, _, stderr, _, written = _associate_with_config(tmp_path, capsys, '{"seed": 7}')
    assert code == 2
    assert "unknown config field(s): seed" in stderr
    assert not written.exists()


def test_synth_takes_no_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{}")
    with pytest.raises(SystemExit) as exit_:
        main(["synth", "--config", str(config), "--out", str(tmp_path / "x")])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_file_of_the_default_tables_changes_nothing(tmp_path, capsys):
    scenes, _ = synth_clean(tmp_path, capsys)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"delta": list(default_grouping_deltas()), "oks_sigmas": list(OKS_SIGMAS)}
    ))
    for name, config in (("plain", []), ("configured", ["--config", str(path)])):
        assert main(["associate", str(scenes), "--out", str(tmp_path / name), *config]) == 0
        assert main(["evaluate", "--results", str(tmp_path / name), "--annotations",
                     str(scenes), "--out", str(tmp_path / f"{name}.json"), *config]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "configured").iterdir())
    for name in names:
        assert (tmp_path / "plain" / name).read_bytes() == (
            tmp_path / "configured" / name).read_bytes()
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "configured.json").read_bytes()


def test_each_command_reads_only_its_own_table(tmp_path, capsys):
    # Both commands load one JointSpec. Each table changes the output of the
    # command that reads it, and nothing in the other command's output. With
    # half-pixel noise these scenes score alike for any sigma from 0.03 up.
    scenes = tmp_path / "scenes"
    assert main(["synth", "--scenes", "2", "--seed", "0", "--out", str(scenes)]) == 0
    tables = {"sigmas": {"oks_sigmas": [0.01] * 14},
              "delta": {"delta": [2 * d for d in default_grouping_deltas()]}}
    configs = {"plain": []}
    for name, table in tables.items():
        (tmp_path / f"{name}.config.json").write_text(json.dumps(table))
        configs[name] = ["--config", str(tmp_path / f"{name}.config.json")]
    for name, config in configs.items():
        assert main(["associate", str(scenes), "--out", str(tmp_path / name), *config]) == 0
        assert main(["evaluate", "--results", str(tmp_path / "plain"), "--annotations",
                     str(scenes), "--out", str(tmp_path / f"{name}.json"), *config]) == 0
    capsys.readouterr()

    def results(name):
        return [p.read_bytes() for p in sorted((tmp_path / name).iterdir())]

    def report(name):
        return (tmp_path / f"{name}.json").read_bytes()

    assert results("sigmas") == results("plain")
    assert report("delta") == report("plain")
    assert results("delta") != results("plain")
    assert report("sigmas") != report("plain")


@pytest.mark.parametrize(
    "command,out,code,message",
    [
        ("evaluate", "missing/report.json", 2, "No such file or directory"),
        ("associate", "missing/x.results.json", 2, "No such file or directory"),
        ("evaluate", "scenes", 1, "Is a directory"),
    ],
)
def test_failed_write_prints_nothing_and_names_the_given_path(
    tmp_path, capsys, monkeypatch, command, out, code, message
):
    monkeypatch.chdir(tmp_path)
    scenes, _ = synth_clean(tmp_path, capsys)
    assert main(["associate", str(scenes)]) == 0
    capsys.readouterr()
    argv = {
        "evaluate": ["--results", "scenes", "--annotations", "scenes"],
        "associate": ["scenes/scene_000.candidates.json"],
    }[command]
    got, stdout, stderr = run(capsys, command, *argv, "--out", out)
    assert got == code
    assert stdout == ""
    assert stderr.endswith(f"{message}: {out!r}\n")
    assert ".tmp" not in stderr


def test_config_delta_reaches_associate(tmp_path, capsys):
    # A wider grouping tolerance merges more candidates into fewer nodes.
    scenes = tmp_path / "scenes"
    assert main(["synth", "--seed", "0", "--out", str(scenes)]) == 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"delta": [2 * d for d in default_grouping_deltas()]}))
    capsys.readouterr()
    nodes = []
    for config in ([], ["--config", str(path)]):
        code, stdout, _ = run(capsys, "associate", str(scenes / "scene_000.candidates.json"),
                              "--out", str(tmp_path / "out.results.json"), *config)
        assert code == 0
        nodes.append(int(stdout.split("nodes=")[1].split()[0]))
    assert nodes[1] < nodes[0]


def test_synth_rejects_negative_seed(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "synth", "--seed", "-1", "--out", str(tmp_path / "x")
    )
    assert code == 2
    assert "seed must be non-negative" in stderr


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_synth_rejects_non_finite_noise(tmp_path, capsys, noise):
    code, _, stderr = run(
        capsys, "synth", "--noise", noise, "--out", str(tmp_path / "x")
    )
    assert code == 2
    assert "sigma_noise must be >= 0 and finite" in stderr
    assert not (tmp_path / "x" / "scene_000.candidates.json").exists()


@pytest.mark.parametrize("argv", [[], ["bench"]], ids=["none", "bench"])
def test_missing_subcommand_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
