"""Smoke tests: each script under scripts/ and the README's library example
run to completion on a tiny input, and every public name resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import posegraph

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd=None):
    src_dir = str(Path(posegraph.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "name,args,expected",
    [
        ("run_crowding_sweep.py", ["--scenes", "1", "--targets", "0.5"],
         "end-to-end keypoint evaluation:"),
        ("show_composite_targets.py", [], "loss(perfect prediction)          = 0.000000"),
    ],
    ids=["crowding_sweep", "composite_targets"],
)
def test_script_runs(tmp_path, name, args, expected):
    child = run_script(name, *args, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    assert expected in child.stdout


def test_pipeline_demo_writes_reports(tmp_path):
    workdir = tmp_path / "demo"
    child = run_script("run_pipeline_demo.py", "--scenes", "2", "--workdir", str(workdir))
    assert child.returncode == 0, child.stderr
    assert f"artifacts in {workdir}/" in child.stdout
    assert (workdir / "report_global.json").exists()
    assert (workdir / "report_greedy.json").exists()


def test_every_public_name_resolves():
    assert [name for name in posegraph.__all__ if not hasattr(posegraph, name)] == []


def test_readme_library_example_runs(capsys):
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
