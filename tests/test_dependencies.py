"""The declared runtime dependencies are exactly what the package imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import posegraph

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_names():
    """Top-level names of every absolute import under src/posegraph, those
    inside functions included, less the standard library."""
    names = set()
    for path in sorted((ROOT / "src" / "posegraph").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")  # 3.11+; the rest runs on 3.10
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    # A requirement string starts with the distribution name.
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in declared}
    assert imported_top_level_names() == names


def test_cli_import_loads_no_scipy():
    src_dir = str(Path(posegraph.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])
    )}
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, posegraph.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
