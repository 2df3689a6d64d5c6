"""No document a command reads can make it escape with an exception.

Each example takes a valid candidates, annotations or results file made from
a small synth scene, or a config file holding both default tables, sets one
leaf or container of it to a value from a fixed pool, and runs ``cli.main``
in-process on the result: a config file through both ``associate`` and
``evaluate``. Every outcome must be an exit code (0, 1 or 2); a traceback
fails the test, and so does an exit-2 message that does not name the mutated
file.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posegraph.cli import main
from posegraph.formats import read_json
from posegraph.joints import OKS_SIGMAS, default_grouping_deltas

POOL = (None, True, "x", [], {}, -1, 0, 1.5, 1e308, -0.0, 10**400)


def _run(*argv):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        return main(list(argv)), stderr.getvalue()


def _paths(doc, prefix=()):
    """The path of the document itself and of every container and leaf in it."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = doc.copy()
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        scenes = root / "scenes"
        assert _run("synth", "--persons", "2", "--seed", "3", "--out", str(scenes))[0] == 0
        assert _run("associate", str(scenes))[0] == 0
        (scenes / "scene_000.config.json").write_text(json.dumps(
            {"delta": list(default_grouping_deltas()), "oks_sigmas": list(OKS_SIGMAS)}
        ))
        yield root


def _associate(d, candidates, *config):
    return ("associate", str(candidates), "--out", str(d / "out.results.json"), *config)


def _evaluate(d, results, annotations, *config):
    return ("evaluate", "--results", str(results), "--annotations", str(annotations),
            *config)


def _scene(d, kind):
    return d / "scenes" / f"scene_000.{kind}.json"


COMMANDS = {
    "candidates": lambda d, f: [_associate(d, f)],
    "annotations": lambda d, f: [_evaluate(d, _scene(d, "results"), f)],
    "results": lambda d, f: [_evaluate(d, f, _scene(d, "annotations"))],
    "config": lambda d, f: [
        _associate(d, _scene(d, "candidates"), "--config", str(f)),
        _evaluate(d, _scene(d, "results"), _scene(d, "annotations"), "--config", str(f)),
    ],
}


@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_one_mutated_value_never_escapes_main(workdir, kind):
    valid = read_json(workdir / "scenes" / f"scene_000.{kind}.json")
    paths = list(_paths(valid))
    target = workdir / f"mutated.{kind}.json"

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from(paths), value=st.sampled_from(POOL))
    def check(path, value):
        target.write_text(json.dumps(_replaced(valid, path, value)))
        for argv in COMMANDS[kind](workdir, target):
            code, stderr = _run(*argv)
            assert code in (0, 1, 2)
            if code == 2:
                assert stderr.startswith(f"error: {target}: "), stderr

    check()
