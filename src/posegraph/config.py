"""Config-file reading: a JSON object that sets either or both per-joint
tables, ``delta`` and ``oks_sigmas``, becomes a ``JointSpec``, which owns
their defaults and checks. Every synth setting is a flag, not a config key.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any

from .errors import FormatError
from .formats import json_list, read_json
from .joints import JointSpec

_FIELD_NAMES = {f.name for f in dataclasses.fields(JointSpec)}


def load_config_file(path: str | Path) -> JointSpec:
    """Read a JSON config file into a checked JointSpec; a document that is
    not an object is refused, and its mapping goes to ``build_config``."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    return build_config(raw)


def build_config(file_overrides: dict[str, Any] | None = None) -> JointSpec:
    """A JointSpec holding the defaults with ``file_overrides`` set over them.

    Unknown keys are rejected so that typos fail loudly instead of silently
    falling back to defaults; so are values that are not lists of numbers,
    which become tuples of floats. JointSpec then checks every range.
    """
    overrides = file_overrides or {}
    unknown = sorted(set(overrides) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
    values: dict[str, Any] = {}
    for key, value in overrides.items():
        if not isinstance(value, list):
            raise FormatError(f"config file field '{key}' must be a list of numbers")
        values[key] = tuple(json_list(value, ((key, float),) * len(value), "config file"))
    return JointSpec(**values)
