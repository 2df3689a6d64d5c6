"""Runtime configuration for associate and evaluate.

A single frozen dataclass holds the method's two tuning tables: the
per-type grouping radius table ``delta`` (ruled by ``JointSpec``), which
``associate`` reads, and the OKS falloff constants ``oks_sigmas`` (ruled by
``metrics.check_oks_sigmas``), which ``evaluate`` reads. ``load_config_file``
makes a config file a checked Config in one call. Every synth setting is a
flag, so no config key reaches the simulator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import FormatError
from .formats import json_list, read_json
from .joints import OKS_SIGMAS, JointSpec, default_grouping_deltas
from .metrics import check_oks_sigmas


@dataclass(frozen=True, slots=True)
class Config:
    delta: tuple[float, ...] = dataclasses.field(default_factory=default_grouping_deltas)
    oks_sigmas: tuple[float, ...] = OKS_SIGMAS

    def __post_init__(self):
        JointSpec(delta=self.delta)
        check_oks_sigmas(self.oks_sigmas)


_FIELD_NAMES = {f.name for f in dataclasses.fields(Config)}


def load_config_file(path: str | Path) -> Config:
    """Read a JSON config file into a checked Config; a document that is not
    an object is refused, and its mapping goes to ``build_config``."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    return build_config(raw)


def build_config(file_overrides: dict[str, Any] | None = None) -> Config:
    """A Config holding the defaults with ``file_overrides`` set over them.

    Unknown keys are rejected so that typos fail loudly instead of silently
    falling back to defaults; so are values that are not lists of numbers,
    which become tuples of floats. Config then checks every range.
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
    return Config(**values)
