"""Runtime configuration shared by the pipeline commands.

A single frozen dataclass collects the tunable constants the commands read:
the interference attenuation ``mu`` and response size ``sigma`` (ruled by
``SceneSpec``), the per-type grouping radius table ``delta`` (ruled by
``JointSpec``) and the OKS falloff constants ``oks_sigmas`` (ruled by
``metrics.check_oks_sigmas``). Config owns only the merge of file and flags,
with the precedence CLI flags > config file > built-in defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import FormatError
from .formats import json_list, json_numbers, read_json
from .heatmaps import DEFAULT_SIGMA
from .joints import OKS_SIGMAS, JointSpec, default_grouping_deltas
from .metrics import check_oks_sigmas
from .simulator import DEFAULT_MU, SceneSpec


@dataclass(frozen=True, slots=True)
class Config:
    mu: float = DEFAULT_MU
    sigma: float = DEFAULT_SIGMA
    delta: tuple[float, ...] = dataclasses.field(default_factory=default_grouping_deltas)
    oks_sigmas: tuple[float, ...] = OKS_SIGMAS

    def __post_init__(self):
        SceneSpec(mu=self.mu, sigma=self.sigma)
        JointSpec(delta=self.delta)
        check_oks_sigmas(self.oks_sigmas)


_FIELD_NAMES = {f.name for f in dataclasses.fields(Config)}
_TUPLE_FIELDS = ("delta", "oks_sigmas")


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Read a JSON config file into an override mapping.

    Unknown keys are rejected so that typos fail loudly instead of silently
    falling back to defaults; so are NaN and Infinity tokens, and values
    that are not numbers (or, for the two tables, lists of numbers).
    """
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(raw) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
    for key, value in raw.items():
        if key not in _TUPLE_FIELDS:
            json_numbers(raw, ((key, float),), "config file")
        elif isinstance(value, list):
            json_list(value, ((key, float),) * len(value), "config file")
        else:
            raise FormatError(f"config file field '{key}' must be a list of numbers")
    return raw


def build_config(
    file_overrides: dict[str, Any] | None = None,
    cli_overrides: dict[str, Any] | None = None,
) -> Config:
    """Merge defaults, file values, and CLI values into a Config.

    CLI entries that are None mean "flag not given" and are skipped.
    """
    merged: dict[str, Any] = {}
    for layer in (file_overrides or {}, cli_overrides or {}):
        for key, value in layer.items():
            if key not in _FIELD_NAMES:
                raise ValueError(f"unknown config field: {key}")
            if value is None:
                continue
            merged[key] = value
    for name in _TUPLE_FIELDS:
        if name in merged:
            merged[name] = tuple(float(v) for v in merged[name])
    return Config(**merged)
