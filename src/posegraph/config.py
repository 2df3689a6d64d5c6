"""Runtime configuration shared by the pipeline commands.

A single frozen dataclass collects the tunable constants the commands read:
the interference attenuation ``mu`` and response size ``sigma`` (ruled by
``SceneSpec``), the per-type grouping radius table ``delta`` (ruled by
``JointSpec``) and the OKS falloff constants ``oks_sigmas`` (ruled by
``metrics.check_oks_sigmas``). ``load_config_file`` makes a config file a
checked Config in one call; synth's ``--mu`` and ``--sigma`` go to SceneSpec.
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
    falling back to defaults; so are values that are not numbers (or, for
    the two tables, lists of numbers, which become tuples of floats). Config
    then checks every range.
    """
    overrides = file_overrides or {}
    unknown = sorted(set(overrides) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
    values: dict[str, Any] = {}
    for key, value in overrides.items():
        if key not in _TUPLE_FIELDS:
            (values[key],) = json_numbers(overrides, ((key, float),), "config file")
        elif isinstance(value, list):
            values[key] = tuple(json_list(value, ((key, float),) * len(value), "config file"))
        else:
            raise FormatError(f"config file field '{key}' must be a list of numbers")
    return Config(**values)
