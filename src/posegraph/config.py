"""The default grouping table as a ``JointSpec``.

The command line reads no config file. ``build_config`` stays only because
``perfbench/workloads.py`` imports it; the next change to the benchmark
deletes this module.
"""

from __future__ import annotations

from .joints import JointSpec


def build_config() -> JointSpec:
    """The default JointSpec, ``JointSpec()``."""
    return JointSpec()
