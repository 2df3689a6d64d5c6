import pytest

from posegraph.config import build_config
from posegraph.joints import GROUPING_DELTAS, JOINT_COUNT, JointSpec


def test_defaults():
    config = JointSpec()
    assert config.delta == GROUPING_DELTAS
    assert len(config.delta) == JOINT_COUNT


@pytest.mark.parametrize(
    "field,value",
    [
        ("delta", (-1.0,) * JOINT_COUNT),
        ("delta", (float("inf"),) * JOINT_COUNT),
        ("delta", (1.0,) * (JOINT_COUNT + 1)),
        ("delta", (float("nan"),) * JOINT_COUNT),
        ("delta", (1.0,) * 5),
        ("delta", (0.0,) * JOINT_COUNT),
    ],
    ids=["delta-value0", "delta-value1", "delta-value2", "delta-value6", "delta-value7",
         "delta-value8"],
)
def test_validation_rejects_out_of_range(field, value):
    with pytest.raises(ValueError):
        JointSpec(**{field: value})


def test_build_config_without_overrides_is_the_default():
    assert build_config() == JointSpec()


def test_config_is_frozen():
    with pytest.raises(Exception):
        JointSpec().delta = (1.0,) * JOINT_COUNT
