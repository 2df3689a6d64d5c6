import json

import pytest

from posegraph.config import build_config, load_config_file
from posegraph.joints import JOINT_COUNT, OKS_SIGMAS, JointSpec, default_grouping_deltas


def test_defaults():
    config = JointSpec()
    assert config.delta == default_grouping_deltas()
    assert config.oks_sigmas == OKS_SIGMAS
    assert len(config.delta) == JOINT_COUNT


@pytest.mark.parametrize(
    "field,value",
    [
        ("delta", (-1.0,) * JOINT_COUNT),
        ("delta", (float("inf"),) * JOINT_COUNT),
        ("delta", (1.0,) * (JOINT_COUNT + 1)),
        ("oks_sigmas", (0.0,) * JOINT_COUNT),
        ("oks_sigmas", (-0.1,) * JOINT_COUNT),
        ("oks_sigmas", (float("nan"),) * JOINT_COUNT),
        ("delta", (float("nan"),) * JOINT_COUNT),
        ("delta", (1.0,) * 5),
        ("delta", (0.0,) * JOINT_COUNT),
        ("oks_sigmas", (0.5,) * 3),
        ("oks_sigmas", (float("inf"),) * JOINT_COUNT),
    ],
)
def test_validation_rejects_out_of_range(field, value):
    with pytest.raises(ValueError):
        JointSpec(**{field: value})


def test_load_config_file(tmp_path):
    path = tmp_path / "config.json"
    delta = (3.0,) * JOINT_COUNT
    path.write_text(json.dumps({"delta": delta, "oks_sigmas": [0.5] * JOINT_COUNT}))
    assert load_config_file(path) == JointSpec(delta=delta, oks_sigmas=(0.5,) * JOINT_COUNT)


def test_load_config_file_reads_an_integer_as_a_float(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"oks_sigmas": [1] * JOINT_COUNT, "delta": [2] * JOINT_COUNT}))
    config = load_config_file(path)
    assert config.oks_sigmas == (1.0,) * JOINT_COUNT
    assert all(type(v) is float for v in config.oks_sigmas + config.delta)


def test_load_config_file_checks_ranges(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"delta": [2.0] * 13 + [0.0]}))
    with pytest.raises(ValueError, match=r"every delta entry must be positive"):
        load_config_file(path)


def test_load_config_file_rejects_unknown_key(tmp_path):
    # A typo, and the keys of config fields that no longer exist.
    path = tmp_path / "config.json"
    for key in ("deltaa", "mu", "sigma", "heatmap_width", "heatmap_height", "peak_threshold",
                "peak_window", "nms_iou", "oks_dedup", "oracle_limit", "seed"):
        path.write_text(json.dumps({"delta": [2.0] * JOINT_COUNT, key: 1}))
        with pytest.raises(ValueError) as err:
            load_config_file(path)
        assert key in str(err.value)


def test_load_config_file_rejects_non_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError):
        load_config_file(path)


def test_load_config_file_rejects_non_finite_token(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"oks_sigmas": [NaN]}')
    with pytest.raises(ValueError, match="NaN"):
        load_config_file(path)


def test_build_config_without_overrides_is_the_default():
    assert build_config() == JointSpec()
    config = build_config(file_overrides={"oks_sigmas": [0.5] * JOINT_COUNT})
    assert config.oks_sigmas == (0.5,) * JOINT_COUNT
    assert config.delta == default_grouping_deltas()  # the file did not set it


def test_build_config_converts_tables_to_tuples():
    config = build_config(file_overrides={"delta": [1.0] * JOINT_COUNT})
    assert config.delta == (1.0,) * JOINT_COUNT


def test_build_config_rejects_unknown_override():
    with pytest.raises(ValueError):
        build_config({"bogus": 1})


def test_config_is_frozen():
    with pytest.raises(Exception):
        JointSpec().delta = (1.0,) * JOINT_COUNT
