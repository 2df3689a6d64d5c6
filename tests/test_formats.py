import dataclasses
import json
import math
import os
import stat

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from posegraph.errors import FormatError, IntegrityError
from posegraph.formats import (
    annotations_to_payload,
    candidates_to_payload,
    dump_json,
    json_list,
    json_numbers,
    parse_annotations_payload,
    parse_candidates_payload,
    parse_results_payload,
    read_json,
    report_to_payload,
    results_to_payload,
    write_json_atomic,
)
from posegraph.graph import PersonProposal
from posegraph.grouping import CandidateJoint
from posegraph.metrics import EvalReport, GroundTruthPerson, SceneAnnotation
from posegraph.solver import Pose


def sample_scene():
    keypoints = [None] * 14
    keypoints[0] = ((12.5, 34.25), 2)
    keypoints[3] = ((100.125, 200.5), 1)
    person = GroundTruthPerson(
        person_id=0, keypoints=tuple(keypoints), bbox=(10.0, 20.0, 50.5, 80.25)
    )
    return SceneAnnotation(image_id=7, persons=(person,), width=640, height=480)


def sample_candidates():
    proposals = [
        PersonProposal(proposal_id=0, bbox=(1.0, 2.0, 30.0, 40.0),
                       detection_score=0.875),
        PersonProposal(proposal_id=1, bbox=(5.5, 2.0, 30.0, 40.0),
                       detection_score=0.5),
    ]
    candidates = [
        CandidateJoint(location=(3.5, 4.25), response=0.9, joint_type=0,
                       source_proposal=0, response_size=2.0, origin=(0, 0)),
        CandidateJoint(location=(8.0, 9.0), response=0.25, joint_type=5,
                       source_proposal=1, response_size=2.0, origin=None),
    ]
    return proposals, candidates


def sample_poses():
    keypoints = [None] * 14
    keypoints[0] = ((12.5, 34.25), 0.9)
    keypoints[13] = ((56.75, 78.125), 0.625)
    return [Pose(proposal_id=2, keypoints=tuple(keypoints), pose_score=0.7625)]


def test_annotation_round_trip_identity():
    scene = sample_scene()
    parsed = parse_annotations_payload(annotations_to_payload([scene]))
    assert parsed == [scene]


def test_annotation_serialization_is_idempotent():
    payload = annotations_to_payload([sample_scene()])
    text = dump_json(payload)
    reparsed = parse_annotations_payload(json.loads(text))
    assert dump_json(annotations_to_payload(reparsed)) == text


def test_annotation_unlabeled_slot_encoding():
    payload = annotations_to_payload([sample_scene()])
    flat = payload["annotations"][0]["keypoints"]
    assert len(flat) == 42
    assert flat[3:6] == [0.0, 0.0, 0]  # joint 1 is unlabeled
    assert flat[0:3] == [12.5, 34.25, 2]


def test_annotation_rejects_unknown_image():
    payload = annotations_to_payload([sample_scene()])
    payload["annotations"][0]["image_id"] = 99
    with pytest.raises(IntegrityError):
        parse_annotations_payload(payload)


def test_annotation_rejects_duplicate_image_id():
    scene = dataclasses.replace(sample_scene(), image_id=0)
    payload = annotations_to_payload([scene, scene])
    with pytest.raises(IntegrityError, match=r"^duplicate image_id 0$"):
        parse_annotations_payload(payload)


def test_annotation_rejects_wrong_keypoint_count():
    payload = annotations_to_payload([sample_scene()])
    payload["annotations"][0]["keypoints"] = [0.0, 0.0, 0]
    with pytest.raises(FormatError) as err:
        parse_annotations_payload(payload)
    assert "42" in str(err.value)


def test_annotation_rejects_bad_visibility():
    payload = annotations_to_payload([sample_scene()])
    payload["annotations"][0]["keypoints"][2] = 7
    with pytest.raises(FormatError):
        parse_annotations_payload(payload)


def test_annotation_rejects_missing_field():
    with pytest.raises(FormatError) as err:
        parse_annotations_payload({"images": []})
    assert "annotations" in str(err.value)


def test_candidates_round_trip_identity():
    proposals, candidates = sample_candidates()
    payload = candidates_to_payload(3, proposals, candidates)
    image_id, p2, c2 = parse_candidates_payload(payload)
    assert image_id == 3
    assert p2 == proposals
    assert c2 == candidates


def test_candidates_provenance_is_optional():
    proposals, candidates = sample_candidates()
    anonymous = [
        CandidateJoint(location=c.location, response=c.response,
                       joint_type=c.joint_type, source_proposal=c.source_proposal,
                       response_size=c.response_size, origin=None)
        for c in candidates
    ]
    payload = candidates_to_payload(3, proposals, anonymous)
    assert "provenance" not in payload
    _, _, parsed = parse_candidates_payload(payload)
    assert all(c.origin is None for c in parsed)


def test_candidates_rejects_dangling_proposal():
    proposals, candidates = sample_candidates()
    payload = candidates_to_payload(3, proposals, candidates)
    payload["candidates"][0]["proposal_id"] = 42
    with pytest.raises(IntegrityError) as err:
        parse_candidates_payload(payload)
    assert "42" in str(err.value)


def test_candidates_rejects_provenance_mismatch():
    proposals, candidates = sample_candidates()
    payload = candidates_to_payload(3, proposals, candidates)
    payload["provenance"] = payload["provenance"][:1]
    with pytest.raises(FormatError):
        parse_candidates_payload(payload)


def test_candidates_rejects_malformed_provenance_entry():
    proposals, candidates = sample_candidates()
    payload = candidates_to_payload(3, proposals, candidates)
    payload["provenance"][0] = [1]
    with pytest.raises(FormatError):
        parse_candidates_payload(payload)


def test_integral_floats_in_integer_fields_are_accepted():
    proposals, candidates = sample_candidates()
    payload = candidates_to_payload(3, proposals, candidates)
    payload["image_id"] = 3.0
    payload["proposals"][1]["proposal_id"] = 1.0
    payload["candidates"][1]["joint_type"] = 5.0
    payload["provenance"][0] = [0.0, 0.0]
    image_id, p2, c2 = parse_candidates_payload(payload)
    assert (image_id, p2, c2) == (3, proposals, candidates)
    assert type(image_id) is int and type(c2[1].joint_type) is int


# The least int float() cannot convert: halfway between the largest float,
# 2**1024 - 2**971, and 2**1024, it rounds to even, which is upwards.
_FLOAT_LIMIT = 2**1024 - 2**970
_MISSING = object()


def _expected_numbers(fields, values, where):
    """What json_numbers must give, worked out field by field: the values
    with exact types, or the message naming the first bad field."""
    result = []
    for (key, kind), value in zip(fields, values):
        if value is _MISSING:
            return f"{where} is missing field '{key}'"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            kinds = {str: "a string", list: "a list", dict: "an object", bool: "a boolean"}
            got = kinds.get(type(value), "null")
            return f"{where} field '{key}' must be a number, got {got}"
        if kind is int and isinstance(value, float):
            if value != math.floor(value):
                return f"{where} field '{key}' must be an integer, got {value}"
            value = int(value)
        elif kind is float and isinstance(value, int):
            if abs(value) >= _FLOAT_LIMIT:
                return f"{where} field '{key}' is beyond the float range"
            value = float(value)
        result.append(value)
    return result


_field_values = st.one_of(
    st.integers(-(2**60), 2**60),
    st.integers(_FLOAT_LIMIT - 2, 2**1100),
    st.integers(-(2**1100), -_FLOAT_LIMIT + 2),
    st.floats(-1e300, 1e300).map(math.floor).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_schemas = st.lists(
    st.tuples(st.sampled_from(["a", "b", "v"]), st.sampled_from([int, float])),
    max_size=6,
)


@given(_schemas, st.dictionaries(st.sampled_from(["a", "b", "v"]), _field_values))
@example((("v", int), ("v", float)), {"v": 2.0})
@example((("x", float),), {"x": _FLOAT_LIMIT - 1})
@example((("x", float),), {"x": _FLOAT_LIMIT})
@example((("x", int), ("y", int)), {"x": 1.5})
@example((("x", int),), {"x": True})
@settings(max_examples=300, deadline=None)
def test_json_numbers_object_matches_per_field_rule(fields, payload):
    values = [payload.get(key, _MISSING) for key, _kind in fields]
    _assert_numbers(json_numbers, fields, payload, values)


@st.composite
def _list_cases(draw):
    # A list holds one item per field; its schema may repeat a key, as a
    # config table's (("delta", float),) * 14 does.
    repeated = st.builds(lambda kind, n: (("v", kind),) * n,
                         st.sampled_from([int, float]), st.integers(0, 4))
    fields = draw(_schemas | repeated)
    size = len(fields)
    return fields, draw(st.lists(_field_values, min_size=size, max_size=size))


@given(_list_cases())
@example(((("v", int),) * 3, [1, 2.0, 3]))
@example(((("v", int),) * 3, [1, 2, 3.5]))
@example(((("v", float),) * 2, [1, -(2**1100)]))
@settings(max_examples=300, deadline=None)
def test_json_numbers_list_matches_per_field_rule(case):
    fields, payload = case
    _assert_numbers(json_list, fields, payload, payload)


def _assert_numbers(reader, fields, payload, values):
    expected = _expected_numbers(fields, values, "entry")
    if isinstance(expected, str):
        with pytest.raises(FormatError) as caught:
            reader(payload, fields, "entry")
        assert str(caught.value) == expected
    else:
        got = reader(payload, fields, "entry")
        assert [(type(v), v) for v in got] == [(type(v), v) for v in expected]


@pytest.mark.parametrize("payload", [None, 3, "text", 2.5, [], [1.0]])
def test_json_numbers_needs_an_object_or_a_list(payload):
    # Only an object: a list, even one of the right numbers, is refused.
    with pytest.raises(FormatError, match="^entry must be a JSON object$"):
        json_numbers(payload, (("x", float),), "entry")


@pytest.mark.parametrize(
    "payload", [None, 3, "text", {"x": 1.0, "y": 2.0}, [], [1.0], [1.0, 2.0, 3.0]]
)
def test_json_list_needs_a_list_of_one_number_per_field(payload):
    with pytest.raises(FormatError, match="^entry must be a list of 2 numbers$"):
        json_list(payload, (("x", float), ("y", float)), "entry")


def test_results_round_trip_identity():
    poses = sample_poses()
    image_id, parsed = parse_results_payload(results_to_payload(9, poses))
    assert image_id == 9
    assert parsed == poses


def test_results_reject_wrong_slot_count():
    payload = results_to_payload(9, sample_poses())
    payload["poses"][0]["keypoints"] = payload["poses"][0]["keypoints"][:5]
    with pytest.raises(FormatError):
        parse_results_payload(payload)


def test_results_reject_malformed_slot():
    payload = results_to_payload(9, sample_poses())
    payload["poses"][0]["keypoints"][0] = [1.0, 2.0]
    with pytest.raises(FormatError):
        parse_results_payload(payload)


def test_floats_are_rounded_to_six_decimals():
    keypoints = [None] * 14
    keypoints[0] = ((1.23456789, 2.0), 0.987654321)
    pose = Pose(proposal_id=0, keypoints=tuple(keypoints), pose_score=0.5)
    payload = results_to_payload(0, [pose])
    assert payload["poses"][0]["keypoints"][0] == [1.234568, 2.0, 0.987654]


def test_report_payload_is_rounded():
    report = EvalReport(
        map_50_95=0.123456789, map_50=1.0, map_75=0.5,
        mar_50_95=0.2, mar_50=0.3, mar_75=0.4,
        ap_easy=0.9, ap_medium=0.8, ap_hard=0.7,
    )
    payload = report_to_payload(report)
    assert payload["map_50_95"] == 0.123457
    assert set(payload) == set(report.to_dict())


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e309", "-1e400"])
def test_read_json_rejects_non_finite_tokens(tmp_path, token):
    path = tmp_path / "doc.json"
    path.write_text(f'{{"response": {token}}}')
    with pytest.raises(FormatError, match=f"non-finite number {token}"):
        read_json(path)


@given(st.from_regex(
    r"-?(0|[1-9][0-9]{0,3})(\.[0-9]{1,20})?[eE][+-]?[0-9]{1,4}", fullmatch=True
))
@example("1.7976931348623157e308")
@example("1.7976931348623159e308")
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_json_float_token_is_finite_or_rejected(tmp_path, token):
    path = tmp_path / "doc.json"
    path.write_text(f"[{token}]")
    try:
        (value,) = read_json(path)
    except FormatError as err:
        assert token in str(err)
        assert not math.isfinite(float(token))
    else:
        assert math.isfinite(value)
        assert value == float(token)


def test_atomic_write_and_read(tmp_path):
    target = tmp_path / "doc.json"
    write_json_atomic(target, {"image_id": 1, "poses": []})
    assert read_json(target) == {"image_id": 1, "poses": []}
    assert target.read_text().endswith("\n")
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_atomic_write_ignores_stale_tmp_name(tmp_path):
    # Another writer's file, or a directory, at "<name>.tmp" must not block
    # the write.
    target = tmp_path / "doc.json"
    (tmp_path / "doc.json.tmp").mkdir()
    write_json_atomic(target, {"image_id": 2})
    assert read_json(target) == {"image_id": 2}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json", "doc.json.tmp"]


def test_atomic_write_removes_temp_file_on_failure(tmp_path):
    target = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        write_json_atomic(target, {"bad": object()})
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_gives_the_mode_of_a_plain_write(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_text("{}")
    target = tmp_path / "doc.json"
    write_json_atomic(target, {})
    assert target.stat().st_mode == plain.stat().st_mode


def test_atomic_write_follows_the_umask_in_force(tmp_path):
    # The umask was once read at import, so a later, stricter umask gave a
    # file more readable than a plain open() would make it.
    previous = os.umask(0o077)
    try:
        plain = tmp_path / "plain.json"
        plain.write_text("{}")
        target = tmp_path / "doc.json"
        write_json_atomic(target, {})
    finally:
        os.umask(previous)
    assert stat.S_IMODE(plain.stat().st_mode) == 0o600
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "doc.json"
    target.write_text("old")
    write_json_atomic(target, [1, 2, 3])
    assert read_json(target) == [1, 2, 3]


_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=40,
)


@given(_json_values)
@example([-0.0, 5e-324, 1e16, 1.7976931348623157e308, -1.7976931348623157e308])
@example({"big": 10**40, "neg": -(10**40), "flags": [True, False, None]})
@example({"kéy ☃": "café \U0001f600", "ctl": "\x00\x1f\t\n\"\\\x7f"})
@example({"a": [], "b": {}, "c": [[], {}, [[]], {"d": {}}]})
@example([])
@example({})
@settings(max_examples=200, deadline=None)
def test_dump_json_equals_json_dumps_indent_2(value):
    assert dump_json(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dump_json_rejects_non_finite_floats(value):
    with pytest.raises(ValueError, match="non-finite number"):
        dump_json({"poses": [[1.0, value]]})


@pytest.mark.parametrize("value", [object(), (1.0, 2.0), {1: "key"}, {"a": {1, 2}}])
def test_dump_json_rejects_values_json_has_no_form_for(value):
    with pytest.raises(TypeError):
        dump_json({"payload": value})
