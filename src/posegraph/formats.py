"""JSON file formats for annotations, candidates, results, and reports.

Three document kinds move between pipeline stages:

* annotations: ``{"images": [{"id", "width", "height"}], "annotations":
  [{"image_id", "person_id", "bbox", "keypoints"}]}`` with keypoints as 14
  flat (x, y, v) triplets, v in {0 unlabeled, 1 occluded, 2 visible};
* candidates: ``{"image_id", "proposals": [...], "candidates": [...],
  "provenance": [...]}`` where provenance is optional and parallel to the
  candidate list;
* results: ``{"image_id", "poses": [{"proposal_id", "score", "keypoints"}]}``
  with 14 entries of [x, y, s] or null.

Every number a document brings in passes one reader per JSON shape, with the
typed field list of its entry kind (``_CANDIDATE_FIELDS`` and its siblings):
``json_numbers`` reads an object by key, ``json_list`` a list of exactly one
number per field, and each refuses any other shape by name. Both make one
type test per value and run the one rule in ``_number`` only on a mismatch.

Floats are rounded to 6 decimals on write, so serialize -> parse is the
identity exactly on objects whose coordinates carry at most 6 decimals and
re-serializing a parsed document reproduces it byte for byte. Writes go
through a uniquely named temp file that is synced before os.replace, so
readers never observe a partial file and concurrent writers never share one.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Sequence

from .errors import FormatError, IntegrityError
from .graph import PersonProposal
from .grouping import CandidateJoint
from .joints import JOINT_COUNT
from .metrics import EvalReport, GroundTruthPerson, SceneAnnotation
from .solver import Pose


def _round6(value: float) -> float:
    return round(float(value), 6)


_encode_str = json.encoder.encode_basestring_ascii
_INF = math.inf


def _emit_items(values, indent: str) -> list[str]:
    # Numbers, the bulk of every payload, take the fast path; floats are
    # checked here because read_json refuses NaN and infinities.
    texts = []
    for value in values:
        kind = type(value)
        if kind is float:
            if not -_INF < value < _INF:
                raise ValueError(f"non-finite number {value!r} cannot be written")
            texts.append(float.__repr__(value))
        elif kind is int:
            texts.append(int.__repr__(value))
        else:
            texts.append(_emit(value, indent))
    return texts


def _emit(value: Any, indent: str) -> str:
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        texts = _emit_items(value.values(), inner)
        lines = [f"{_encode_str(key)}: {text}" for key, text in zip(value, texts)]
        return f"{{\n{inner}{sep.join(lines)}\n{indent}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        texts = _emit_items(value, inner)
        return f"[\n{inner}{sep.join(texts)}\n{indent}]"
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_json(payload: Any) -> str:
    """The text ``json.dumps(payload, indent=2) + "\\n"`` gives, built by a
    small emitter: json.dumps with an indent runs its pure-Python encoder.

    Raises:
        ValueError: a NaN or infinite float, which read_json would refuse.
        TypeError: a key that is not a str, or a value that is not a dict,
            list, str, int, float, bool or None (a tuple or a numpy scalar
            included).
    """
    return _emit_items((payload,), "")[0] + "\n"


def write_json_atomic(path: str | Path, payload: Any) -> None:
    """Write through a uniquely named temp file in the target's directory,
    synced to disk before it replaces the target; the temp file is removed
    if anything fails. It is created with mode 0o666 under the umask in
    force, so the file gets the mode a plain open() would give it."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(dump_json(payload))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _reject_constant(token: str) -> None:
    raise FormatError(f"non-finite number {token} is not allowed")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        _reject_constant(token)
    return value


def read_json(path: str | Path) -> Any:
    """Parse a JSON file; the NaN, Infinity and -Infinity tokens that
    Python's json module accepts, literals such as 1e309 that overflow a
    float, and nesting deeper than the interpreter's recursion limit raise
    FormatError instead."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
        except RecursionError:
            raise FormatError("JSON nested too deeply") from None


def _require(payload: Any, key: str, where: str) -> Any:
    if not isinstance(payload, dict):
        raise FormatError(f"{where} must be a JSON object")
    if key not in payload:
        raise FormatError(f"{where} is missing field '{key}'")
    return payload[key]


def _list(payload: Any, key: str, where: str) -> list:
    value = _require(payload, key, where)
    if not isinstance(value, list):
        raise FormatError(f"{where} field '{key}' must be a list")
    return value


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}
_MISSING = object()


def _number(value: Any, key: str, kind: type, where: str) -> int | float:
    # Called only where ``type(value) is not kind``: name what is wrong, or convert.
    if value is _MISSING:
        raise FormatError(f"{where} is missing field '{key}'")
    if type(value) is not float and type(value) is not int:
        kind_name = _JSON_TYPES.get(type(value), "null")
        raise FormatError(f"{where} field '{key}' must be a number, got {kind_name}")
    if kind is int:
        if not value.is_integer():
            raise FormatError(f"{where} field '{key}' must be an integer, got {value}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"{where} field '{key}' is beyond the float range") from None


def json_numbers(
    payload: Any, fields: Sequence[tuple[str, type]], where: str
) -> list[int | float]:
    """The numbers a JSON object holds under the keys of ``fields``, in
    order; anything but an object is refused. Each field pairs a key with
    ``int`` or ``float``. FormatError names the first field that is missing
    or is not a number: null, strings, lists, objects and booleans are not
    numbers, and neither is a non-integral value such as 1.5 in an ``int``
    field. An integral float such as 2.0 there is returned as an int, and an
    int in a ``float`` field as a float, which it must fit."""
    if not isinstance(payload, dict):
        raise FormatError(f"{where} must be a JSON object")
    values = []
    for key, kind in fields:
        value = payload.get(key, _MISSING)
        if type(value) is not kind:
            value = _number(value, key, kind, where)
        values.append(value)
    return values


def json_list(
    payload: Any, fields: Sequence[tuple[str, type]], where: str
) -> list[int | float]:
    """The numbers of a JSON list holding exactly one item per field of
    ``fields``, read by position under ``json_numbers``' rule; the field's
    key names a bad item."""
    if not isinstance(payload, list) or len(payload) != len(fields):
        raise FormatError(f"{where} must be a list of {len(fields)} numbers")
    values = []
    for (key, kind), value in zip(fields, payload):
        if type(value) is not kind:
            value = _number(value, key, kind, where)
        values.append(value)
    return values


_BOX_FIELDS = (("x", float), ("y", float), ("w", float), ("h", float))


# ---------------------------------------------------------------------------
# annotations

_IMAGE_FIELDS = (("id", int), ("width", int), ("height", int))
_ANNOTATION_FIELDS = (("image_id", int), ("person_id", int))
_KEYPOINT_FIELDS = (("x", float), ("y", float), ("v", int)) * JOINT_COUNT


def annotations_to_payload(scenes: Sequence[SceneAnnotation]) -> dict:
    images = []
    annotations = []
    for scene in scenes:
        images.append(
            {"id": scene.image_id, "width": scene.width, "height": scene.height}
        )
        for person in scene.persons:
            flat: list[float | int] = []
            for slot in person.keypoints:
                if slot is None:
                    flat.extend([0.0, 0.0, 0])
                else:
                    (x, y), vis = slot
                    flat.extend([_round6(x), _round6(y), int(vis)])
            annotations.append(
                {
                    "image_id": scene.image_id,
                    "person_id": person.person_id,
                    "bbox": [_round6(v) for v in person.bbox],
                    "keypoints": flat,
                }
            )
    return {"images": images, "annotations": annotations}


def parse_annotations_payload(payload: Any) -> list[SceneAnnotation]:
    images = _list(payload, "images", "annotation document")
    rows = _list(payload, "annotations", "annotation document")
    sizes: dict[int, tuple[int, int]] = {}
    persons: dict[int, list[GroundTruthPerson]] = {}
    for entry in images:
        image_id, width, height = json_numbers(entry, _IMAGE_FIELDS, "image entry")
        if image_id in sizes:
            raise IntegrityError(f"duplicate image_id {image_id}")
        sizes[image_id] = (width, height)
        persons[image_id] = []
    for entry in rows:
        image_id, person_id = json_numbers(entry, _ANNOTATION_FIELDS, "annotation entry")
        if image_id not in sizes:
            raise IntegrityError(
                f"annotation references unknown image_id {image_id}"
            )
        flat = json_list(
            _require(entry, "keypoints", "annotation entry"), _KEYPOINT_FIELDS, "keypoints"
        )
        slots: list[tuple[tuple[float, float], int] | None] = []
        for x, y, vis in zip(flat[0::3], flat[1::3], flat[2::3]):
            if vis == 0:
                slots.append(None)
            elif vis in (1, 2):
                slots.append(((x, y), vis))
            else:
                raise FormatError(f"visibility must be 0, 1, or 2, got {vis}")
        bbox = json_list(_require(entry, "bbox", "annotation entry"), _BOX_FIELDS, "bbox")
        persons[image_id].append(
            GroundTruthPerson(person_id=person_id, keypoints=tuple(slots), bbox=tuple(bbox))
        )
    return [
        SceneAnnotation(
            image_id=image_id,
            persons=tuple(persons[image_id]),
            width=sizes[image_id][0],
            height=sizes[image_id][1],
        )
        for image_id in sizes
    ]


# ---------------------------------------------------------------------------
# candidates

_IMAGE_ID_FIELDS = (("image_id", int),)
_PROPOSAL_FIELDS = (("proposal_id", int), ("score", float))
_CANDIDATE_FIELDS = (
    ("proposal_id", int), ("joint_type", int),
    ("x", float), ("y", float), ("response", float), ("u", float),
)
_PROVENANCE_FIELDS = (("person_id", int), ("joint_type", int))


def candidates_to_payload(
    image_id: int,
    proposals: Sequence[PersonProposal],
    candidates: Sequence[CandidateJoint],
) -> dict:
    payload: dict[str, Any] = {
        "image_id": image_id,
        "proposals": [
            {
                "proposal_id": p.proposal_id,
                "bbox": [_round6(v) for v in p.bbox],
                "score": _round6(p.detection_score),
            }
            for p in proposals
        ],
        "candidates": [
            {
                "proposal_id": c.source_proposal,
                "joint_type": c.joint_type,
                "x": _round6(c.location[0]),
                "y": _round6(c.location[1]),
                "response": _round6(c.response),
                "u": _round6(c.response_size),
            }
            for c in candidates
        ],
    }
    if any(c.origin is not None for c in candidates):
        payload["provenance"] = [
            None if c.origin is None else [c.origin[0], c.origin[1]]
            for c in candidates
        ]
    return payload


def parse_candidates_payload(
    payload: Any,
) -> tuple[int, list[PersonProposal], list[CandidateJoint]]:
    (image_id,) = json_numbers(payload, _IMAGE_ID_FIELDS, "candidates document")
    proposals = []
    known_ids = set()
    for entry in _list(payload, "proposals", "candidates document"):
        proposal_id, score = json_numbers(entry, _PROPOSAL_FIELDS, "proposal entry")
        bbox = json_list(_require(entry, "bbox", "proposal entry"), _BOX_FIELDS, "bbox")
        proposal = PersonProposal(
            proposal_id=proposal_id, bbox=tuple(bbox), detection_score=score
        )
        proposals.append(proposal)
        known_ids.add(proposal.proposal_id)
    rows = _list(payload, "candidates", "candidates document")
    provenance = payload.get("provenance")
    if provenance is not None:
        provenance = _list(payload, "provenance", "candidates document")
    if provenance is not None and len(provenance) != len(rows):
        raise FormatError(
            f"provenance length {len(provenance)} != candidate count {len(rows)}"
        )
    candidates = []
    for index, entry in enumerate(rows):
        proposal_id, joint_type, x, y, response, size = json_numbers(
            entry, _CANDIDATE_FIELDS, "candidate entry"
        )
        if proposal_id not in known_ids:
            raise IntegrityError(
                f"candidate {index} references unknown proposal_id {proposal_id}"
            )
        origin = None
        if provenance is not None and provenance[index] is not None:
            pair = json_list(provenance[index], _PROVENANCE_FIELDS, "provenance entry")
            origin = tuple(pair)
        candidates.append(
            CandidateJoint(
                location=(x, y),
                response=response,
                joint_type=joint_type,
                source_proposal=proposal_id,
                response_size=size,
                origin=origin,
            )
        )
    return image_id, proposals, candidates


# ---------------------------------------------------------------------------
# results

_POSE_KEYPOINT_FIELDS = (("x", float), ("y", float), ("s", float))


def results_to_payload(image_id: int, poses: Sequence[Pose]) -> dict:
    rows = []
    for pose in poses:
        keypoints: list[list[float] | None] = []
        for slot in pose.keypoints:
            if slot is None:
                keypoints.append(None)
            else:
                (x, y), score = slot
                keypoints.append([_round6(x), _round6(y), _round6(score)])
        rows.append(
            {
                "proposal_id": pose.proposal_id,
                "score": _round6(pose.pose_score),
                "keypoints": keypoints,
            }
        )
    return {"image_id": image_id, "poses": rows}


def parse_results_payload(payload: Any) -> tuple[int, list[Pose]]:
    (image_id,) = json_numbers(payload, _IMAGE_ID_FIELDS, "results document")
    poses = []
    seen: set[int] = set()
    for entry in _list(payload, "poses", "results document"):
        slots: list[tuple[tuple[float, float], float] | None] = []
        for row in _list(entry, "keypoints", "pose entry"):
            if row is None:
                slots.append(None)
                continue
            x, y, score = json_list(row, _POSE_KEYPOINT_FIELDS, "pose keypoint")
            slots.append(((x, y), score))
        proposal_id, score = json_numbers(entry, _PROPOSAL_FIELDS, "pose entry")
        # A repeated pose would be scored as one more detection. A repeated
        # id is an IntegrityError, as in candidates and annotations files.
        if proposal_id in seen:
            raise IntegrityError(f"duplicate proposal_id {proposal_id}")
        seen.add(proposal_id)
        try:
            # Pose owns the slot count; a file that breaks it is malformed.
            poses.append(Pose(proposal_id=proposal_id, keypoints=tuple(slots), pose_score=score))
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    return image_id, poses


# ---------------------------------------------------------------------------
# report


def report_to_payload(report: EvalReport) -> dict:
    return {key: _round6(value) for key, value in report.to_dict().items()}
