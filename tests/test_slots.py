"""Every posegraph dataclass is slotted, and slotting keeps the value
semantics the per-candidate, per-node, per-edge and per-proposal classes
rely on."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import posegraph
from posegraph.graph import Edge, PersonProposal
from posegraph.grouping import CandidateJoint, JointNode


def package_dataclasses():
    """Every dataclass defined in a posegraph module. ``__main__`` is left
    out because importing it runs the CLI."""
    found = []
    for info in pkgutil.iter_modules(posegraph.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"posegraph.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.append(cls)
    return found


def test_every_dataclass_instance_has_no_dict():
    classes = package_dataclasses()
    assert {CandidateJoint, JointNode, Edge, PersonProposal} <= set(classes)
    # A class whose instances carry a __dict__ has a non-zero offset to it.
    assert [c.__qualname__ for c in classes if c.__dictoffset__ != 0] == []


def _candidate(x=1, y=2):
    return CandidateJoint(location=(x, y), response=0.75, joint_type=3,
                          source_proposal=0, response_size=2.0, origin=(0, 3))


HOT = {
    "CandidateJoint": (_candidate, "response", 0.5),
    "JointNode": (lambda: JointNode(joint_type=3, members=(_candidate(),), node_id=4),
                  "node_id", 5),
    "Edge": (lambda: Edge(proposal=0, node=4, joint_type=3, weight=0.75), "weight", 0.5),
    "PersonProposal": (lambda: PersonProposal(proposal_id=0, bbox=(1.0, 2.0, 30.0, 40.0),
                                              detection_score=0.9),
                       "detection_score", 0.5),
}


@pytest.mark.parametrize("name", sorted(HOT))
def test_hot_class_stays_frozen(name):
    make, field, value = HOT[name]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(make(), field, value)


@pytest.mark.parametrize("name", sorted(HOT))
def test_hot_class_replace_round_trips(name):
    make, field, value = HOT[name]
    obj = make()
    changed = dataclasses.replace(obj, **{field: value})
    assert getattr(changed, field) == value
    assert changed != obj
    assert dataclasses.replace(changed, **{field: getattr(obj, field)}) == obj


@pytest.mark.parametrize("name", sorted(HOT))
def test_hot_class_equal_instances_hash_equal(name):
    make = HOT[name][0]
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)


def test_candidate_joint_stores_int_location_as_floats():
    location = _candidate(1, 2).location
    assert location == (1.0, 2.0)
    assert all(type(v) is float for v in location)
