"""Unit tests for the declarative fault-plan model."""

import json

import pytest

from repro.chaos.plan import FAULT_KINDS, FaultPlan, FaultSpec
from repro.errors import ChaosError


def make_spec(**overrides):
    base = dict(kind="loss_burst", target="link:xover.*", start_s=1.0,
                duration_s=0.5, probability=0.5, label="test")
    base.update(overrides)
    return FaultSpec(**base)


def make_plan(**overrides):
    base = dict(name="demo", seed=7, faults=(make_spec(),))
    base.update(overrides)
    return FaultPlan(**base)


# -- validation ------------------------------------------------------------------

def test_every_documented_kind_constructs():
    for kind in FAULT_KINDS:
        spec = FaultSpec(kind=kind, target="*", start_s=0.0, duration_s=1.0)
        assert spec.kind == kind


@pytest.mark.parametrize("overrides", [
    {"kind": "meteor_strike"},
    {"target": ""},
    {"target": "quantum:*"},           # unknown category prefix
    {"target": "cpu:hostA.cpu"},       # loss_burst cannot target a CPU
    {"start_s": -1.0},
    {"duration_s": 0.0},
    {"duration_s": -2.0},
    {"probability": 1.5},
    {"probability": -0.1},
    {"delay_s": -1e-6},
    {"factor": 0.0},
    {"factor": -1.0},
    {"kinds": ()},
])
def test_invalid_specs_rejected(overrides):
    with pytest.raises(ChaosError):
        make_spec(**overrides)


def test_kind_category_pairing_enforced():
    FaultSpec(kind="buffer_degrade", target="router:wan.*",
              start_s=0.0, duration_s=1.0)
    with pytest.raises(ChaosError):
        FaultSpec(kind="buffer_degrade", target="link:wan.*",
                  start_s=0.0, duration_s=1.0)


def test_plan_rejects_bad_members():
    with pytest.raises(ChaosError):
        FaultPlan(seed="not-an-int")
    with pytest.raises(ChaosError):
        FaultPlan(seed=True)
    with pytest.raises(ChaosError):
        FaultPlan(faults=({"kind": "loss_burst"},))


# -- derived fields --------------------------------------------------------------

def test_window_and_target_accessors():
    spec = make_spec(start_s=2.0, duration_s=0.25)
    assert spec.end_s == 2.25
    assert spec.category == "link"
    assert spec.name_glob == "xover.*"
    bare = make_spec(target="xover.fwd")
    assert bare.category == ""
    assert bare.name_glob == "xover.fwd"


def test_frame_kind_matching():
    assert make_spec(kinds=("data",)).matches_frame_kind("data")
    assert not make_spec(kinds=("data",)).matches_frame_kind("ack")
    assert make_spec(kinds=("*",)).matches_frame_kind("ack")


def test_kinds_coerced_to_tuple():
    spec = make_spec(kinds=["data", "ack"])
    assert spec.kinds == ("data", "ack")


def test_plan_is_empty():
    assert FaultPlan().is_empty
    assert not make_plan().is_empty


# -- serialization ---------------------------------------------------------------

def test_dict_round_trip():
    plan = make_plan()
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_json_round_trip():
    plan = make_plan(faults=(make_spec(), make_spec(kind="reorder_window",
                                                    delay_s=1e-3)))
    assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan


def test_from_dict_string_kinds_coerced():
    data = make_spec().to_dict()
    data["kinds"] = "ack"
    assert FaultSpec.from_dict(data).kinds == ("ack",)


def test_unknown_fields_rejected():
    spec_data = make_spec().to_dict()
    spec_data["blast_radius"] = 9000
    with pytest.raises(ChaosError):
        FaultSpec.from_dict(spec_data)
    plan_data = make_plan().to_dict()
    plan_data["severity"] = "extreme"
    with pytest.raises(ChaosError):
        FaultPlan.from_dict(plan_data)


def test_non_dict_inputs_rejected():
    with pytest.raises(ChaosError):
        FaultSpec.from_dict(["kind", "loss_burst"])
    with pytest.raises(ChaosError):
        FaultPlan.from_dict("loss everywhere")
    with pytest.raises(ChaosError):
        FaultPlan.from_dict({"faults": "all of them"})


def test_invalid_json_reported():
    with pytest.raises(ChaosError):
        FaultPlan.from_json("{not json")


def test_load_from_file(tmp_path):
    path = tmp_path / "plan.json"
    plan = make_plan()
    path.write_text(json.dumps(plan.to_dict()))
    assert FaultPlan.load(path) == plan


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(ChaosError):
        FaultPlan.load(tmp_path / "nope.json")


# -- fingerprint -----------------------------------------------------------------

def test_fingerprint_stable_across_construction_routes(tmp_path):
    plan = make_plan()
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    assert plan.fingerprint() == FaultPlan.load(path).fingerprint()
    assert plan.fingerprint() == FaultPlan.from_dict(
        plan.to_dict()).fingerprint()


def test_fingerprint_sensitive_to_every_field():
    base = make_plan()
    variants = [
        make_plan(name="other"),
        make_plan(seed=8),
        make_plan(faults=()),
        make_plan(faults=(make_spec(probability=0.51),)),
        make_plan(faults=(make_spec(start_s=1.0001),)),
        make_plan(faults=(make_spec(kinds=("*",)),)),
        make_plan(faults=(make_spec(), make_spec())),
    ]
    fingerprints = {base.fingerprint()} | {v.fingerprint() for v in variants}
    assert len(fingerprints) == len(variants) + 1
