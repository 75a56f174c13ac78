import json
import math

import pytest

from helpers import build_net
from potholesim.scenario import ScenarioError, load_scenario, scenario_from_dict


@pytest.fixture
def net():
    return build_net([("A", 0, 0), ("B", 100, 0)], [("ab", "A", "B", 100.0)])


BASE = {
    "duration_ms": 5000,
    "seed": 1,
    "vehicles": [{"id": "v1", "start_arc": "ab", "start_offset_m": 0.0,
                  "speed_mps": 10.0, "waypoints": ["B"]}],
    "pits": [{"arc": "ab", "center_m": 50.0, "half_length_m": 1.0,
              "depth_mm": 30.0, "reflectivity": 0.5}],
    "access_points": [{"id": "ap1", "x": 0.0, "y": 0.0, "range_m": 10.0, "open": True}],
    "events": [{"t_ms": 100, "kind": "DETECT", "vehicle": "v1"}],
}


def variant(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return raw


def test_valid_scenario_loads(tmp_path, net):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(BASE))
    s = load_scenario(p, net)
    assert s.duration_ms == 5000
    assert s.vehicles[0].id == "v1"
    assert s.pits["ab"].pits[0].depth_mm == 30.0
    assert s.events[0].kind == "DETECT"


def test_unknown_key_rejected(net):
    with pytest.raises(ScenarioError):
        scenario_from_dict(variant(extra=1), net)


def test_unknown_arc_rejected(net):
    bad = variant(vehicles=[dict(BASE["vehicles"][0], start_arc="zz")])
    with pytest.raises(Exception):
        scenario_from_dict(bad, net)


def test_event_after_duration_rejected(net):
    bad = variant(events=[{"t_ms": 5000, "kind": "DETECT", "vehicle": "v1"}])
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad, net)


def test_first_waypoint_must_match_start_arc_head(net):
    bad = variant(vehicles=[dict(BASE["vehicles"][0], waypoints=["A"])])
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad, net)


def test_disconnected_waypoints_rejected(net):
    bad = variant(vehicles=[dict(BASE["vehicles"][0], waypoints=["B", "A"])])
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad, net)


def test_pit_outside_arc_rejected(net):
    bad = variant(pits=[{"arc": "ab", "center_m": 99.9, "half_length_m": 1.0,
                         "depth_mm": 30.0, "reflectivity": 0.5}])
    with pytest.raises(ValueError):
        scenario_from_dict(bad, net)


def test_event_for_unknown_vehicle_rejected(net):
    bad = variant(events=[{"t_ms": 10, "kind": "DETECT", "vehicle": "nope"}])
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad, net)


def test_dest_change_null_clears(net):
    ok = variant(events=[{"t_ms": 10, "kind": "DEST_CHANGE", "vehicle": "v1",
                          "dest": None}])
    s = scenario_from_dict(ok, net)
    assert s.events[0].dest is None


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, "5", True])
@pytest.mark.parametrize("key", ["x", "y", "range_m"])
def test_non_finite_or_non_number_access_point_field_rejected(net, key, value):
    bad = variant(access_points=[dict(BASE["access_points"][0], **{key: value})])
    with pytest.raises(ScenarioError, match=rf"access_points\[0\]\.{key} must be a finite"):
        scenario_from_dict(bad, net)


@pytest.mark.parametrize("value", [math.nan, math.inf, None])
def test_non_finite_or_non_number_speed_rejected(net, value):
    bad = variant(vehicles=[dict(BASE["vehicles"][0], speed_mps=value)])
    with pytest.raises(ScenarioError, match=r"vehicles\[0\]\.speed_mps must be a finite"):
        scenario_from_dict(bad, net)


def test_non_object_vehicle_rejected(net):
    with pytest.raises(ScenarioError, match=r"vehicles\[0\] must be an object"):
        scenario_from_dict(variant(vehicles=[1]), net)


@pytest.mark.parametrize("section", ["vehicles", "pits", "access_points", "events"])
def test_null_section_rejected(net, section):
    with pytest.raises(ScenarioError, match=f"'{section}' must be a list"):
        scenario_from_dict(variant(**{section: None}), net)
