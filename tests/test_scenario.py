import json
import math
import sys

import pytest

from helpers import build_net
from potholesim.inputs import InputError
from potholesim.scenario import TimedEvent, load_scenario, scenario_from_dict


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


def test_loaded_events_are_named_tuples(net):
    raw = variant(events=[{"t_ms": 10, "kind": "DEST_CHANGE", "vehicle": "v1", "dest": "B"},
                          {"t_ms": 20, "kind": "DETECT", "vehicle": "v1"}])
    events = scenario_from_dict(raw, net).events
    assert all(type(e) is TimedEvent for e in events)
    assert [e._asdict() for e in events] == [
        {"t_ms": 10, "kind": "DEST_CHANGE", "vehicle": "v1", "dest": "B"},
        {"t_ms": 20, "kind": "DETECT", "vehicle": "v1", "dest": None}]
    assert events[0] == TimedEvent(10, "DEST_CHANGE", "v1", "B")


def test_unknown_key_rejected(net):
    with pytest.raises(InputError, match=r"^unknown keys \['extra'\] in scenario$"):
        scenario_from_dict(variant(extra=1), net)


def test_unknown_arc_rejected(net):
    bad = variant(vehicles=[dict(BASE["vehicles"][0], start_arc="zz")])
    with pytest.raises(InputError, match=r"^vehicles\[0\]\.start_arc: unknown arc 'zz'$"):
        scenario_from_dict(bad, net)


@pytest.mark.parametrize("section, item, message", [
    ("pits", dict(BASE["pits"][0], arc="zz"), "pits[0].arc: unknown arc 'zz'"),
    ("vehicles", dict(BASE["vehicles"][0], waypoints=["zz"]),
     "vehicles[0].waypoints[0]: unknown node 'zz'"),
    ("events", {"t_ms": 10, "kind": "DEST_CHANGE", "vehicle": "v1", "dest": "zz"},
     "events[0].dest: unknown node 'zz'"),
    ("pits", dict(BASE["pits"][0], arc=5), "pits[0].arc must be a non-empty string, got 5"),
    ("vehicles", dict(BASE["vehicles"][0], start_arc=None),
     "vehicles[0].start_arc must be a non-empty string, got None"),
], ids=["pit-arc", "waypoint", "dest", "pit-arc-number", "start-arc-null"])
def test_lookup_error_names_its_field(net, section, item, message):
    with pytest.raises(InputError) as err:
        scenario_from_dict(variant(**{section: [item]}), net)
    assert str(err.value) == message


@pytest.mark.parametrize("value", ["5000", True, None, 5000.0, [5000]])
@pytest.mark.parametrize("key", ["duration_ms", "seed"])
def test_non_integer_top_level_field_rejected(net, key, value):
    with pytest.raises(InputError, match=rf"^{key} must be an integer"):
        scenario_from_dict(variant(**{key: value}), net)


@pytest.mark.parametrize("value", ["100", False, None, 100.0])
def test_non_integer_event_time_rejected(net, value):
    bad = variant(events=[dict(BASE["events"][0], t_ms=value)])
    with pytest.raises(InputError, match=r"^events\[0\]\.t_ms must be an integer"):
        scenario_from_dict(bad, net)


@pytest.mark.parametrize("value", [math.nan, math.inf, None, "50", True])
@pytest.mark.parametrize("key", ["center_m", "half_length_m", "depth_mm", "reflectivity"])
def test_non_finite_or_non_number_pit_field_rejected(net, key, value):
    bad = variant(pits=[dict(BASE["pits"][0], **{key: value})])
    with pytest.raises(InputError, match=rf"^pits\[0\]\.{key} must be a finite number"):
        scenario_from_dict(bad, net)


def test_negative_pit_half_length_rejected(net):
    bad = variant(pits=[dict(BASE["pits"][0], half_length_m=-1.0)])
    with pytest.raises(InputError, match=r"^pits\[0\]\.half_length_m must be >= 0"):
        scenario_from_dict(bad, net)


def test_zero_pit_half_length_accepted(net):
    ok = variant(pits=[dict(BASE["pits"][0], half_length_m=0.0)])
    assert scenario_from_dict(ok, net).pits["ab"].pits[0].half_length_m == 0.0


@pytest.mark.parametrize("value", [math.nan, -math.inf, None, "0"])
def test_non_finite_or_non_number_start_offset_rejected(net, value):
    bad = variant(vehicles=[dict(BASE["vehicles"][0], start_offset_m=value)])
    with pytest.raises(InputError,
                       match=r"^vehicles\[0\]\.start_offset_m must be a finite number"):
        scenario_from_dict(bad, net)


@pytest.mark.parametrize("value, message", [
    (5, "vehicles[0].waypoints must be a list, got 5"),
    ("B", "vehicles[0].waypoints must be a list, got 'B'"),
    (None, "vehicles[0].waypoints must be a list, got None"),
    (["B", 5], "vehicles[0].waypoints[1] must be a non-empty string, got 5"),
])
def test_waypoints_must_be_a_list_of_strings(net, value, message):
    bad = variant(vehicles=[dict(BASE["vehicles"][0], waypoints=value)])
    with pytest.raises(InputError) as err:
        scenario_from_dict(bad, net)
    assert str(err.value) == message


def test_event_after_duration_rejected(net):
    bad = variant(events=[{"t_ms": 5000, "kind": "DETECT", "vehicle": "v1"}])
    with pytest.raises(InputError,
                       match=r"^events\[0\]\.t_ms must be in \[0, duration_ms\), got 5000$"):
        scenario_from_dict(bad, net)


def test_first_waypoint_must_match_start_arc_head(net):
    bad = variant(vehicles=[dict(BASE["vehicles"][0], waypoints=["A"])])
    with pytest.raises(InputError, match=r"^vehicles\[0\]\.waypoints\[0\] must be 'B', "
                                         r"the head of start arc 'ab', got 'A'$"):
        scenario_from_dict(bad, net)


def test_disconnected_waypoints_rejected(net):
    bad = variant(vehicles=[dict(BASE["vehicles"][0], waypoints=["B", "A"])])
    with pytest.raises(InputError, match=r"^vehicles\[0\]\.waypoints: no arc joins 'B' -> 'A'$"):
        scenario_from_dict(bad, net)


def test_pit_outside_arc_rejected(net):
    bad = variant(pits=[{"arc": "ab", "center_m": 99.9, "half_length_m": 1.0,
                         "depth_mm": 30.0, "reflectivity": 0.5}])
    with pytest.raises(InputError) as err:
        scenario_from_dict(bad, net)
    assert str(err.value) == ("pits[0].center_m must be at least half_length_m (1.0) from both "
                              "ends of arc 'ab' of length_m 100.0, got 99.9")


# the centers that put a 1 m pit flush with either end of the 100 m arc 'ab',
# and the floats one ulp past them; the refusal's message is pinned in
# `test_rule_names_its_field`
@pytest.mark.parametrize("center, on_arc", [
    (1.0, True), (99.0, True),
    (math.nextafter(1.0, 0.0), False), (math.nextafter(99.0, math.inf), False),
], ids=["flush-start", "flush-end", "ulp-before-start", "ulp-past-end"])
def test_pit_flush_with_an_arc_end_accepted_and_one_ulp_past_refused(net, center, on_arc):
    raw = variant(pits=[dict(BASE["pits"][0], center_m=center, half_length_m=1.0)])
    if on_arc:
        assert scenario_from_dict(raw, net).pits["ab"].pits[0].center_m == center
    else:
        with pytest.raises(InputError, match=r"^pits\[0\]"):
            scenario_from_dict(raw, net)


def pit(arc, depth):
    return {"arc": arc, "center_m": 0.25, "half_length_m": 0.25, "depth_mm": depth,
            "reflectivity": 0.5}


# on `ab`, 100 m long, the summed depths may reach max / 200; on the 0.5 m
# `bc`, max / 2, since the doubled sum must be finite before the length
# scales it
PIT_SUM_NET = [("A", 0, 0), ("B", 100, 0), ("C", 100.5, 0)], [("ab", "A", "B", 100.0),
                                                            ("bc", "B", "C", 0.5)]
MAX = sys.float_info.max


@pytest.mark.parametrize("pits, refused", [
    ([pit("ab", MAX / 200)], None),
    ([pit("ab", MAX / 100)], 0),
    ([pit("ab", MAX / 400), pit("ab", MAX / 400)], None),
    ([pit("ab", MAX / 400), pit("bc", MAX / 4), pit("ab", MAX / 300)], 2),
    ([pit("bc", MAX / 2)], None),
    ([pit("bc", MAX / 3), pit("bc", MAX / 3)], 1),
], ids=["at-the-limit", "past-the-limit", "two-at-the-limit", "per-arc-sums",
        "short-arc-at-the-limit", "short-arc-past-the-limit"])
def test_pit_depths_whose_arc_weight_could_overflow_rejected(pits, refused):
    # the arc's summed pit depths, doubled, then x length_m, must be finite:
    # a DETECT that uplinks these pits then gives every arc a finite weight
    net = build_net(*PIT_SUM_NET)
    raw = variant(pits=pits)
    if refused is None:
        assert scenario_from_dict(raw, net).pits
        return
    with pytest.raises(InputError) as err:
        scenario_from_dict(raw, net)
    arc = pits[refused]["arc"]
    assert str(err.value) == (
        f"pits[{refused}].depth_mm must be small enough that the summed pit depths of "
        f"arc {arc!r}, doubled and then multiplied by its length_m, stay finite, "
        f"got {pits[refused]['depth_mm']!r}")


def test_event_for_unknown_vehicle_rejected(net):
    bad = variant(events=[{"t_ms": 10, "kind": "DETECT", "vehicle": "nope"}])
    with pytest.raises(InputError, match=r"^events\[0\]\.vehicle: unknown vehicle 'nope'$"):
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
    with pytest.raises(InputError, match=rf"access_points\[0\]\.{key} must be a finite"):
        scenario_from_dict(bad, net)


@pytest.mark.parametrize("value", [math.nan, math.inf, None])
def test_non_finite_or_non_number_speed_rejected(net, value):
    bad = variant(vehicles=[dict(BASE["vehicles"][0], speed_mps=value)])
    with pytest.raises(InputError, match=r"vehicles\[0\]\.speed_mps must be a finite"):
        scenario_from_dict(bad, net)


def test_non_object_vehicle_rejected(net):
    with pytest.raises(InputError, match=r"vehicles\[0\] must be an object"):
        scenario_from_dict(variant(vehicles=[1]), net)


@pytest.mark.parametrize("section", ["vehicles", "pits", "access_points", "events"])
def test_null_section_rejected(net, section):
    with pytest.raises(InputError, match=f"'{section}' must be a list"):
        scenario_from_dict(variant(**{section: None}), net)


@pytest.mark.parametrize("section, item, message", [
    ("vehicles", dict(BASE["vehicles"][0], id=[1]),
     "vehicles[0].id must be a non-empty string, got [1]"),
    ("vehicles", dict(BASE["vehicles"][0], id=7),
     "vehicles[0].id must be a non-empty string, got 7"),
    ("access_points", dict(BASE["access_points"][0], id=[1]),
     "access_points[0].id must be a non-empty string, got [1]"),
    ("access_points", dict(BASE["access_points"][0], id=None),
     "access_points[0].id must be a non-empty string, got None"),
    ("events", dict(BASE["events"][0], vehicle=[1]),
     "events[0].vehicle must be a non-empty string, got [1]"),
    ("events", dict(BASE["events"][0], vehicle={"v": 1}),
     "events[0].vehicle must be a non-empty string, got {'v': 1}"),
    ("vehicles", dict(BASE["vehicles"][0], id="v\r1"),
     "vehicles[0].id must be printable text, got 'v\\r1'"),
    ("access_points", dict(BASE["access_points"][0], id="ap\udfff"),
     "access_points[0].id must be printable text, got 'ap\\udfff'"),
], ids=["vehicle-list", "vehicle-number", "ap-list", "ap-null", "event-list", "event-object",
        "vehicle-carriage-return", "ap-lone-surrogate"])
def test_ids_must_be_strings(net, section, item, message):
    with pytest.raises(InputError) as err:
        scenario_from_dict(variant(**{section: [item]}), net)
    assert str(err.value) == message


@pytest.mark.parametrize("value", ["no", "yes", 0, 1, None, [True]])
def test_access_point_open_must_be_a_boolean(net, value):
    bad = variant(access_points=[dict(BASE["access_points"][0], open=value)])
    with pytest.raises(InputError) as err:
        scenario_from_dict(bad, net)
    assert str(err.value) == f"access_points[0].open must be true or false, got {value!r}"


@pytest.mark.parametrize("section, item, message", [
    ("vehicles", dict(BASE["vehicles"][0], id=""),
     "vehicles[0].id must be a non-empty string, got ''"),
    ("vehicles", dict(BASE["vehicles"][0], speed_mps=10**400),
     "vehicles[0].speed_mps must be a finite number, got 1" + "0" * 400),
    ("vehicles", dict(BASE["vehicles"][0], speed_mps=-1),
     "vehicles[0].speed_mps must be >= 0, got -1"),
    ("vehicles", dict(BASE["vehicles"][0], start_offset_m=100.0),
     "vehicles[0].start_offset_m must be in [0, 100.0) on arc 'ab', got 100.0"),
    ("vehicles", dict(BASE["vehicles"][0], waypoints=[""]),
     "vehicles[0].waypoints[0] must be a non-empty string, got ''"),
    ("pits", dict(BASE["pits"][0], depth_mm=-1), "pits[0].depth_mm must be >= 0, got -1"),
    ("pits", dict(BASE["pits"][0], reflectivity=1.5),
     "pits[0].reflectivity must be in [0, 1], got 1.5"),
    ("pits", dict(BASE["pits"][0], center_m=0.5),
     "pits[0].center_m must be at least half_length_m (1.0) from both ends of arc 'ab' "
     "of length_m 100.0, got 0.5"),
    ("pits", dict(BASE["pits"][0], center_m=math.nextafter(99.0, math.inf)),
     "pits[0].center_m must be at least half_length_m (1.0) from both ends of arc 'ab' "
     "of length_m 100.0, got 99.00000000000001"),
    ("access_points", dict(BASE["access_points"][0], id=""),
     "access_points[0].id must be a non-empty string, got ''"),
    ("access_points", dict(BASE["access_points"][0], range_m=0),
     "access_points[0].range_m must be > 0, got 0"),
    ("events", dict(BASE["events"][0], kind="STOP"),
     "events[0].kind must be DETECT or DEST_CHANGE, got 'STOP'"),
    ("events", dict(BASE["events"][0], vehicle=""),
     "events[0].vehicle must be a non-empty string, got ''"),
], ids=["empty-vehicle-id", "huge-speed", "negative-speed", "offset-at-arc-end",
        "empty-waypoint", "negative-depth", "reflectivity-above-one", "pit-before-arc-start",
        "pit-an-ulp-past-arc-end",
        "empty-ap-id", "zero-range", "unknown-kind", "empty-event-vehicle"])
def test_rule_names_its_field(net, section, item, message):
    with pytest.raises(InputError) as err:
        scenario_from_dict(variant(**{section: [item]}), net)
    assert str(err.value) == message


@pytest.mark.parametrize("section", ["vehicles", "access_points"])
def test_duplicate_id_names_the_second(net, section):
    with pytest.raises(InputError) as err:
        scenario_from_dict(variant(**{section: BASE[section] * 2}), net)
    kind = {"vehicles": "vehicle", "access_points": "access point"}[section]
    assert str(err.value) == f"{section}[1].id: duplicate {kind} id '{BASE[section][0]['id']}'"


def test_negative_duration_rejected(net):
    with pytest.raises(InputError, match=r"^duration_ms must be >= 0, got -1$"):
        scenario_from_dict(variant(duration_ms=-1, events=[]), net)

