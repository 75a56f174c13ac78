"""Scenario files: vehicles, ground-truth pits, access points, timed events.

Format (JSON, strict -- unknown keys are rejected):

    {
      "duration_ms": 20000,
      "seed": 42,
      "vehicles": [{"id": "v1", "start_arc": "ab", "start_offset_m": 0.0,
                    "speed_mps": 10.0, "waypoints": ["B", "D"]}],
      "pits": [{"arc": "ab", "center_m": 20.0, "half_length_m": 1.0,
                "depth_mm": 50.0, "reflectivity": 0.4}],
      "access_points": [{"id": "ap1", "x": 100.0, "y": 0.0,
                         "range_m": 30.0, "open": true}],
      "events": [{"t_ms": 2000, "kind": "DETECT", "vehicle": "v1"},
                 {"t_ms": 5000, "kind": "DEST_CHANGE", "vehicle": "v1",
                  "dest": "D"}]
    }

Waypoints are the node path the vehicle drives when no routing destination
is set; the first waypoint must be the head of the start arc and every
consecutive pair must be joined by at least one arc.  DEST_CHANGE with
"dest": null clears the destination.  Scripted event times satisfy
0 <= t_ms < duration_ms, so a zero-duration scenario runs nothing.  Each
section present is a list of objects.  `duration_ms`, `seed` and `t_ms`
are integers; offsets, speeds, pit numbers and access point coordinates and
ranges are finite numbers (not strings or booleans); `half_length_m` is
>= 0, `depth_mm` too, `reflectivity` is in [0, 1] and a pit lies on its
arc (`center_m` at least `half_length_m` from both ends); the depths of an
arc's pits sum to a total that, doubled and then multiplied by the arc's
`length_m`, stays finite, so that no arc weight overflows; vehicle and
access point ids and event vehicles are non-empty strings, a vehicle id
names its output file `route_<id>.txt`, so it holds no `/` and that name is
at most 255 UTF-8 bytes, ids of arcs and nodes are strings that the network
knows, and `open` is a boolean.  Every
rejection raises InputError naming the field, e.g. `pits[0].arc: unknown
arc 'zz'`.  This reader alone holds the pit rules: the sensor trusts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from pathlib import Path
from typing import NamedTuple

from .detection import GroundTruthSurface, Pit
from .inputs import (NO_KEYS, InputError, fail, field_name, finite, integer, keys, lookup,
                     read_json, section, string)
from .network import StreetNetwork


# builds a record as the tuple it is, without the NamedTuple's Python-level
# __new__ (for the scenario's most numerous records, its events)
_new = tuple.__new__


class VehicleSpec(NamedTuple):
    id: str
    start_arc: str
    start_offset_m: float
    speed_mps: float
    waypoints: tuple[str, ...]


class AccessPointSpec(NamedTuple):
    id: str
    x: float
    y: float
    range_m: float
    open: bool


class TimedEvent(NamedTuple):
    t_ms: int
    kind: str                  # DETECT or DEST_CHANGE
    vehicle: str
    dest: str | None = None    # DEST_CHANGE only; None clears


@dataclass
class Scenario:
    duration_ms: int
    seed: int
    vehicles: list[VehicleSpec] = field(default_factory=list)
    pits: dict[str, GroundTruthSurface] = field(default_factory=dict)
    access_points: list[AccessPointSpec] = field(default_factory=list)
    events: list[TimedEvent] = field(default_factory=list)


def load_scenario(path: str | Path, net: StreetNetwork) -> Scenario:
    return scenario_from_dict(read_json(path), net)


SCENARIO_KEYS = frozenset({"duration_ms", "seed"})
SECTION_KEYS = frozenset({"vehicles", "pits", "access_points", "events"})
VEHICLE_KEYS = frozenset({"id", "start_arc", "start_offset_m", "speed_mps", "waypoints"})
PIT_KEYS = frozenset({"arc", "center_m", "half_length_m", "depth_mm", "reflectivity"})
ACCESS_POINT_KEYS = frozenset({"id", "x", "y", "range_m", "open"})
EVENT_KEYS = frozenset({"t_ms", "kind", "vehicle"})
DEST_KEY = frozenset({"dest"})


def scenario_from_dict(raw, net: StreetNetwork) -> Scenario:
    keys(raw, SCENARIO_KEYS, SECTION_KEYS, "scenario")

    duration = integer(raw, "duration_ms", "")
    if duration < 0:
        fail(raw, "duration_ms", "", ">= 0")
    scenario = Scenario(duration_ms=duration, seed=integer(raw, "seed", ""))

    vehicles: dict[str, VehicleSpec] = {}
    for i, item in enumerate(section(raw, "vehicles")):
        where = ("vehicles", i)
        keys(item, VEHICLE_KEYS, NO_KEYS, where)
        vid = string(item, "id", where)
        if "/" in vid or len(f"route_{vid}.txt".encode("utf-8")) > 255:
            fail(item, "id", where, "free of '/', with route_<id>.txt at most 255 UTF-8 bytes")
        if vid in vehicles:
            raise InputError(f"vehicles[{i}].id: duplicate vehicle id {vid!r}")
        arc = lookup(net.arc, item, "start_arc", where, "arc")
        offset = finite(item, "start_offset_m", where)
        if not (0.0 <= offset < arc.length_m):
            fail(item, "start_offset_m", where, f"in [0, {arc.length_m!r}) on arc {arc.id!r}")
        speed = finite(item, "speed_mps", where)
        if speed < 0:
            fail(item, "speed_mps", where, ">= 0")
        if not isinstance(item["waypoints"], list):
            fail(item, "waypoints", where, "a list")
        waypoints = tuple(item["waypoints"])
        # known node ids passed the string rule when the network was read;
        # `lookup`, item by item, names the first waypoint that is not one
        try:
            known = net.nodes.keys() >= set(waypoints)
        except TypeError:  # an unhashable waypoint
            known = False
        waypoints_where = (*where, "waypoints")
        if not known:
            for k in range(len(waypoints)):
                lookup(net.node, waypoints, k, waypoints_where, "node")
        if waypoints:
            if waypoints[0] != arc.head:
                fail(waypoints, 0, waypoints_where,
                     f"{arc.head!r}, the head of start arc {arc.id!r}")
            # the waypoints are known nodes: the pair index lists every
            # pair that an arc joins
            for a, b in zip(waypoints, waypoints[1:]):
                if (a, b) not in net.pairs:
                    raise InputError(f"{field_name(waypoints_where)}: no arc joins "
                                     f"{a!r} -> {b!r}")
        vehicles[vid] = VehicleSpec(vid, arc.id, offset, speed, waypoints)
    scenario.vehicles.extend(vehicles.values())

    depth_sums: dict[str, float] = {}  # arc id -> the depths of its pits so far
    for i, item in enumerate(section(raw, "pits")):
        where = ("pits", i)
        keys(item, PIT_KEYS, NO_KEYS, where)
        arc = lookup(net.arc, item, "arc", where, "arc")
        pit = Pit(finite(item, "center_m", where), finite(item, "half_length_m", where),
                  finite(item, "depth_mm", where), finite(item, "reflectivity", where))
        center, half, depth, reflectivity = pit
        if half < 0:
            fail(item, "half_length_m", where, ">= 0")
        if depth < 0:
            fail(item, "depth_mm", where, ">= 0")
        if not (0.0 <= reflectivity <= 1.0):
            fail(item, "reflectivity", where, "in [0, 1]")
        # not `half <= center <= length - half`, whose subtraction rounds
        # differently at the arc's end
        if center - half < 0 or center + half > arc.length_m:
            fail(item, "center_m", where, f"at least half_length_m ({half!r}) from both "
                 f"ends of arc {arc.id!r} of length_m {arc.length_m!r}")
        # the sum behind an arc weight's mean depth, and the weight, the mean
        # times the length, then stay finite whatever the rounding (the
        # doubled sum is finite on its own, whatever the length)
        depth_sum = depth_sums[arc.id] = depth_sums.get(arc.id, 0.0) + depth
        if not depth_sum * 2.0 * arc.length_m < inf:
            fail(item, "depth_mm", where,
                 f"small enough that the summed pit depths of arc {arc.id!r}, doubled "
                 f"and then multiplied by its length_m, stay finite")
        surface = scenario.pits.get(arc.id)
        if surface is None:
            surface = scenario.pits[arc.id] = GroundTruthSurface(arc.id, arc.length_m)
        surface.pits.append(pit)

    seen_aps: set[str] = set()
    for i, item in enumerate(section(raw, "access_points")):
        where = ("access_points", i)
        keys(item, ACCESS_POINT_KEYS, NO_KEYS, where)
        ap_id = string(item, "id", where)
        if ap_id in seen_aps:
            raise InputError(f"access_points[{i}].id: duplicate access point id {ap_id!r}")
        seen_aps.add(ap_id)
        x, y = finite(item, "x", where), finite(item, "y", where)
        range_m = finite(item, "range_m", where)
        if range_m <= 0:
            fail(item, "range_m", where, "> 0")
        if not isinstance(item["open"], bool):
            fail(item, "open", where, "true or false")
        scenario.access_points.append(AccessPointSpec(ap_id, x, y, range_m, item["open"]))

    # as with the waypoints, an id known to `vehicles` or the network passed
    # the string rule when it was read; `lookup` names any other value
    events, nodes = scenario.events, net.nodes
    for i, item in enumerate(section(raw, "events")):
        where = ("events", i)
        keys(item, EVENT_KEYS, DEST_KEY, where)
        t = integer(item, "t_ms", where)
        if not (0 <= t < scenario.duration_ms):
            fail(item, "t_ms", where, "in [0, duration_ms)")
        vid = item["vehicle"]
        if not (type(vid) is str and vid in vehicles):
            vid = lookup(vehicles.__getitem__, item, "vehicle", where, "vehicle").id
        kind = item["kind"]
        dest = item.get("dest")
        if kind == "DETECT":
            if "dest" in item:
                raise InputError(f"events[{i}]: DETECT takes no dest")
        elif kind == "DEST_CHANGE":
            if dest is not None and not (type(dest) is str and dest in nodes):
                lookup(net.node, item, "dest", where, "node")
        else:
            fail(item, "kind", where, "DETECT or DEST_CHANGE")
        events.append(_new(TimedEvent, (t, kind, vid, dest)))

    return scenario
