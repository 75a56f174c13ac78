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
>= 0; vehicle and access point ids and event vehicles are strings, ids of
arcs and nodes are strings that the network knows, and `open` is a
boolean.  Every rejection raises ScenarioError naming the field, e.g.
`pits[0].arc: unknown arc 'zz'`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .detection import GroundTruthSurface, Pit
from .network import StreetNetwork


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class VehicleSpec:
    id: str
    start_arc: str
    start_offset_m: float
    speed_mps: float
    waypoints: tuple[str, ...]


@dataclass(frozen=True)
class AccessPointSpec:
    id: str
    x: float
    y: float
    range_m: float
    open: bool


@dataclass(frozen=True)
class TimedEvent:
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


def _keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    unknown = set(obj) - required - optional
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"missing keys {sorted(missing)} in {where}")


def _section(raw: dict, name: str) -> list[dict]:
    items = raw.get(name, [])
    if not isinstance(items, list):
        raise ScenarioError(f"{name!r} must be a list, got {items!r}")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ScenarioError(f"{name}[{i}] must be an object, got {item!r}")
    return items


def _name(where: str, key: str | int) -> str:
    """The field `container[key]` of `where`: `pits[0].arc`,
    `vehicles[0].waypoints[1]` or, at the top level, `seed`."""
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


# Each check reads `item[key]` and names the field only when it fails.

def _finite(item, key: str | int, where: str) -> float:
    value = item[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ScenarioError(f"{_name(where, key)} must be a finite number, got {value!r}")
    return float(value)


def _integer(item, key: str | int, where: str) -> int:
    value = item[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{_name(where, key)} must be an integer, got {value!r}")
    return value


def _string(item, key: str | int, where: str) -> str:
    value = item[key]
    if not isinstance(value, str):
        raise ScenarioError(f"{_name(where, key)} must be a string, got {value!r}")
    return value


def _lookup(find, item, key: str | int, where: str, what: str):
    """`find(item[key])` on the network, as an arc or node id."""
    value = _string(item, key, where)
    try:
        return find(value)
    except LookupError:
        raise ScenarioError(f"{_name(where, key)}: unknown {what} {value!r}") from None


def load_scenario(path: str | Path, net: StreetNetwork) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(raw, net)


def scenario_from_dict(raw, net: StreetNetwork) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    _keys(raw, {"duration_ms", "seed"},
          {"vehicles", "pits", "access_points", "events"}, "scenario")

    duration = _integer(raw, "duration_ms", "")
    if duration < 0:
        raise ScenarioError("duration_ms must be >= 0")
    scenario = Scenario(duration_ms=duration, seed=_integer(raw, "seed", ""))

    seen_vehicles: set[str] = set()
    for i, item in enumerate(_section(raw, "vehicles")):
        where = f"vehicles[{i}]"
        _keys(item, {"id", "start_arc", "start_offset_m", "speed_mps", "waypoints"},
              set(), where)
        vid = _string(item, "id", where)
        if vid in seen_vehicles:
            raise ScenarioError(f"duplicate vehicle id {vid!r}")
        seen_vehicles.add(vid)
        arc = _lookup(net.arc, item, "start_arc", where, "arc")
        offset = _finite(item, "start_offset_m", where)
        if not (0.0 <= offset < arc.length_m):
            raise ScenarioError(
                f"vehicle {vid!r} start offset {offset} outside arc {arc.id!r}")
        speed = _finite(item, "speed_mps", where)
        if speed < 0:
            raise ScenarioError(f"vehicle {vid!r} speed must be >= 0")
        if not isinstance(item["waypoints"], list):
            raise ScenarioError(
                f"{where}.waypoints must be a list, got {item['waypoints']!r}")
        waypoints = tuple(item["waypoints"])
        for k in range(len(waypoints)):
            _lookup(net.node, waypoints, k, f"{where}.waypoints", "node")
        if waypoints:
            if waypoints[0] != arc.head:
                raise ScenarioError(
                    f"vehicle {vid!r}: first waypoint {waypoints[0]!r} must be the "
                    f"head of start arc {arc.id!r} ({arc.head!r})")
            for a, b in zip(waypoints, waypoints[1:]):
                if not net.arcs_between(a, b):
                    raise ScenarioError(
                        f"vehicle {vid!r}: no arc joins waypoints {a!r} -> {b!r}")
        scenario.vehicles.append(VehicleSpec(vid, arc.id, offset, speed, waypoints))

    pits_by_arc: dict[str, list[Pit]] = {}
    for i, item in enumerate(_section(raw, "pits")):
        where = f"pits[{i}]"
        _keys(item, {"arc", "center_m", "half_length_m", "depth_mm", "reflectivity"},
              set(), where)
        _lookup(net.arc, item, "arc", where, "arc")
        center, half_length, depth, reflectivity = (
            _finite(item, key, where)
            for key in ("center_m", "half_length_m", "depth_mm", "reflectivity"))
        if half_length < 0:
            raise ScenarioError(f"{where}.half_length_m must be >= 0, got {half_length!r}")
        pits_by_arc.setdefault(item["arc"], []).append(
            Pit(center, half_length, depth, reflectivity))
    for arc_id, pits in pits_by_arc.items():
        scenario.pits[arc_id] = GroundTruthSurface(
            arc_id, net.arc(arc_id).length_m, pits)  # validates extents

    seen_aps: set[str] = set()
    for i, item in enumerate(_section(raw, "access_points")):
        where = f"access_points[{i}]"
        _keys(item, {"id", "x", "y", "range_m", "open"}, set(), where)
        ap_id = _string(item, "id", where)
        if ap_id in seen_aps:
            raise ScenarioError(f"duplicate access point id {ap_id!r}")
        seen_aps.add(ap_id)
        x, y, range_m = (_finite(item, key, where) for key in ("x", "y", "range_m"))
        if range_m <= 0:
            raise ScenarioError(f"access point {ap_id!r} range must be > 0")
        if not isinstance(item["open"], bool):
            raise ScenarioError(f"{where}.open must be true or false, got {item['open']!r}")
        scenario.access_points.append(AccessPointSpec(ap_id, x, y, range_m, item["open"]))

    for i, item in enumerate(_section(raw, "events")):
        where = f"events[{i}]"
        _keys(item, {"t_ms", "kind", "vehicle"}, {"dest"}, where)
        t = _integer(item, "t_ms", where)
        if not (0 <= t < scenario.duration_ms):
            raise ScenarioError(f"events[{i}]: t_ms {t} outside [0, duration)")
        vid = _string(item, "vehicle", where)
        if vid not in seen_vehicles:
            raise ScenarioError(f"events[{i}]: unknown vehicle {vid!r}")
        kind = item["kind"]
        dest = item.get("dest")
        if kind == "DETECT":
            if "dest" in item:
                raise ScenarioError(f"events[{i}]: DETECT takes no dest")
        elif kind == "DEST_CHANGE":
            if dest is not None:
                _lookup(net.node, item, "dest", where, "node")
        else:
            raise ScenarioError(f"events[{i}]: unknown kind {kind!r}")
        scenario.events.append(TimedEvent(t, kind, vid, dest))

    return scenario
