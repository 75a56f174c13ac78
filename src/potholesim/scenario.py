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
section present is a list of objects, and speeds and access point
coordinates and ranges are finite numbers.
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


def _finite(item: dict, key: str, where: str) -> float:
    value = item[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ScenarioError(f"{where}.{key} must be a finite number, got {value!r}")
    return float(value)


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

    duration = int(raw["duration_ms"])
    if duration < 0:
        raise ScenarioError("duration_ms must be >= 0")
    scenario = Scenario(duration_ms=duration, seed=int(raw["seed"]))

    seen_vehicles: set[str] = set()
    for i, item in enumerate(_section(raw, "vehicles")):
        _keys(item, {"id", "start_arc", "start_offset_m", "speed_mps", "waypoints"},
              set(), f"vehicles[{i}]")
        vid = item["id"]
        if vid in seen_vehicles:
            raise ScenarioError(f"duplicate vehicle id {vid!r}")
        seen_vehicles.add(vid)
        arc = net.arc(item["start_arc"])
        offset = float(item["start_offset_m"])
        if not (0.0 <= offset < arc.length_m):
            raise ScenarioError(
                f"vehicle {vid!r} start offset {offset} outside arc {arc.id!r}")
        speed = _finite(item, "speed_mps", f"vehicles[{i}]")
        if speed < 0:
            raise ScenarioError(f"vehicle {vid!r} speed must be >= 0")
        waypoints = tuple(item["waypoints"])
        for w in waypoints:
            net.node(w)
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
        _keys(item, {"arc", "center_m", "half_length_m", "depth_mm", "reflectivity"},
              set(), f"pits[{i}]")
        net.arc(item["arc"])
        pits_by_arc.setdefault(item["arc"], []).append(
            Pit(float(item["center_m"]), float(item["half_length_m"]),
                float(item["depth_mm"]), float(item["reflectivity"])))
    for arc_id, pits in pits_by_arc.items():
        scenario.pits[arc_id] = GroundTruthSurface(
            arc_id, net.arc(arc_id).length_m, pits)  # validates extents

    seen_aps: set[str] = set()
    for i, item in enumerate(_section(raw, "access_points")):
        where = f"access_points[{i}]"
        _keys(item, {"id", "x", "y", "range_m", "open"}, set(), where)
        if item["id"] in seen_aps:
            raise ScenarioError(f"duplicate access point id {item['id']!r}")
        seen_aps.add(item["id"])
        x, y, range_m = (_finite(item, key, where) for key in ("x", "y", "range_m"))
        if range_m <= 0:
            raise ScenarioError(f"access point {item['id']!r} range must be > 0")
        scenario.access_points.append(AccessPointSpec(
            item["id"], x, y, range_m, bool(item["open"])))

    for i, item in enumerate(_section(raw, "events")):
        _keys(item, {"t_ms", "kind", "vehicle"}, {"dest"}, f"events[{i}]")
        t = int(item["t_ms"])
        if not (0 <= t < scenario.duration_ms):
            raise ScenarioError(f"events[{i}]: t_ms {t} outside [0, duration)")
        if item["vehicle"] not in seen_vehicles:
            raise ScenarioError(f"events[{i}]: unknown vehicle {item['vehicle']!r}")
        kind = item["kind"]
        dest = item.get("dest")
        if kind == "DETECT":
            if "dest" in item:
                raise ScenarioError(f"events[{i}]: DETECT takes no dest")
        elif kind == "DEST_CHANGE":
            if dest is not None:
                net.node(dest)
        else:
            raise ScenarioError(f"events[{i}]: unknown kind {kind!r}")
        scenario.events.append(TimedEvent(t, kind, item["vehicle"], dest))

    return scenario
