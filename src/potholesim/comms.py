"""Discrete-event vehicle communications and movement.

Single-threaded event loop over a min-heap of (timestamp, insertion seq,
event); all world mutations happen inside handlers, in timestamp order
with ties broken by insertion sequence.  Identical scenario and seed give
a bit-identical trace.

Modelled behaviors:

  * movement -- vehicles traverse arcs at constant speed; a MOVE event
    fires at each node arrival, where the next arc is chosen (routing
    session first, scenario waypoints otherwise);
  * detection -- a DETECT event sweeps the vehicle's current arc, queues
    one sealed envelope per extracted pothole, and warns nearby vehicles
    (an arc shorter than one scanner cell has nothing to sweep);
  * warning broadcast -- single-hop, lossless delivery to every other
    vehicle within 20 m (closed bound); receivers cache the warning and
    never re-broadcast;
  * opportunistic uplink -- a per-vehicle connection steps through
    SCANNING -> ASSOCIATING -> AUTHENTICATING -> CONNECTED, one phase per
    100 ms exchange while an open access point is in range, and drops to
    LOST (then back to SCANNING) once nothing has been heard for more
    than 500 ms; while CONNECTED, queued envelopes drain to the server
    at 4 per exchange.

Trace format: one line per processed event, `t=<ms> <EVENT_KIND> <details>`
with a fixed field order per kind.  A DEST_CHANGE whose destination is
unreachable ends in ` unreachable` and clears the vehicle's destination.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum

from . import weighting
from .config import SimConfig
from .detection import (DepthMap, GroundTruthSurface, IntensityImage, cell_count,
                        extract_potholes, sweep)
from .geocrypto import Location, PlainReport, ReportEnvelope, encrypt
from .network import StreetNetwork
from .registry import PotholeRegistry
from .routing import RoutingSession, UnreachableError, fmt_num, modify_destination
from .scenario import Scenario
from .server import Server


class UnknownVehicleError(LookupError):
    pass


class Phase(Enum):
    SCANNING = "SCANNING"
    ASSOCIATING = "ASSOCIATING"
    AUTHENTICATING = "AUTHENTICATING"
    CONNECTED = "CONNECTED"
    LOST = "LOST"


@dataclass(frozen=True)
class ConnectionState:
    phase: Phase = Phase.SCANNING
    last_activity_ms: int = 0
    peer: str | None = None


def step_connection(conn: ConnectionState, visible_ap: str | None, now_ms: int,
                    loss_timeout_ms: int = 500) -> ConnectionState:
    """Advance the connection lifecycle by one request/response exchange.

    LOST immediately re-enters SCANNING.  Any handshake or connected state
    falls to LOST once the silence since the last activity exceeds the
    timeout.  While an access point is visible, each step advances one
    phase toward CONNECTED (a visible peer refreshes activity); a visible
    AP that differs from the handshake peer does not advance anything --
    the stale handshake simply times out.
    """
    if conn.phase is Phase.LOST:
        return ConnectionState(Phase.SCANNING, now_ms, None)
    if conn.phase is not Phase.SCANNING and now_ms - conn.last_activity_ms > loss_timeout_ms:
        return ConnectionState(Phase.LOST, conn.last_activity_ms, conn.peer)
    if visible_ap is None:
        return conn
    if conn.phase is Phase.SCANNING:
        return ConnectionState(Phase.ASSOCIATING, now_ms, visible_ap)
    if visible_ap != conn.peer:
        return conn
    if conn.phase is Phase.ASSOCIATING:
        return ConnectionState(Phase.AUTHENTICATING, now_ms, conn.peer)
    return ConnectionState(Phase.CONNECTED, now_ms, conn.peer)


@dataclass(frozen=True)
class AccessPoint:
    id: str
    x: float
    y: float
    range_m: float
    open: bool


@dataclass
class VehicleState:
    id: str
    arc: str
    offset_m: float
    at_ms: int
    speed_mps: float
    waypoints: list[str]
    session: RoutingSession
    queue: deque[tuple[ReportEnvelope, Location]] = field(default_factory=deque)
    warning_cache: set[str] = field(default_factory=set)
    conn: ConnectionState = field(default_factory=ConnectionState)
    stopped: bool = False


class EventKind(Enum):
    MOVE = "MOVE"
    DETECT = "DETECT"
    P2P_BROADCAST = "P2P_BROADCAST"
    PHASE_TIMEOUT = "PHASE_TIMEOUT"
    UPLINK = "UPLINK"
    DEST_CHANGE = "DEST_CHANGE"


@dataclass(frozen=True)
class SimEvent:
    """One scheduled event; processed in (timestamp, insertion seq) order."""

    t_ms: int
    kind: EventKind
    payload: dict


class World:
    """All mutable simulation state: vehicles, access points, the server."""

    def __init__(self, net: StreetNetwork, scenario: Scenario, config: SimConfig):
        self.net = net
        self.config = config
        self.rng = random.Random(scenario.seed)
        self.surfaces: dict[str, GroundTruthSurface] = dict(scenario.pits)

        registry = PotholeRegistry(net, config.dedup_radius_m)
        wnet = weighting.preprocess(net, registry)
        self.server = Server(net, registry, wnet, config.shared_key)

        self.vehicles: dict[str, VehicleState] = {}
        for spec in scenario.vehicles:
            session = RoutingSession(wnet, spec.id, spec.start_arc)
            self.vehicles[spec.id] = VehicleState(
                id=spec.id, arc=spec.start_arc, offset_m=spec.start_offset_m,
                at_ms=0, speed_mps=spec.speed_mps, waypoints=list(spec.waypoints),
                session=session)

        self.aps: dict[str, AccessPoint] = {
            ap.id: AccessPoint(ap.id, ap.x, ap.y, ap.range_m, ap.open)
            for ap in scenario.access_points}

    def vehicle(self, vid: str) -> VehicleState:
        try:
            return self.vehicles[vid]
        except KeyError:
            raise UnknownVehicleError(vid) from None

    def vehicle_position(self, vid: str, now_ms: int) -> tuple[float, float]:
        """Planar position, interpolated linearly along the current arc."""
        v = self.vehicle(vid)
        arc = self.net.arc(v.arc)
        speed = 0.0 if v.stopped else v.speed_mps
        offset = min(v.offset_m + speed * (now_ms - v.at_ms) / 1000.0, arc.length_m)
        tail = self.net.node(arc.tail)
        head = self.net.node(arc.head)
        frac = offset / arc.length_m
        return (tail.x + (head.x - tail.x) * frac,
                tail.y + (head.y - tail.y) * frac)

    def visible_ap(self, vid: str, now_ms: int) -> str | None:
        """Open access point in radio range; the current handshake peer wins
        while still visible, otherwise the nearest (ties by ap id)."""
        x, y = self.vehicle_position(vid, now_ms)
        in_range = []
        for ap in self.aps.values():
            if not ap.open:
                continue
            dist = math.hypot(ap.x - x, ap.y - y)
            if dist <= ap.range_m:
                in_range.append((dist, ap.id))
        if not in_range:
            return None
        peer = self.vehicle(vid).conn.peer
        if peer is not None and any(ap_id == peer for _, ap_id in in_range):
            return peer
        return min(in_range)[1]


def p2p_broadcast(world: World, sender: str, pothole_key: str, now_ms: int) -> list[str]:
    """Warn every other vehicle within the broadcast radius (closed bound).

    Receivers add the warning to their cache; nobody re-broadcasts.
    Returns the receiving vehicle ids, sorted.
    """
    sx, sy = world.vehicle_position(sender, now_ms)
    receivers = []
    for vid in sorted(world.vehicles):
        if vid == sender:
            continue
        x, y = world.vehicle_position(vid, now_ms)
        if math.hypot(x - sx, y - sy) <= world.config.p2p_range_m:
            world.vehicles[vid].warning_cache.add(pothole_key)
            receivers.append(vid)
    return receivers


def uplink(world: World, vid: str, now_ms: int) -> int:
    """Drain up to one transfer budget of queued envelopes to the server.

    Returns the number delivered; zero (not an error) when the vehicle is
    not CONNECTED or its connected peer has left radio range (a transfer
    without a reachable peer gets no response, so it neither delivers nor
    counts as activity -- the silence timeout will declare the loss).
    Queue entries are removed as they are handed over, so an envelope
    reaches the server at most once.
    """
    v = world.vehicle(vid)
    if v.conn.phase is not Phase.CONNECTED:
        return 0
    if world.visible_ap(vid, now_ms) != v.conn.peer:
        return 0
    delivered = 0
    while v.queue and delivered < world.config.transfer_budget:
        env, location = v.queue.popleft()
        world.server.receive_envelope(env, location, vid, now_ms)
        delivered += 1
    if delivered:
        v.conn = replace(v.conn, last_activity_ms=now_ms)
    return delivered


class Simulation:
    """Event loop driving one scenario against one street network."""

    def __init__(self, net: StreetNetwork, scenario: Scenario,
                 config: SimConfig = SimConfig()):
        self.world = World(net, scenario, config)
        self.config = config
        self.duration_ms = scenario.duration_ms
        self.trace: list[str] = []
        self._heap: list[tuple[int, int, SimEvent]] = []
        self._seq = 0

        for ev in scenario.events:
            if ev.kind == "DEST_CHANGE":
                self._schedule(ev.t_ms, EventKind.DEST_CHANGE,
                               vehicle=ev.vehicle, dest=ev.dest)
            else:
                self._schedule(ev.t_ms, EventKind.DETECT, vehicle=ev.vehicle)
        for vid, v in self.world.vehicles.items():
            if v.speed_mps > 0:
                self._schedule_arrival(vid, 0)
            self._schedule(config.phase_latency_ms, EventKind.PHASE_TIMEOUT, vehicle=vid)

    def _schedule(self, t_ms: int, kind: EventKind, **payload) -> None:
        if t_ms >= self.duration_ms:
            return
        heapq.heappush(self._heap, (t_ms, self._seq, SimEvent(t_ms, kind, payload)))
        self._seq += 1

    def _schedule_arrival(self, vid: str, now_ms: int) -> None:
        v = self.world.vehicle(vid)
        arc = self.world.net.arc(v.arc)
        remaining = arc.length_m - v.offset_m
        self._schedule(now_ms + int(round(remaining / v.speed_mps * 1000.0)),
                       EventKind.MOVE, vehicle=vid)

    def _emit(self, t_ms: int, kind: EventKind, details: str) -> None:
        self.trace.append(f"t={t_ms} {kind.value} {details}")

    def run(self) -> World:
        handlers = {
            EventKind.MOVE: self._on_move,
            EventKind.DETECT: self._on_detect,
            EventKind.P2P_BROADCAST: self._on_broadcast,
            EventKind.PHASE_TIMEOUT: self._on_phase_timeout,
            EventKind.UPLINK: self._on_uplink,
            EventKind.DEST_CHANGE: self._on_dest_change,
        }
        while self._heap:
            t, _, event = heapq.heappop(self._heap)
            handlers[event.kind](t, **event.payload)
        return self.world

    # -- handlers ----------------------------------------------------------

    def _enter_arc(self, v: VehicleState, arc_id: str, now_ms: int) -> None:
        v.arc = arc_id
        v.offset_m = 0.0
        v.at_ms = now_ms
        v.stopped = False
        v.session.advance(arc_id)
        self._schedule_arrival(v.id, now_ms)

    def _on_move(self, now_ms: int, vehicle: str) -> None:
        net = self.world.net
        v = self.world.vehicle(vehicle)
        node = net.arc(v.arc).head
        v.offset_m = net.arc(v.arc).length_m
        v.at_ms = now_ms
        if v.waypoints and v.waypoints[0] == node:
            v.waypoints.pop(0)

        s = v.session
        next_arc: str | None = None
        if s.destination is not None:
            if node == s.destination:
                s.clear()  # reached; fall back to waypoint driving
            elif s.pending_arcs and net.arc(s.pending_arcs[0]).tail == node:
                next_arc = s.pending_arcs.pop(0)
        if next_arc is None and s.destination is None and v.waypoints:
            candidates = net.arcs_between(node, v.waypoints[0])
            if candidates:
                next_arc = candidates[0].id

        if next_arc is not None:
            self._enter_arc(v, next_arc, now_ms)
        else:
            v.stopped = True
        self._emit(now_ms, EventKind.MOVE,
                   f"vehicle={vehicle} node={node} arc={next_arc or '-'}")

    def _on_detect(self, now_ms: int, vehicle: str) -> None:
        v = self.world.vehicle(vehicle)
        arc = self.world.net.arc(v.arc)
        detections = []
        if cell_count(arc.length_m, self.config.cell_m) >= 1:  # else nothing to sense
            surface = self.world.surfaces.get(
                v.arc, GroundTruthSurface(v.arc, arc.length_m, []))
            dm, ii = sweep(surface, (0.0, arc.length_m), self.config.cell_m)
            detections = extract_potholes(dm, ii, self.config.threshold_mm, v.arc, 0.0)

        fresh = 0
        for det in detections:
            report = PlainReport(
                depth_map=DepthMap(1, len(det.cells_depth), self.config.cell_m,
                                   list(det.cells_depth)),
                intensity_image=IntensityImage(1, len(det.cells_intensity),
                                               list(det.cells_intensity)),
                arc=det.arc, offset_m=det.offset_m,
                vehicle_id=vehicle, timestamp_ms=now_ms)
            env = encrypt(report, self.config.shared_key, self.world.rng)
            v.queue.append((env, (det.arc, det.offset_m)))
            key = f"{det.arc}:{fmt_num(det.offset_m)}"
            if key not in v.warning_cache:
                v.warning_cache.add(key)
                fresh += 1
                self._schedule(now_ms, EventKind.P2P_BROADCAST,
                               vehicle=vehicle, pothole=key)
        self._emit(now_ms, EventKind.DETECT,
                   f"vehicle={vehicle} arc={v.arc} reports={len(detections)} new={fresh}")

    def _on_broadcast(self, now_ms: int, vehicle: str, pothole: str) -> None:
        receivers = p2p_broadcast(self.world, vehicle, pothole, now_ms)
        self._emit(now_ms, EventKind.P2P_BROADCAST,
                   f"vehicle={vehicle} pothole={pothole} "
                   f"receivers={','.join(receivers) or '-'}")

    def _on_phase_timeout(self, now_ms: int, vehicle: str) -> None:
        v = self.world.vehicle(vehicle)
        visible = self.world.visible_ap(vehicle, now_ms)
        v.conn = step_connection(v.conn, visible, now_ms, self.config.loss_timeout_ms)
        self._emit(now_ms, EventKind.PHASE_TIMEOUT,
                   f"vehicle={vehicle} phase={v.conn.phase.value} ap={v.conn.peer or '-'}")
        if v.conn.phase is Phase.CONNECTED and visible == v.conn.peer and v.queue:
            self._schedule(now_ms, EventKind.UPLINK, vehicle=vehicle)
        self._schedule(now_ms + self.config.phase_latency_ms,
                       EventKind.PHASE_TIMEOUT, vehicle=vehicle)

    def _on_uplink(self, now_ms: int, vehicle: str) -> None:
        delivered = uplink(self.world, vehicle, now_ms)
        queued = len(self.world.vehicle(vehicle).queue)
        self._emit(now_ms, EventKind.UPLINK,
                   f"vehicle={vehicle} delivered={delivered} queued={queued}")

    def _on_dest_change(self, now_ms: int, vehicle: str, dest: str | None) -> None:
        v = self.world.vehicle(vehicle)
        s = v.session
        try:
            modify_destination(s, dest)
        except UnreachableError:
            s.clear()  # no route: back to weight-display mode
            self._emit(now_ms, EventKind.DEST_CHANGE,
                       f"vehicle={vehicle} dest={dest} unreachable")
            return
        if dest is not None and v.stopped and v.speed_mps > 0:
            resting = self.world.net.arc(v.arc).head
            if s.destination == resting:
                s.clear()
            elif s.pending_arcs and self.world.net.arc(s.pending_arcs[0]).tail == resting:
                self._enter_arc(v, s.pending_arcs.pop(0), now_ms)
        self._emit(now_ms, EventKind.DEST_CHANGE,
                   f"vehicle={vehicle} dest={dest or '-'}")

    def write_trace(self, path) -> None:
        with open(path, "w") as fh:
            fh.writelines(line + "\n" for line in self.trace)
