"""Discrete-event vehicle communications and movement.

Single-threaded event loop over two queues of plain tuples that share
one insertion counter; all world mutations happen inside handlers, in
timestamp order with ties broken by insertion sequence.  Identical
scenario and seed give a bit-identical trace.

  * the ticks -- every vehicle's PHASE_TIMEOUT, as (t_ms, seq, vehicle)
    in a FIFO.  Only set-up and the tick handler schedule ticks, and each
    tick appends its successor one phase latency later, with a seq above
    every entry queued so far.  Ticks run in (t_ms, seq) order, so every
    queued tick is due within one latency of the one running and the FIFO
    stays sorted by (t_ms, seq) without any heap operation;
  * the heap -- every other event, as (t_ms, seq, kind, payload), where
    the kind names the handler and the payload holds its arguments after
    the time.

The loop runs the first tick while it sorts before the top of the heap and
pops the heap otherwise.  Seqs are unique, so the comparison never reaches
the third field, and events run in exactly the (t_ms, seq) order of one
heap holding both queues, also where a MOVE, DETECT, UPLINK or
DEST_CHANGE shares its millisecond with ticks.

Modelled behaviors:

  * movement -- vehicles traverse arcs at constant speed; a MOVE event
    fires at each node arrival, where the next arc is chosen (routing
    session first, scenario waypoints otherwise);
  * detection -- a DETECT event senses the vehicle's current arc, queues
    one sealed envelope (with a fresh nonce) per extracted pothole, and
    warns nearby vehicles.  The ground truth is fixed for the run, so the
    world sweeps each arc at most once, on its first DETECT, and keeps the
    extracted potholes; an arc with no pit, or shorter than one scanner
    cell, senses nothing without a sweep;
  * warning broadcast -- single-hop, lossless delivery to every other
    vehicle within 20 m (closed bound); receivers cache the warning and
    never re-broadcast;
  * opportunistic uplink -- a per-vehicle connection steps through
    SCANNING -> ASSOCIATING -> AUTHENTICATING -> CONNECTED, one phase per
    exchange (`SimConfig.phase_latency_ms`, 100 ms) while an open access
    point is in range, and drops to LOST (then back to SCANNING) once
    nothing has been heard for more than `SimConfig.loss_timeout_ms`
    (500 ms); while CONNECTED, queued envelopes drain to the server at
    `SimConfig.transfer_budget` (4) per exchange.  A phase is the plain
    word that the PHASE_TIMEOUT trace line prints.

Open access points are indexed once, when the world is built, on a
uniform grid (a spatial hash in the manner of Teschner et al. 2003).  The
cell is a little wider than the largest open range, and each open access
point is listed in the 3x3 block of cells around its own, so the one
bucket of a vehicle's cell lists every open access point that can reach
it.  Closed access points are never indexed.

Trace format: one line per processed event, `t=<ms> <EVENT_KIND> <details>`
with a fixed field order per kind.  A DEST_CHANGE whose destination is
unreachable ends in ` unreachable` and clears the vehicle's destination.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from math import floor, hypot

from . import weighting
from .config import SimConfig
from .detection import (DepthMap, GroundTruthSurface, IntensityImage, PotholeDetection,
                        cell_count, extract_potholes, sweep)
from .geocrypto import Location, PlainReport, ReportEnvelope, encrypt
from .network import StreetNetwork
from .registry import PotholeRegistry
from .routing import RoutingSession, UnreachableError, fmt_num, modify_destination
from .scenario import Scenario
from .server import Server


class UnknownVehicleError(LookupError):
    pass


class Phase:
    """Connection phases; each is also the word its trace lines print."""

    SCANNING = "SCANNING"
    ASSOCIATING = "ASSOCIATING"
    AUTHENTICATING = "AUTHENTICATING"
    CONNECTED = "CONNECTED"
    LOST = "LOST"


@dataclass(frozen=True)
class ConnectionState:
    phase: str = Phase.SCANNING
    last_activity_ms: int = 0
    peer: str | None = None


def step_connection(conn: ConnectionState, visible_ap: str | None, now_ms: int,
                    loss_timeout_ms: int) -> ConnectionState:
    """Advance the connection lifecycle by one request/response exchange.

    LOST immediately re-enters SCANNING.  Any handshake or connected state
    falls to LOST once the silence since the last activity exceeds
    `loss_timeout_ms` (the simulation passes `SimConfig.loss_timeout_ms`).
    While an access point is visible, each step advances one phase toward
    CONNECTED (a visible peer refreshes activity); a visible AP that
    differs from the handshake peer does not advance anything -- the stale
    handshake simply times out.
    """
    if conn.phase == Phase.LOST:
        return ConnectionState(Phase.SCANNING, now_ms, None)
    if conn.phase != Phase.SCANNING and now_ms - conn.last_activity_ms > loss_timeout_ms:
        return ConnectionState(Phase.LOST, conn.last_activity_ms, conn.peer)
    if visible_ap is None:
        return conn
    if conn.phase == Phase.SCANNING:
        return ConnectionState(Phase.ASSOCIATING, now_ms, visible_ap)
    if visible_ap != conn.peer:
        return conn
    if conn.phase == Phase.ASSOCIATING:
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


class EventKind:
    """Event kinds; each is also the word that opens its trace lines."""

    MOVE = "MOVE"
    DETECT = "DETECT"
    P2P_BROADCAST = "P2P_BROADCAST"
    PHASE_TIMEOUT = "PHASE_TIMEOUT"
    UPLINK = "UPLINK"
    DEST_CHANGE = "DEST_CHANGE"


# one bucket entry of the access point grid: (x, y, range_m, id)
APEntry = tuple[float, float, float, str]


def _grid_open_aps(aps: Iterable[AccessPoint], net: StreetNetwork
                   ) -> tuple[float, dict[tuple[int, int], list[APEntry]]]:
    """Cell width and buckets of the uniform grid over the open `aps`.

    Each open access point is listed in the 3x3 cells around its own cell
    (floor(x / cell), floor(y / cell)).  A point that passes the range test
    `hypot(ap.x - x, ap.y - y) <= range_m` lies less than one cell from the
    access point on each axis, so the bucket of the point's own cell lists
    that access point.  The cell is strictly
    wider than the largest open range, by 2**-50 of (that range + twice
    the largest coordinate magnitude of any node or open access point):
    several times the worst rounding of `ap.x - x` and of the two
    `floor(x / cell)` divisions, and enough to keep every quotient far
    from overflow.
    """
    open_aps = [ap for ap in aps if ap.open]
    reach = max((ap.range_m for ap in open_aps), default=1.0)
    extent = max([abs(c) for n in net.nodes.values() for c in (n.x, n.y)]
                 + [abs(c) for ap in open_aps for c in (ap.x, ap.y)], default=0.0)
    cell = reach + (reach + 2.0 * extent) * 2.0 ** -50
    buckets: dict[tuple[int, int], list[APEntry]] = {}
    for ap in open_aps:
        i, j = floor(ap.x / cell), floor(ap.y / cell)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                buckets.setdefault((i + di, j + dj), []).append(
                    (ap.x, ap.y, ap.range_m, ap.id))
    return cell, buckets


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
            session = RoutingSession(wnet, spec.start_arc)
            self.vehicles[spec.id] = VehicleState(
                id=spec.id, arc=spec.start_arc, offset_m=spec.start_offset_m,
                at_ms=0, speed_mps=spec.speed_mps, waypoints=list(spec.waypoints),
                session=session)
        # vehicles are fixed after set-up: broadcasts walk this order
        self.vehicle_ids: tuple[str, ...] = tuple(sorted(self.vehicles))

        self.aps: dict[str, AccessPoint] = {
            ap.id: AccessPoint(ap.id, ap.x, ap.y, ap.range_m, ap.open)
            for ap in scenario.access_points}
        self.ap_cell_m, self._ap_buckets = _grid_open_aps(self.aps.values(), net)

        # filled on first use: arc id -> (tail x, tail y, dx, dy, length)
        self._arc_lines: dict[str, tuple[float, float, float, float, float]] = {}
        # filled on first use: arc id -> what a sweep of the whole arc extracts
        self._sensed: dict[str, list[PotholeDetection]] = {}

    def vehicle(self, vid: str) -> VehicleState:
        try:
            return self.vehicles[vid]
        except KeyError:
            raise UnknownVehicleError(vid) from None

    def vehicle_position(self, vid: str, now_ms: int) -> tuple[float, float]:
        """Planar position, interpolated linearly along the current arc."""
        return self._position(self.vehicle(vid), now_ms)

    def _position(self, v: VehicleState, now_ms: int) -> tuple[float, float]:
        line = self._arc_lines.get(v.arc)
        if line is None:
            arc = self.net.arcs[v.arc]  # ids were validated when the inputs were loaded
            tail = self.net.nodes[arc.tail]
            head = self.net.nodes[arc.head]
            line = self._arc_lines[v.arc] = (tail.x, tail.y, head.x - tail.x,
                                             head.y - tail.y, arc.length_m)
        x, y, dx, dy, length = line
        speed = 0.0 if v.stopped else v.speed_mps
        frac = min(v.offset_m + speed * (now_ms - v.at_ms) / 1000.0, length) / length
        return (x + dx * frac, y + dy * frac)

    def visible_ap(self, vid: str, now_ms: int) -> str | None:
        """Open access point in radio range; the current handshake peer wins
        while still visible, otherwise the nearest (ties by ap id).  Reads
        only the grid bucket of the vehicle's cell."""
        v = self.vehicle(vid)
        x, y = self._position(v, now_ms)
        cell = self.ap_cell_m
        bucket = self._ap_buckets.get((floor(x / cell), floor(y / cell)))
        if bucket is None:
            return None
        in_range = []
        for ap_x, ap_y, range_m, ap_id in bucket:
            dist = hypot(ap_x - x, ap_y - y)
            if dist <= range_m:
                in_range.append((dist, ap_id))
        if not in_range:
            return None
        peer = v.conn.peer
        if peer is not None and any(ap_id == peer for _, ap_id in in_range):
            return peer
        return min(in_range)[1]

    def sense(self, arc_id: str) -> list[PotholeDetection]:
        """The potholes that a sweep of the whole arc extracts.

        The ground truth is fixed for the run, so each arc is swept at most
        once per world and every later call returns the same list.  An arc
        with no pit, or with no whole scanner cell, senses nothing and is
        never swept.
        """
        found = self._sensed.get(arc_id)
        if found is None:
            found = []
            surface = self.surfaces.get(arc_id)
            length = self.net.arcs[arc_id].length_m
            cell_m = self.config.cell_m
            if surface is not None and cell_count(length, cell_m) >= 1:
                dm, ii = sweep(surface, (0.0, length), cell_m)
                found = extract_potholes(dm, ii, self.config.threshold_mm, arc_id, 0.0)
            self._sensed[arc_id] = found
        return found


def p2p_broadcast(world: World, sender: str, pothole_key: str, now_ms: int) -> list[str]:
    """Warn every other vehicle within the broadcast radius (closed bound).

    Receivers add the warning to their cache; nobody re-broadcasts.
    Returns the receiving vehicle ids, sorted.
    """
    sx, sy = world.vehicle_position(sender, now_ms)
    receivers = []
    for vid in world.vehicle_ids:
        if vid == sender:
            continue
        x, y = world.vehicle_position(vid, now_ms)
        if hypot(x - sx, y - sy) <= world.config.p2p_range_m:
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
    if v.conn.phase != Phase.CONNECTED:
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
        self._heap: list[tuple[int, int, str, tuple]] = []
        self._ticks: deque[tuple[int, int, str]] = deque()
        self._seq = 0

        for ev in scenario.events:
            if ev.kind == "DEST_CHANGE":
                self._schedule(ev.t_ms, EventKind.DEST_CHANGE, ev.vehicle, ev.dest)
            else:
                self._schedule(ev.t_ms, EventKind.DETECT, ev.vehicle)
        for vid, v in self.world.vehicles.items():
            if v.speed_mps > 0:
                self._schedule_arrival(vid, 0)
            self._schedule_tick(config.phase_latency_ms, vid)

    def _schedule(self, t_ms: int, kind: str, *payload) -> None:
        """Queue the handler of `kind` to run at `t_ms` with `payload` as
        its arguments after the time."""
        if t_ms >= self.duration_ms:
            return
        heapq.heappush(self._heap, (t_ms, self._seq, kind, payload))
        self._seq += 1

    def _schedule_tick(self, t_ms: int, vid: str) -> None:
        """Queue a PHASE_TIMEOUT; only set-up and the tick handler call this,
        which keeps the ticks FIFO sorted (see the module docstring)."""
        if t_ms >= self.duration_ms:
            return
        self._ticks.append((t_ms, self._seq, vid))
        self._seq += 1

    def _schedule_arrival(self, vid: str, now_ms: int) -> None:
        v = self.world.vehicle(vid)
        arc = self.world.net.arcs[v.arc]
        ms = (arc.length_m - v.offset_m) / v.speed_mps * 1000.0
        if ms < self.duration_ms:  # a later arrival, inf included, never runs
            self._schedule(now_ms + int(round(ms)), EventKind.MOVE, vid)

    def _emit(self, t_ms: int, kind: str, details: str) -> None:
        self.trace.append(f"t={t_ms} {kind} {details}")

    def run(self) -> World:
        handlers = {
            EventKind.MOVE: self._on_move,
            EventKind.DETECT: self._on_detect,
            EventKind.P2P_BROADCAST: self._on_broadcast,
            EventKind.UPLINK: self._on_uplink,
            EventKind.DEST_CHANGE: self._on_dest_change,
        }
        heap, pop = self._heap, heapq.heappop
        ticks, tick = self._ticks, self._on_phase_timeout
        while ticks or heap:
            if ticks and (not heap or ticks[0] < heap[0]):
                t, _, vid = ticks.popleft()
                tick(t, vid)
            else:
                t, _, kind, payload = pop(heap)
                handlers[kind](t, *payload)
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
        detections = self.world.sense(v.arc)
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
                self._schedule(now_ms, EventKind.P2P_BROADCAST, vehicle, key)
        self._emit(now_ms, EventKind.DETECT,
                   f"vehicle={vehicle} arc={v.arc} reports={len(detections)} new={fresh}")

    def _on_broadcast(self, now_ms: int, vehicle: str, pothole: str) -> None:
        receivers = p2p_broadcast(self.world, vehicle, pothole, now_ms)
        self._emit(now_ms, EventKind.P2P_BROADCAST,
                   f"vehicle={vehicle} pothole={pothole} "
                   f"receivers={','.join(receivers) or '-'}")

    def _on_phase_timeout(self, now_ms: int, vehicle: str) -> None:
        v = self.world.vehicles[vehicle]  # ticks exist only for known vehicles
        visible = self.world.visible_ap(vehicle, now_ms)
        conn = v.conn = step_connection(v.conn, visible, now_ms, self.config.loss_timeout_ms)
        self.trace.append(f"t={now_ms} PHASE_TIMEOUT vehicle={vehicle} "
                          f"phase={conn.phase} ap={conn.peer or '-'}")
        if conn.phase == Phase.CONNECTED and visible == conn.peer and v.queue:
            self._schedule(now_ms, EventKind.UPLINK, vehicle)
        self._schedule_tick(now_ms + self.config.phase_latency_ms, vehicle)

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
