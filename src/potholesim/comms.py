"""Discrete-event vehicle communications and movement.

Single-threaded event loop over two queues of plain tuples that share
one insertion counter; all world mutations happen inside handlers, in
timestamp order with ties broken by insertion sequence.  Identical
scenario and seed give a bit-identical trace.

  * the ticks -- every vehicle's PHASE_TIMEOUT, as (t_ms, seq, vehicle)
    in a FIFO, where the vehicle is its `VehicleState`.  Only set-up and the
    tick, which runs inline in `Simulation.run`, queue ticks, and each tick
    appends its successor one phase latency later, with a seq above every
    entry queued so far.  Ticks run in (t_ms, seq) order, so every queued
    tick is due within one latency of the one running and the FIFO stays
    sorted by (t_ms, seq) without any heap operation;
  * the heap -- every other event, as (t_ms, seq, handler, payload), where
    the handler is the `Simulation` method that runs it and the payload its
    arguments after the time, the first the event's `VehicleState`: set-up
    looks each scenario event's vehicle up once, and the events carry it.

Every handler, `p2p_broadcast`, `uplink` and `World.visible_ap` take the
`VehicleState` itself, so no id is looked up again after set-up.

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
    word that the PHASE_TIMEOUT trace line prints.  `step_connection`
    decides every phase change.  A CONNECTED link whose silence is still
    within the timeout cannot change phase, so the tick refreshes it in
    place -- it stores the tick's time as the last activity when it hears
    the peer, as `uplink` does after a delivery -- and calls
    `step_connection` only for the other phases and for a link past the
    timeout (and not for SCANNING with nothing visible, which stays).

Open access points are indexed per arc, the first time a vehicle enters the
arc (or starts on it).  Each arc lists its *candidates*: the open access
points whose disc comes within `range_m` + a margin of the arc's segment,
by the closest point on a segment (Ericson, *Real-Time Collision
Detection*, 2005, 5.1.2) after a bounding-box reject.  The margin covers
rounding.  A vehicle's position `x + dx*frac`, with `frac` in [0, 1], lies
within a few ulps of the segment's extent off the segment; the range test
`hypot(ap.x - x, ap.y - y) <= range_m` accepts only points within a few ulps
of `range_m`; and the closest-point arithmetic errs by fewer than 100 ulps
of (range + extent).  The margin is 2**-40 of (range + extent), far more
than all three together, so every access point that the range test accepts
anywhere on the arc is a candidate.  The closest point is found in
coordinates scaled by a power of two that puts the segment and the range
below 1, so no square overflows, and an overflow anywhere else keeps the
access point.  Closed access points are never candidates.

`World.set_arc` puts a vehicle on an arc, at set-up and on every arc entry
(a MOVE, or a DEST_CHANGE that restarts a stopped vehicle): it sets the
session's `current_arc`, the vehicle's one arc field, and copies the arc's
`ArcGeometry` -- its line (tail x, tail y, dx, dy, length), its segment's
bounding box and its candidates, built together from one lookup of the
arc's tail and head on the arc's first use and kept in one per-arc table --
into the `VehicleState`, so a tick reads its position and its access
points, and a broadcast its box, from the vehicle alone.

A scan's answer is *held* for the ticks at which a bound on the vehicle's
motion says it cannot change.  `World.visible_ap` notes the answer's slack:
range - distance when it finds the connection's peer still in range, the
least distance - range over the candidates when it finds no access point in
range; another answer (a new nearest access point) holds nothing.  On its
arc a vehicle moves in the plane at speed_mps * |segment| / length_m,
faster than speed_mps where `length_m` is shorter than the segment, and a
stopped vehicle does not move.  So the answer stands until the vehicle
could have covered the slack less the world's *margin*, which `_hold_end`
rounds down to a whole millisecond; it stands until the run's end for a
stopped vehicle, for one whose whole segment is shorter than that, and for
one so slow (a subnormal speed) that the time overflows.  Ticks before it
reuse the answer without computing a position, as long as the connection's
peer is the one found; an answer of no access point holds whatever the
peer.  `set_arc` and a MOVE, the only writers of the line, offset, start
time and stopped flag that the bound reads, clear the hold, and `set_arc`
holds no access point on an arc with no candidate.  So a tick on such an
arc computes no position, and while SCANNING it does not step the
connection either, since nothing could change.

A broadcast rejects a vehicle by its segment's bounding box before it
computes the vehicle's position: it skips every vehicle whose box lies more
than the radius + the margin from the sender on either axis.

The margin of both bounds is 2**-40 of (reach + extent): the reach is the
largest access point range or broadcast radius, the extent the largest node
coordinate in absolute value.  Each bound stands in for distances that the
tick or the broadcast would compute, and those err from the exact geometry
by a few ulps of (reach + extent):

  * a position lies within a few ulps of the extent of the exact point at
    its offset, since its offset and `frac` err by a few ulps of the length
    and of 1 (for a normal arc length: on a subnormal one, only a vehicle
    that stands still or whose segment fits in the slack holds);
  * candidate access points lie within reach + extent of the origin, so
    each subtraction and `hypot` errs by an ulp or so of (reach + extent);
  * the hold's end errs by a few ulps of its span, so the vehicle covers at
    most a few ulps of the slack more than the slack less the margin before
    it (for times below 2**53 ms);
  * a box's sides are node coordinates, and the sender's reach errs by an
    ulp of the extent plus the radius.

Subnormal results err by at most 2**-1074 each, which a floor of 2**-1060 on
the margin covers.  The margin, some 2**12 ulps, is far more than all of
these together: a held answer is the one a scan would give, and a rejected
vehicle would fail the closed distance test.  A world whose
4 * (reach + extent) overflows, or whose radius is NaN, has an infinite
margin: it holds nothing and rejects no vehicle by box.

Trace format: one line per processed event, `t=<ms> <EVENT_KIND> <details>`
with a fixed field order per kind, which each handler writes.  A DEST_CHANGE
whose route request the server refuses (in a run, that happens only for an
unreachable destination) ends in ` unreachable` and clears the destination.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from math import frexp, hypot, inf, ldexp
from sys import float_info
from typing import NamedTuple

from . import weighting
from .config import SimConfig
from .detection import (DepthMap, GroundTruthSurface, IntensityImage, PotholeDetection,
                        cell_count, extract_potholes, sweep)
from .geocrypto import Location, PlainReport, ReportEnvelope, encrypt
from .network import StreetNetwork
from .registry import PotholeRegistry
from .routing import fmt_num
from .scenario import AccessPointSpec, Scenario
from .server import ErrorResponse, RoutingSession, Server, modify_destination


class Phase:
    """Connection phases; each is also the word its trace lines print."""

    SCANNING = "SCANNING"
    ASSOCIATING = "ASSOCIATING"
    AUTHENTICATING = "AUTHENTICATING"
    CONNECTED = "CONNECTED"
    LOST = "LOST"


@dataclass(slots=True)
class ConnectionState:
    """A vehicle's link; the tick and `uplink` refresh `last_activity_ms`
    in place, and `step_connection` makes every phase change."""

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


# one open access point: (x, y, range_m, id)
APEntry = tuple[float, float, float, str]


class ArcGeometry(NamedTuple):
    """What a vehicle on an arc reads of it (see the module docstring)."""

    line: tuple[float, float, float, float, float]  # tail x, tail y, dx, dy, length
    box: tuple[float, float, float, float]  # min x, max x, min y, max y of the segment
    candidates: tuple[APEntry, ...]  # the open access points that can be in range


@dataclass(slots=True)
class VehicleState:
    id: str
    offset_m: float
    at_ms: int
    speed_mps: float
    waypoints: list[str]
    session: RoutingSession
    queue: deque[tuple[ReportEnvelope, Location]] = field(default_factory=deque)
    warning_cache: set[str] = field(default_factory=set)
    conn: ConnectionState = field(default_factory=ConnectionState)
    stopped: bool = False
    # the current arc's `ArcGeometry`, set with `session.current_arc` by
    # `World.set_arc`
    line: tuple[float, float, float, float, float] = (0.0, 0.0, 0.0, 0.0, 0.0)
    box: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    candidates: tuple[APEntry, ...] = ()
    # the last scan's answer, which ticks before `hold_ms` reuse (see
    # `World.visible_ap`); `World.set_arc` and a MOVE clear the hold
    held: str | None = None
    hold_ms: int = 0


# the candidate margin, relative to the range plus the segment's extent, and
# the hold and box margin, relative to the reach plus the world's extent
_MARGIN = 2.0 ** -40
# the least hold and box margin: it covers the rounding of subnormal results
_MARGIN_FLOOR = 2.0 ** -1060


def _arc_candidates(open_aps: list[APEntry], x0: float, y0: float, x1: float,
                    y1: float) -> tuple[APEntry, ...]:
    """The `open_aps` whose disc comes within its range + margin of the
    segment from (x0, y0) to (x1, y1), in the order of `open_aps` (see the
    module docstring for the margin)."""
    extent = max(abs(x0), abs(y0), abs(x1), abs(y1))
    pad = extent * _MARGIN
    lo_x, hi_x = min(x0, x1) - pad, max(x0, x1) + pad
    lo_y, hi_y = min(y0, y1) - pad, max(y0, y1) + pad
    found = []
    for ap in open_aps:
        ax, ay, range_m, _ = ap
        reach = range_m + range_m * _MARGIN
        if ax + reach < lo_x or ax - reach > hi_x or ay + reach < lo_y or ay - reach > hi_y:
            continue
        # scaled, the segment and the range lie below 1 and the access point,
        # which passed the box, below 3
        e = frexp(max(extent, range_m))[1]
        sx, sy = ldexp(x0, -e), ldexp(y0, -e)
        dx, dy = ldexp(x1, -e) - sx, ldexp(y1, -e) - sy
        ax, ay = ldexp(ax, -e) - sx, ldexp(ay, -e) - sy
        len2 = dx * dx + dy * dy
        t = min(max((ax * dx + ay * dy) / len2, 0.0), 1.0) if len2 else 0.0
        if not hypot(ax - t * dx, ay - t * dy) > ldexp(reach + pad, -e):
            found.append(ap)
    return tuple(found)


class World:
    """All mutable simulation state: vehicles, access points, the server."""

    def __init__(self, net: StreetNetwork, scenario: Scenario, config: SimConfig):
        self.net = net
        self.config = config
        self.rng = random.Random(scenario.seed)
        self.end_ms = scenario.duration_ms
        self.surfaces: dict[str, GroundTruthSurface] = dict(scenario.pits)

        registry = PotholeRegistry(net, config.dedup_radius_m)
        wnet = weighting.preprocess(net, registry)
        self.server = Server(net, registry, wnet, config.shared_key)

        self.aps: dict[str, AccessPointSpec] = {ap.id: ap for ap in scenario.access_points}
        # in id order, so the first of equally near access points has the least id
        self._open_aps: list[APEntry] = sorted(
            ((ap.x, ap.y, ap.range_m, ap.id) for ap in self.aps.values() if ap.open),
            key=lambda ap: ap[3])
        # the margin of the hold and the broadcast box (see the module docstring)
        span = max([config.p2p_range_m] + [ap.range_m for ap in scenario.access_points]) + max(
            (abs(c) for node in net.nodes.values() for c in (node.x, node.y)), default=0.0)
        self.margin = max(span * _MARGIN, _MARGIN_FLOOR) if span * 4.0 < inf else inf

        # filled on first use: arc id -> its geometry (see `arc_geometry`)
        self._arcs: dict[str, ArcGeometry] = {}
        # filled on first use: arc id -> what a sweep of the whole arc extracts
        self._sensed: dict[str, list[PotholeDetection]] = {}

        self.vehicles: dict[str, VehicleState] = {}
        for spec in scenario.vehicles:
            session = RoutingSession(self.server, spec.start_arc)
            v = self.vehicles[spec.id] = VehicleState(
                id=spec.id, offset_m=spec.start_offset_m,
                at_ms=0, speed_mps=spec.speed_mps, waypoints=list(spec.waypoints),
                session=session)
            self.set_arc(v, spec.start_arc)
        # vehicles are fixed after set-up: broadcasts walk them in id order
        self.fleet: tuple[VehicleState, ...] = tuple(
            v for _, v in sorted(self.vehicles.items()))

    def set_arc(self, v: VehicleState, arc_id: str) -> None:
        """Put the vehicle on the arc, with the arc's geometry."""
        v.session.current_arc = arc_id
        v.line, v.box, v.candidates = self.arc_geometry(arc_id)
        # clear the hold; an arc with no candidate answers no access point
        v.held, v.hold_ms = None, 0 if v.candidates else self.end_ms

    def arc_geometry(self, arc_id: str) -> ArcGeometry:
        """The arc's line, box and candidates (in id order); built together
        on the arc's first use and kept."""
        geometry = self._arcs.get(arc_id)
        if geometry is None:
            arc = self.net.arcs[arc_id]  # ids were validated when the inputs were loaded
            tail = self.net.nodes[arc.tail]
            head = self.net.nodes[arc.head]
            x0, y0, x1, y1 = tail.x, tail.y, head.x, head.y
            geometry = self._arcs[arc_id] = ArcGeometry(
                (x0, y0, x1 - x0, y1 - y0, arc.length_m),
                (min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1)),
                _arc_candidates(self._open_aps, x0, y0, x1, y1))
        return geometry

    def position(self, v: VehicleState, now_ms: int) -> tuple[float, float]:
        """Planar position, interpolated linearly along the current arc."""
        x, y, dx, dy, length = v.line
        speed = 0.0 if v.stopped else v.speed_mps
        offset = v.offset_m + speed * (now_ms - v.at_ms) / 1000.0
        # min(offset, length) without the cost of a builtin call on this hot path
        frac = (length if length < offset else offset) / length
        return (x + dx * frac, y + dy * frac)

    def visible_ap(self, v: VehicleState, now_ms: int) -> str | None:
        """Open access point in radio range; the current handshake peer wins
        while still visible, otherwise the nearest (ties by ap id).  Reads
        only the candidates of the vehicle's arc, and holds the answer for
        the ticks before the first time at which it could change (see the
        module docstring)."""
        # `position`, inlined: most scans run this
        x, y, dx, dy, length = v.line
        speed = 0.0 if v.stopped else v.speed_mps
        offset = v.offset_m + speed * (now_ms - v.at_ms) / 1000.0
        frac = (length if length < offset else offset) / length
        x += dx * frac
        y += dy * frac
        peer = v.conn.peer
        best_id = None
        best_dist = 0.0
        near = inf  # the least distance - range of the candidates out of range
        for ap_x, ap_y, range_m, ap_id in v.candidates:
            dist = hypot(ap_x - x, ap_y - y)
            if dist <= range_m:
                if ap_id == peer:
                    v.held, v.hold_ms = peer, self._hold_end(v, now_ms, range_m - dist)
                    return peer
                if best_id is None or dist < best_dist:
                    best_id, best_dist = ap_id, dist
            elif dist - range_m < near:
                near = dist - range_m
        v.held = best_id
        v.hold_ms = now_ms if best_id is not None else self._hold_end(v, now_ms, near)
        return best_id

    def _hold_end(self, v: VehicleState, now_ms: int, slack: float) -> int:
        """The first tick time at which the vehicle could have covered
        `slack` less the margin since `now_ms`, capped at the run's end
        (see the module docstring)."""
        ahead = slack - self.margin
        if not ahead > 0.0:
            return now_ms
        _, _, dx, dy, length = v.line
        seg = hypot(dx, dy)
        speed = 0.0 if v.stopped else v.speed_mps
        if speed == 0.0 or seg <= ahead:
            return self.end_ms
        if length < float_info.min:
            return now_ms
        # ahead / seg < 1, so no step overflows before the division by speed
        end = now_ms + ahead / seg * length / speed * 1000.0
        return int(end) if end < self.end_ms else self.end_ms

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


def p2p_broadcast(world: World, sender: VehicleState, pothole_key: str,
                  now_ms: int) -> list[str]:
    """Warn every other vehicle within the broadcast radius (closed bound).

    Receivers add the warning to their cache; nobody re-broadcasts.
    Returns the receiving vehicle ids, sorted.
    """
    position = world.position
    sx, sy = position(sender, now_ms)
    radius = world.config.p2p_range_m
    # a vehicle whose segment's box lies past `reach` on an axis is out of
    # range (see the module docstring)
    reach = radius + world.margin
    lo_x, hi_x, lo_y, hi_y = sx - reach, sx + reach, sy - reach, sy + reach
    receivers = []
    for v in world.fleet:
        if v is sender:
            continue
        x0, x1, y0, y1 = v.box
        if x1 < lo_x or x0 > hi_x or y1 < lo_y or y0 > hi_y:
            continue
        x, y = position(v, now_ms)
        if hypot(x - sx, y - sy) <= radius:
            v.warning_cache.add(pothole_key)
            receivers.append(v.id)
    return receivers


def uplink(world: World, v: VehicleState, now_ms: int) -> int:
    """Drain up to one transfer budget of queued envelopes to the server.

    Returns the number delivered; zero (not an error) when the vehicle is
    not CONNECTED or its connected peer has left radio range (a transfer
    without a reachable peer gets no response, so it neither delivers nor
    counts as activity -- the silence timeout will declare the loss).
    Queue entries are removed as they are handed over, so an envelope
    reaches the server at most once.
    """
    if v.conn.phase != Phase.CONNECTED:
        return 0
    if world.visible_ap(v, now_ms) != v.conn.peer:
        return 0
    delivered = 0
    while v.queue and delivered < world.config.transfer_budget:
        env, location = v.queue.popleft()
        world.server.receive_envelope(env, location, v.id, now_ms)
        delivered += 1
    if delivered:
        v.conn.last_activity_ms = now_ms
    return delivered


class Simulation:
    """Event loop driving one scenario against one street network."""

    def __init__(self, net: StreetNetwork, scenario: Scenario,
                 config: SimConfig = SimConfig()):
        self.world = World(net, scenario, config)
        self.trace: list[str] = []
        self._heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._ticks: deque[tuple[int, int, VehicleState]] = deque()
        self._seq = itertools.count()  # the seqs of both queues

        # the scenario reader checked each event's vehicle id
        vehicles, schedule = self.world.vehicles, self._schedule
        on_dest_change, on_detect = self._on_dest_change, self._on_detect
        for ev in scenario.events:
            if ev.kind == "DEST_CHANGE":
                schedule(ev.t_ms, on_dest_change, vehicles[ev.vehicle], ev.dest)
            else:
                schedule(ev.t_ms, on_detect, vehicles[ev.vehicle])
        first_tick_ms = config.phase_latency_ms
        for v in self.world.vehicles.values():
            if v.speed_mps > 0:
                self._schedule_arrival(v, 0)
            if first_tick_ms < self.world.end_ms:
                self._ticks.append((first_tick_ms, next(self._seq), v))

    def _schedule(self, t_ms: int, handler: Callable[..., None], *payload) -> None:
        """Queue `handler` to run at `t_ms` with `payload` as its arguments
        after the time."""
        if t_ms >= self.world.end_ms:
            return
        heapq.heappush(self._heap, (t_ms, next(self._seq), handler, payload))

    def _schedule_arrival(self, v: VehicleState, now_ms: int) -> None:
        length_m = self.world.net.arcs[v.session.current_arc].length_m
        ms = (length_m - v.offset_m) / v.speed_mps * 1000.0
        if ms < self.world.end_ms:  # a later arrival, inf included, never runs
            self._schedule(now_ms + int(round(ms)), self._on_move, v)

    def run(self) -> World:
        heap, pop = self._heap, heapq.heappop
        ticks, seq, emit = self._ticks, self._seq, self.trace.append
        world, schedule, on_uplink = self.world, self._schedule, self._on_uplink
        scan, config, end_ms = world.visible_ap, world.config, world.end_ms
        latency, loss_timeout_ms = config.phase_latency_ms, config.loss_timeout_ms
        scanning, connected = Phase.SCANNING, Phase.CONNECTED
        while ticks or heap:
            if not ticks or (heap and heap[0] < ticks[0]):
                t, _, handler, payload = pop(heap)
                handler(t, *payload)
                continue
            # PHASE_TIMEOUT: one connection step, then the next tick
            t, _, v = ticks.popleft()
            conn = v.conn
            visible = v.held
            if t >= v.hold_ms or (visible is not None and visible != conn.peer):
                visible = scan(v, t)
            if conn.phase == connected and t - conn.last_activity_ms <= loss_timeout_ms:
                # the link holds: hearing the peer refreshes it, and nothing
                # else changes it
                if visible == conn.peer:
                    conn.last_activity_ms = t
            elif visible is not None or conn.phase != scanning:
                # SCANNING with nothing visible stays as it is
                conn = v.conn = step_connection(conn, visible, t, loss_timeout_ms)
            emit(f"t={t} PHASE_TIMEOUT vehicle={v.id} phase={conn.phase} "
                 f"ap={conn.peer or '-'}")
            if conn.phase == connected and visible == conn.peer and v.queue:
                schedule(t, on_uplink, v)
            if t + latency < end_ms:
                ticks.append((t + latency, next(seq), v))
        return self.world

    # -- handlers ----------------------------------------------------------

    def _enter_arc(self, v: VehicleState, arc_id: str, now_ms: int) -> None:
        self.world.set_arc(v, arc_id)
        v.offset_m = 0.0
        v.at_ms = now_ms
        v.stopped = False
        self._schedule_arrival(v, now_ms)

    def _on_move(self, now_ms: int, v: VehicleState) -> None:
        net, s = self.world.net, v.session
        arc = net.arcs[s.current_arc]
        node = arc.head
        v.offset_m = arc.length_m
        v.at_ms = now_ms
        v.hold_ms = 0
        if v.waypoints and v.waypoints[0] == node:
            v.waypoints.pop(0)

        next_arc: str | None = None
        if s.destination is not None:
            if node == s.destination:
                s.clear()  # reached; fall back to waypoint driving
            elif s.pending_arcs and net.arcs[s.pending_arcs[0]].tail == node:
                next_arc = s.pending_arcs.pop(0)
        if next_arc is None and s.destination is None and v.waypoints:
            ids = net.pairs.get((node, v.waypoints[0]))
            if ids:
                next_arc = ids[0]

        if next_arc is not None:
            self._enter_arc(v, next_arc, now_ms)
        else:
            v.stopped = True
        self.trace.append(f"t={now_ms} MOVE vehicle={v.id} node={node} arc={next_arc or '-'}")

    def _on_detect(self, now_ms: int, v: VehicleState) -> None:
        world, arc = self.world, v.session.current_arc
        config = world.config
        detections = world.sense(arc)
        fresh = 0
        for det in detections:
            report = PlainReport(
                depth_map=DepthMap(1, len(det.cells_depth), config.cell_m,
                                   list(det.cells_depth)),
                intensity_image=IntensityImage(1, len(det.cells_intensity),
                                               list(det.cells_intensity)),
                arc=det.arc, offset_m=det.offset_m,
                vehicle_id=v.id, timestamp_ms=now_ms)
            env = encrypt(report, config.shared_key, world.rng)
            v.queue.append((env, (det.arc, det.offset_m)))
            key = f"{det.arc}:{fmt_num(det.offset_m)}"
            if key not in v.warning_cache:
                v.warning_cache.add(key)
                fresh += 1
                self._schedule(now_ms, self._on_broadcast, v, key)
        self.trace.append(f"t={now_ms} DETECT vehicle={v.id} arc={arc} "
                          f"reports={len(detections)} new={fresh}")

    def _on_broadcast(self, now_ms: int, v: VehicleState, pothole: str) -> None:
        receivers = p2p_broadcast(self.world, v, pothole, now_ms)
        self.trace.append(f"t={now_ms} P2P_BROADCAST vehicle={v.id} pothole={pothole} "
                          f"receivers={','.join(receivers) or '-'}")

    def _on_uplink(self, now_ms: int, v: VehicleState) -> None:
        delivered = uplink(self.world, v, now_ms)
        self.trace.append(f"t={now_ms} UPLINK vehicle={v.id} delivered={delivered} "
                          f"queued={len(v.queue)}")

    def _on_dest_change(self, now_ms: int, v: VehicleState, dest: str | None) -> None:
        s = v.session
        if isinstance(modify_destination(s, dest), ErrorResponse):
            s.clear()  # no route: back to weight-display mode
            self.trace.append(f"t={now_ms} DEST_CHANGE vehicle={v.id} dest={dest} unreachable")
            return
        if dest is not None and v.stopped and v.speed_mps > 0:
            arcs = self.world.net.arcs
            resting = arcs[s.current_arc].head
            if s.destination == resting:
                s.clear()
            elif s.pending_arcs and arcs[s.pending_arcs[0]].tail == resting:
                self._enter_arc(v, s.pending_arcs.pop(0), now_ms)
        self.trace.append(f"t={now_ms} DEST_CHANGE vehicle={v.id} dest={dest or '-'}")

    def write_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in self.trace)
