"""Central server: envelope intake, and the road-condition queries vehicles ask.

Each accepted envelope follows the fixed path decrypt -> ingest -> re-weight
the affected arc, so the weighted network is always consistent with the
registry.  An envelope is refused, changing nothing but `ServerStats`, when
decryption fails (format, location or integrity, one counter each) or when
its authentic report breaks the sensor's or the registry's rules (a grid
cell no scanner reads, an unknown arc, or an offset or depth `check_record`
refuses: the report counter).  Commands are processed one at a time (the
simulator's event loop serializes them), which makes every query response
a view of exactly one registry/weights snapshot; responses carry that
snapshot's sequence number.  Query dispatch is a fixed request-kind ->
handler mapping; there is no cost-based planning.  A condition query is
answered straight from the indexes the intake keeps: the weight from
`wnet.arc_weights`, which holds every arc of the network and so is the one
unknown-arc check, and the pothole ids, in minting order, as the
registry's own per-arc tuple, which a mint replaces rather than changes,
so a reply keeps its snapshot's ids.  Requests and replies are NamedTuples
and so compare equal to plain tuples of their fields.  A vehicle's
`RoutingSession` gets its routes and arc weights through `query` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import geocrypto, routing, weighting
from .detection import PotholeDetection, SensorValueError
from .geocrypto import (EnvelopeFormatError, GeocryptoError, IntegrityError, Location,
                        LocationMismatchError, ReportEnvelope)
from .network import StreetNetwork, UnknownArcError, UnknownNodeError
from .registry import PotholeRegistry, RecordError
from .routing import Route, UnreachableError


@dataclass
class ServerStats:
    """Counters since start-up.  `envelopes_rejected` is the total of the
    four `rejected_*` reasons.  `queries_*` count the sessions' queries too."""

    envelopes_accepted: int = 0
    envelopes_rejected: int = 0
    rejected_format: int = 0      # EnvelopeFormatError
    rejected_location: int = 0    # LocationMismatchError
    rejected_integrity: int = 0   # IntegrityError
    rejected_report: int = 0      # opened, but the report breaks the sensor's or registry's rules
    queries_answered: int = 0
    queries_failed: int = 0


_REJECTED = {EnvelopeFormatError: "rejected_format", LocationMismatchError: "rejected_location",
             IntegrityError: "rejected_integrity"}


class RouteRequest(NamedTuple):
    source: str
    dest: str


class ConditionRequest(NamedTuple):
    arc: str


class RouteResponse(NamedTuple):
    route: Route
    snapshot_seq: int


class ConditionResponse(NamedTuple):
    arc: str
    weight: float
    potholes: tuple[str, ...]
    snapshot_seq: int


class ErrorResponse(NamedTuple):
    message: str
    snapshot_seq: int


class Server:
    def __init__(self, net: StreetNetwork, registry: PotholeRegistry,
                 wnet: weighting.WeightedNetwork, shared_key: bytes):
        self.net = net
        self.registry = registry
        self.wnet = wnet
        self.shared_key = shared_key
        self.stats = ServerStats()
        self.snapshot_seq = 0

    def receive_envelope(self, env: ReportEnvelope, claimed_location: Location,
                         vehicle_id: str, now_ms: int) -> tuple[str, bool] | None:
        """Decrypt, ingest and re-weight.  Returns (pothole id, is_new), or
        None when the envelope is refused: it fails decryption, or its
        report holds a cell no scanner reads, names an arc the network lacks
        or breaks `check_record`.  A refused envelope changes nothing but
        its counters."""
        try:
            report = geocrypto.decrypt(env, self.shared_key, claimed_location)
        except GeocryptoError as exc:
            return self._reject(_REJECTED[type(exc)])
        except SensorValueError:
            return self._reject("rejected_report")
        intensities = report.intensity_image.values
        detection = PotholeDetection(report.arc, report.offset_m, max(report.depth_map.depths),
                                     sum(intensities) / len(intensities))
        try:
            outcome = self.registry.ingest_report(detection, vehicle_id, now_ms)
        except (UnknownArcError, RecordError):
            return self._reject("rejected_report")
        weighting.apply_update(self.wnet, report.arc, self.registry)
        self.stats.envelopes_accepted += 1
        self.snapshot_seq += 1
        return outcome

    def _reject(self, reason: str) -> None:
        stats = self.stats
        setattr(stats, reason, getattr(stats, reason) + 1)
        stats.envelopes_rejected += 1

    def query(self, request: RouteRequest | ConditionRequest):
        """Answer a route or condition query against the current snapshot."""
        try:
            if isinstance(request, ConditionRequest):  # the more frequent kind
                arc = request.arc
                weight = self.wnet.arc_weights.get(arc)  # every arc has a weight
                if weight is None:
                    raise UnknownArcError(arc)
                pids = self.registry.pothole_ids(arc)
                self.stats.queries_answered += 1
                return ConditionResponse(arc, weight, pids, self.snapshot_seq)
            if isinstance(request, RouteRequest):
                rt = routing.route(self.wnet, request.source, request.dest)
                self.stats.queries_answered += 1
                return RouteResponse(rt, self.snapshot_seq)
            raise TypeError(f"unsupported request {request!r}")
        # ValueError: an arc weight that `route` refuses
        except (UnknownNodeError, UnknownArcError, UnreachableError, TypeError,
                ValueError) as exc:
            self.stats.queries_failed += 1
            return ErrorResponse(f"{type(exc).__name__}: {exc}", self.snapshot_seq)


@dataclass
class RoutingSession:
    """The in-vehicle unit: event-driven routing state that asks `server`.

    The session is anchored at the vehicle's next upcoming node (the head
    of its current arc): a vehicle mid-arc always completes the arc before
    a new route takes effect.  With no destination set the session is in
    weight-display mode and reports the current arc's weight; node-crossing
    events re-evaluate the mode instead of any polling loop.
    """

    server: Server
    current_arc: str
    destination: str | None = None
    route: Route | None = None
    pending_arcs: list[str] = field(default_factory=list)

    @property
    def next_node(self) -> str:
        return self.server.net.arc(self.current_arc).head

    def clear(self) -> None:
        self.destination = None
        self.route = None
        self.pending_arcs = []

    def display(self) -> Route | float:
        if self.destination is not None and self.route is not None:
            return self.route
        return self.server.query(ConditionRequest(self.current_arc)).weight


def modify_destination(session: RoutingSession,
                       new_dest: str | None) -> Route | float | ErrorResponse:
    """Set, change or clear the session destination.

    Setting a destination asks the server for a route from the vehicle's
    next upcoming node and returns the fresh Route; clearing reverts to
    weight-display mode and returns the current arc weight; an unchanged
    destination is a no-op.  A route request the server refuses (an
    unknown or unreachable destination) leaves the session unchanged and
    returns the server's ErrorResponse.
    """
    if new_dest == session.destination:
        return session.display()
    if new_dest is None:
        session.clear()
        return session.display()
    reply = session.server.query(RouteRequest(session.next_node, new_dest))
    if isinstance(reply, ErrorResponse):
        return reply
    fresh = session.route = reply.route
    session.destination = new_dest
    session.pending_arcs = list(fresh.arcs)
    return fresh
