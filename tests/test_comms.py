import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (SingleHeapSimulation, ap_grid_inputs, build_net, grid_inputs,
                     handover_inputs, vehicle_position_by_formula, visible_ap_by_scan)
from potholesim import comms
from potholesim.comms import (ConnectionState, Phase, Simulation, World, p2p_broadcast,
                              step_connection, uplink)
from potholesim.config import SimConfig
from potholesim.detection import DepthMap, IntensityImage, sweep
from potholesim.geocrypto import PlainReport, decrypt, encrypt
from potholesim.network import network_from_dict
from potholesim.scenario import AccessPointSpec, Scenario, VehicleSpec, scenario_from_dict


def strip_net():
    return build_net([("P", 0.0, 0.0), ("Q", 200.0, 0.0)],
                     [("h1", "P", "Q", 200.0)])


def parked(vid, offset):
    return {"id": vid, "start_arc": "h1", "start_offset_m": offset,
            "speed_mps": 0.0, "waypoints": []}


def make_world(vehicles, aps=(), duration=1000, seed=7, pits=(), events=()):
    net = strip_net()
    scenario = scenario_from_dict({
        "duration_ms": duration, "seed": seed, "vehicles": list(vehicles),
        "pits": list(pits), "access_points": list(aps), "events": list(events),
    }, net)
    return World(net, scenario, SimConfig())


def step(conn, visible_ap, now_ms):
    """`step_connection` with the loss timeout that the simulation passes."""
    return step_connection(conn, visible_ap, now_ms, SimConfig().loss_timeout_ms)


class TestStepConnection:
    def test_loss_after_600ms_silence(self):
        conn = ConnectionState(Phase.CONNECTED, last_activity_ms=0, peer="ap1")
        assert step(conn, "ap1", 600).phase == Phase.LOST

    def test_still_connected_at_400ms(self):
        conn = ConnectionState(Phase.CONNECTED, last_activity_ms=0, peer="ap1")
        assert step(conn, None, 400).phase == Phase.CONNECTED

    def test_boundary_exactly_500ms_not_lost(self):
        conn = ConnectionState(Phase.CONNECTED, last_activity_ms=0, peer="ap1")
        assert step(conn, None, 500).phase == Phase.CONNECTED
        assert step(conn, None, 501).phase == Phase.LOST

    def test_authenticating_advances_to_connected(self):
        conn = ConnectionState(Phase.AUTHENTICATING, last_activity_ms=100, peer="ap1")
        out = step(conn, "ap1", 200)
        assert out.phase == Phase.CONNECTED and out.peer == "ap1"

    def test_full_lifecycle_order(self):
        conn = ConnectionState()
        seen = [conn.phase]
        for t in (100, 200, 300, 400):
            conn = step(conn, "ap1", t)
            seen.append(conn.phase)
        assert seen == [Phase.SCANNING, Phase.ASSOCIATING, Phase.AUTHENTICATING,
                        Phase.CONNECTED, Phase.CONNECTED]

    def test_lost_reenters_scanning(self):
        conn = ConnectionState(Phase.LOST, last_activity_ms=0, peer="ap1")
        out = step(conn, None, 1000)
        assert out.phase == Phase.SCANNING and out.peer is None

    def test_different_ap_does_not_advance_handshake(self):
        conn = ConnectionState(Phase.ASSOCIATING, last_activity_ms=0, peer="ap1")
        assert step(conn, "ap2", 100) == conn

    def test_scanning_waits_without_ap(self):
        conn = ConnectionState(Phase.SCANNING, last_activity_ms=0)
        assert step(conn, None, 10_000).phase == Phase.SCANNING


class TestBroadcast:
    def test_range_thresholds(self):
        world = make_world([parked("vs", 10.0), parked("va", 25.0),
                            parked("vb", 30.0), parked("vc", 35.5)])
        got = p2p_broadcast(world, world.vehicles["vs"], "h1:50", 0)
        # 15 m and exactly 20 m receive; 25.5 m does not
        assert got == ["va", "vb"]
        assert "h1:50" in world.vehicles["va"].warning_cache
        assert "h1:50" not in world.vehicles["vc"].warning_cache

    def test_duplicate_warning_idempotent(self):
        world = make_world([parked("vs", 10.0), parked("va", 25.0)])
        p2p_broadcast(world, world.vehicles["vs"], "h1:50", 0)
        before = set(world.vehicles["va"].warning_cache)
        p2p_broadcast(world, world.vehicles["vs"], "h1:50", 5)
        assert world.vehicles["va"].warning_cache == before


def queue_envelopes(world, vid, n, key):
    rng = random.Random(99)
    v = world.vehicles[vid]
    for i in range(n):
        offset = 5.0 + 3.0 * i  # distinct potholes, outside dedup radius
        report = PlainReport(DepthMap(1, 1, 0.5, [30.0]),
                             IntensityImage(1, 1, [0.4]),
                             "h1", offset, vid, 0)
        v.queue.append((encrypt(report, key, rng), ("h1", offset)))


class TestUplink:
    def test_full_drain(self):
        world = make_world([parked("v1", 0.0)],
                           aps=[{"id": "ap1", "x": 0.0, "y": 0.0,
                                 "range_m": 50.0, "open": True}])
        world.vehicles["v1"].conn = ConnectionState(Phase.CONNECTED, 0, "ap1")
        queue_envelopes(world, "v1", 3, world.config.shared_key)
        assert uplink(world, world.vehicles["v1"], 100) == 3
        assert not world.vehicles["v1"].queue
        assert len(world.server.registry) == 3
        # a delivery is activity
        assert world.vehicles["v1"].conn == ConnectionState(Phase.CONNECTED, 100, "ap1")

    def test_not_connected_delivers_zero(self):
        world = make_world([parked("v1", 0.0)])
        queue_envelopes(world, "v1", 2, world.config.shared_key)
        assert uplink(world, world.vehicles["v1"], 100) == 0
        assert len(world.vehicles["v1"].queue) == 2

    def test_budget_limits_each_exchange(self):
        world = make_world([parked("v1", 0.0)],
                           aps=[{"id": "ap1", "x": 0.0, "y": 0.0,
                                 "range_m": 50.0, "open": True}])
        world.vehicles["v1"].conn = ConnectionState(Phase.CONNECTED, 0, "ap1")
        queue_envelopes(world, "v1", 6, world.config.shared_key)
        assert uplink(world, world.vehicles["v1"], 100) == 4
        assert len(world.vehicles["v1"].queue) == 2

    def test_peer_out_of_range_delivers_nothing(self):
        world = make_world([parked("v1", 0.0)],
                           aps=[{"id": "ap1", "x": 190.0, "y": 0.0,
                                 "range_m": 5.0, "open": True}])
        world.vehicles["v1"].conn = ConnectionState(Phase.CONNECTED, 0, "ap1")
        queue_envelopes(world, "v1", 2, world.config.shared_key)
        assert uplink(world, world.vehicles["v1"], 100) == 0
        assert world.vehicles["v1"].conn == ConnectionState(Phase.CONNECTED, 0, "ap1")


# Oracle worlds: one vehicle on the arc P -> Q, whose length is 1 m unless
# a case draws another, so an offset is also the vehicle's fraction of the
# way from P to Q.
MAX_RANGE = 80.0


def oracle_world(p, q, aps, length_m=1.0):
    net = build_net([("P", *p), ("Q", *q)], [("pq", "P", "Q", length_m)])
    scenario = Scenario(duration_ms=0, seed=0,
                        vehicles=[VehicleSpec("v", "pq", 0.0, 0.0, ())],
                        access_points=list(aps))
    return World(net, scenario, SimConfig())


def in_range(world, now_ms):
    """Ids of the open access points that the range test accepts."""
    x, y = world.position(world.vehicles["v"], now_ms)
    return {ap.id for ap in world.aps.values()
            if ap.open and math.hypot(ap.x - x, ap.y - y) <= ap.range_m}


coord = st.one_of(st.integers(-400, 400).map(float),
                  st.floats(-400.0, 400.0, allow_nan=False, allow_infinity=False))
ranges = st.one_of(st.sampled_from([40.0, 50.0, 60.0, MAX_RANGE]),
                   st.floats(40.0, MAX_RANGE))


@st.composite
def boundary_aps(draw, p, q, frac, scale):
    """Open access points whose range ends at, or one ulp either side of, the
    vehicle's position at `frac` on P -> Q: straight out from an endpoint or
    off the segment's side, where the range is tangent to the segment."""
    x = p[0] + (q[0] - p[0]) * frac  # the position, as `World.position` computes it
    y = p[1] + (q[1] - p[1]) * frac
    ux, uy = q[0] - p[0], q[1] - p[1]
    length = math.hypot(ux, uy)
    if length == 0.0:  # tail and head share coordinates
        ux, uy, length = 3.0, 4.0, 5.0
    ux, uy = ux / length, uy / length
    aps = []
    for i in range(draw(st.integers(1, 3))):
        ox, oy = draw(st.sampled_from([(-uy, ux), (uy, -ux), (-ux, -uy), (ux, uy)]))
        d = draw(ranges) * scale
        ax, ay = x + d * ox, y + d * oy
        reach = math.hypot(ax - x, ay - y)
        range_m = draw(st.sampled_from([math.nextafter(reach, 0.0), reach,
                                        math.nextafter(reach, math.inf)]))
        aps.append(AccessPointSpec(f"edge{i}", ax, ay, range_m, True))
    return aps


@st.composite
def oracle_cases(draw):
    """A world, the vehicle's state and query times for `visible_ap`."""
    mode = draw(st.sampled_from(["node", "edge", "moving"]))
    if mode == "edge":  # on the candidate boundary, at any scale up to 1e300
        scale = draw(st.sampled_from([1.0, 1e154, 1e300]))
        p = (draw(coord) * scale, draw(coord) * scale)
        q = p if draw(st.booleans()) else (draw(coord) * scale, draw(coord) * scale)
        frac = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        aps = draw(boundary_aps(p, q, frac, scale))
        world = oracle_world(p, q, aps)
        v = world.vehicles["v"]
        v.offset_m = frac
        v.conn = ConnectionState(Phase.ASSOCIATING, 0,
                                 draw(st.sampled_from([None, *(ap.id for ap in aps)])))
        return world, [0]
    if mode == "node":
        p = draw(st.tuples(st.integers(-400, 400), st.integers(-400, 400)).map(
            lambda t: (float(t[0]), float(t[1]))))
    else:
        p = draw(st.tuples(coord, coord))
    q = draw(st.tuples(coord, coord).filter(lambda t: t != p))
    length = draw(st.floats(1.0, 500.0))

    aps = [AccessPointSpec(f"ap{i}", x, y, r, is_open) for i, (x, y, r, is_open)
           in enumerate(draw(st.lists(st.tuples(coord, coord, ranges, st.booleans()),
                                      max_size=8)))]
    px, py = p
    for k in draw(st.lists(st.sampled_from([8.0, 10.0, 12.0, 16.0]), max_size=2)):
        # (3k, 4k) away: exactly 5k from P, its range
        sx, sy = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
        aps.append(AccessPointSpec(f"ex{len(aps)}", px + 3 * k * sx, py + 4 * k * sy,
                                   5 * k, draw(st.booleans())))
    if draw(st.booleans()):  # an equal-distance pair either side of P
        d = float(draw(st.integers(1, 60)))
        r = draw(ranges)
        ids = draw(st.permutations([f"tie{len(aps)}", f"tie{len(aps) + 1}"]))
        aps += [AccessPointSpec(ids[0], px + d, py, r, True),
                AccessPointSpec(ids[1], px - d, py, r, True)]

    world = oracle_world(p, q, aps, length)
    v = world.vehicles["v"]
    peer = draw(st.sampled_from([None, "nowhere", *(ap.id for ap in aps)]))
    v.conn = ConnectionState(Phase.ASSOCIATING, 0, peer)
    if mode == "moving":
        v.offset_m = draw(st.floats(0.0, length, exclude_max=True))
        v.speed_mps = draw(st.floats(0.0, 30.0))
        times = draw(st.lists(st.integers(0, 60_000), min_size=1, max_size=4))
    else:
        times = [0]
    return world, times


class TestVisibleAp:
    @settings(max_examples=400, deadline=None)
    @given(oracle_cases())
    def test_matches_full_scan(self, case):
        world, times = case
        candidates = {ap[3] for ap in world.arc_geometry("pq").candidates}
        v = world.vehicles["v"]
        for now_ms in times:
            assert in_range(world, now_ms) <= candidates
            assert world.visible_ap(v, now_ms) == visible_ap_by_scan(world, v, now_ms)

    @pytest.mark.parametrize("p, q, frac, aps, peer, expected", [
        ((0.0, 0.0), (-10.0, 0.0), 0.0, [("a", 30.0, 40.0, 50.0, True)], None, "a"),
        # 128 - nextafter(64, 0) rounds to 64.0, within the 64 m range, though
        # the access point lies farther than 64 m from the segment: only the
        # margin makes it a candidate
        ((math.nextafter(64.0, 0.0), 0.0), (-10.0, 0.0), 0.0,
         [("a", 128.0, 0.0, 64.0, True)], None, "a"),
        ((0.0, 0.0), (100.0, 0.0), 0.5, [("a", 50.0, 30.0, 30.0, True)], None, "a"),
        ((0.0, 0.0), (100.0, 0.0), 0.5,
         [("a", 50.0, 30.0, math.nextafter(30.0, 0.0), True)], None, None),
        # the squared length, 1e310, overflows; the offset along the arc, 1e153
        # away from P, does not
        ((0.0, 0.0), (1e155, 0.0), 0.01, [("a", 1e155 * 0.01, 1.0, 1.0, True)], None, "a"),
        ((1e300, -1e300), (-1e300, 1e300), 0.5, [("a", 3e299, 4e299, 5e299, True)],
         None, "a"),
        ((5.0, 5.0), (5.0, 5.0), 1.0, [("a", 8.0, 9.0, 5.0, True)], None, "a"),
        ((0.0, 0.0), (10.0, 0.0), 0.0, [("a", 1.0, 1.0, 50.0, False)], None, None),
        ((0.0, 0.0), (10.0, 0.0), 0.0, [("a", 1.0, 1.0, 50.0, False),
                                        ("b", 2.0, 1.0, 50.0, True)], "a", "b"),
        ((0.0, 0.0), (10.0, 0.0), 0.0, [("near", 5.0, 0.0, 50.0, True),
                                        ("far", -40.0, 0.0, 50.0, True)], None, "near"),
        ((0.0, 0.0), (10.0, 0.0), 0.0, [("near", 5.0, 0.0, 50.0, True),
                                        ("far", -40.0, 0.0, 50.0, True)], "far", "far"),
        ((0.0, 0.0), (10.0, 0.0), 0.0, [("b", 30.0, 0.0, 50.0, True),
                                        ("a", -30.0, 0.0, 50.0, True)], None, "a"),
    ], ids=["exact-range-at-an-endpoint", "in-range-by-rounding", "tangent-range",
            "one-ulp-short-of-tangent", "squares-overflow", "coordinates-near-1e300",
            "tail-and-head-share-coordinates", "no-open-ap", "closed-ignored", "nearest",
            "peer-wins", "tie-by-id"])
    def test_named_cases_match_full_scan(self, p, q, frac, aps, peer, expected):
        world = oracle_world(p, q, [AccessPointSpec(*ap) for ap in aps])
        v = world.vehicles["v"]
        v.offset_m = frac
        v.conn = ConnectionState(Phase.ASSOCIATING, 0, peer)
        assert visible_ap_by_scan(world, v, 0) == expected
        assert world.visible_ap(v, 0) == expected

    def test_candidates_are_the_open_aps_that_reach_the_segment(self):
        world = oracle_world((0.0, 0.0), (100.0, 0.0), [
            AccessPointSpec("tail", -30.0, 40.0, 50.0, True),  # reaches P exactly
            AccessPointSpec("side", 50.0, 20.0, 20.0, True),  # tangent at (50, 0)
            AccessPointSpec("head", 130.0, 0.0, 30.0, True),  # reaches Q exactly
            AccessPointSpec("short", 50.0, 21.0, 20.0, True),
            AccessPointSpec("beyond", 130.0, 0.0, 29.0, True),
            AccessPointSpec("off-axis", 200.0, 200.0, 80.0, True),
        ])
        assert world.arc_geometry("pq").candidates == ((130.0, 0.0, 30.0, "head"),
                                                       (50.0, 20.0, 20.0, "side"),
                                                       (-30.0, 40.0, 50.0, "tail"))

    def test_closed_access_points_are_never_candidates(self):
        world = oracle_world((0.0, 0.0), (10.0, 0.0),
                             [AccessPointSpec("a", 1.0, 1.0, 50.0, False),
                              AccessPointSpec("b", 2.0, 1.0, 50.0, True),
                              AccessPointSpec("c", 5.0, 0.0, 50.0, False)])
        assert [ap[3] for ap in world.arc_geometry("pq").candidates] == ["b"]


MINIMAL_SCENARIO = {
    "duration_ms": 12_000,
    "seed": 42,
    "vehicles": [{"id": "v1", "start_arc": "h1", "start_offset_m": 0.0,
                  "speed_mps": 20.0, "waypoints": ["Q"]}],
    "pits": [{"arc": "h1", "center_m": 50.0, "half_length_m": 1.0,
              "depth_mm": 30.0, "reflectivity": 0.4}],
    "access_points": [{"id": "ap1", "x": 150.0, "y": 0.0,
                       "range_m": 40.0, "open": True}],
    "events": [{"t_ms": 1000, "kind": "DETECT", "vehicle": "v1"}],
}


def run_minimal():
    net = strip_net()
    scenario = scenario_from_dict(MINIMAL_SCENARIO, net)
    sim = Simulation(net, scenario, SimConfig())
    world = sim.run()
    return sim, world


class TestSimulation:
    def test_minimal_scenario_delivers_one_pothole(self):
        sim, world = run_minimal()
        registry = world.server.registry
        assert len(registry) == 1
        (rec,) = registry.records.values()
        assert rec.arc == "h1" and rec.depth_mm == 30.0
        assert world.server.stats.envelopes_accepted == 1
        assert len(registry.events) == 1
        assert world.server.wnet.arc_weights["h1"] == 30.0 * 200.0

    def test_determinism_bit_identical(self):
        sim1, w1 = run_minimal()
        sim2, w2 = run_minimal()
        assert sim1.trace == sim2.trace
        assert [(r.id, r.arc, r.offset_m, r.depth_mm) for r in w1.server.registry.records.values()] \
            == [(r.id, r.arc, r.offset_m, r.depth_mm) for r in w2.server.registry.records.values()]

    def test_seed_feeds_envelope_nonces(self):
        # same scenario, different seeds: same trace and registry, but the
        # sealed envelopes must differ (fresh nonces come from the seed)
        def queued_bytes(seed):
            net = strip_net()
            raw = dict(MINIMAL_SCENARIO, seed=seed,
                       access_points=[])  # no AP: envelopes stay queued
            scenario = scenario_from_dict(raw, net)
            sim = Simulation(net, scenario, SimConfig())
            world = sim.run()
            return sim.trace, [env.to_bytes() for env, _ in world.vehicles["v1"].queue]

        trace_a, bytes_a = queued_bytes(1)
        trace_b, bytes_b = queued_bytes(2)
        assert trace_a == trace_b
        assert bytes_a != bytes_b

    def test_phase_order_safety(self):
        sim, _ = run_minimal()
        phase = {}
        for line in sim.trace:
            parts = line.split()
            kind = parts[1]
            fields = dict(part.split("=", 1) for part in parts[2:])
            if kind == "PHASE_TIMEOUT":
                phase[fields["vehicle"]] = fields["phase"]
            elif kind == "UPLINK" and int(fields["delivered"]) > 0:
                assert phase[fields["vehicle"]] == "CONNECTED"

    def test_no_duplicate_ingestion(self):
        sim, world = run_minimal()
        delivered = sum(int(line.split("delivered=")[1].split()[0])
                        for line in sim.trace if " UPLINK " in line)
        assert delivered == world.server.stats.envelopes_accepted == 1

    def test_zero_duration_runs_nothing(self):
        net = strip_net()
        scenario = scenario_from_dict({
            "duration_ms": 0, "seed": 1,
            "vehicles": [{"id": "v1", "start_arc": "h1", "start_offset_m": 0.0,
                          "speed_mps": 20.0, "waypoints": ["Q"]}],
        }, net)
        sim = Simulation(net, scenario, SimConfig())
        world = sim.run()
        assert sim.trace == []
        assert len(world.server.registry) == 0

    def test_vehicle_follows_waypoints_and_stops(self):
        net = build_net(
            [("A", 0, 0), ("B", 100, 0), ("C", 200, 0)],
            [("ab", "A", "B", 100.0), ("bc", "B", "C", 100.0)])
        scenario = scenario_from_dict({
            "duration_ms": 25_000, "seed": 1,
            "vehicles": [{"id": "v1", "start_arc": "ab", "start_offset_m": 0.0,
                          "speed_mps": 10.0, "waypoints": ["B", "C"]}],
        }, net)
        sim = Simulation(net, scenario, SimConfig())
        world = sim.run()
        moves = [l for l in sim.trace if " MOVE " in l]
        assert moves == ["t=10000 MOVE vehicle=v1 node=B arc=bc",
                         "t=20000 MOVE vehicle=v1 node=C arc=-"]
        assert world.vehicles["v1"].stopped

    def test_dest_change_routes_and_reaches(self):
        net = build_net(
            [("A", 0, 0), ("B", 100, 0), ("C", 200, 0), ("X", 100, 100)],
            [("ab", "A", "B", 100.0), ("bc", "B", "C", 100.0),
             ("bx", "B", "X", 100.0), ("xc", "X", "C", 100.0)])
        scenario = scenario_from_dict({
            "duration_ms": 40_000, "seed": 1,
            "vehicles": [{"id": "v1", "start_arc": "ab", "start_offset_m": 0.0,
                          "speed_mps": 10.0, "waypoints": ["B"]}],
            "events": [{"t_ms": 1000, "kind": "DEST_CHANGE", "vehicle": "v1",
                        "dest": "C"}],
        }, net)
        sim = Simulation(net, scenario, SimConfig())
        world = sim.run()
        moves = [l for l in sim.trace if " MOVE " in l]
        # clean network: route from anchor B to C is the direct 100 m arc
        assert moves == ["t=10000 MOVE vehicle=v1 node=B arc=bc",
                         "t=20000 MOVE vehicle=v1 node=C arc=-"]
        session = world.vehicles["v1"].session
        assert session.destination is None  # reached -> display mode

    def test_connection_lost_mid_drain_keeps_remainder(self):
        pits = [{"arc": "h1", "center_m": 10.0 + 5.0 * i, "half_length_m": 0.55,
                 "depth_mm": 20.0, "reflectivity": 0.5} for i in range(14)]
        net = strip_net()
        scenario = scenario_from_dict({
            "duration_ms": 3000, "seed": 5,
            "vehicles": [{"id": "v1", "start_arc": "h1", "start_offset_m": 0.0,
                          "speed_mps": 2.0, "waypoints": ["Q"]}],
            "pits": pits,
            "access_points": [{"id": "ap1", "x": 3.0, "y": 0.0,
                               "range_m": 0.5, "open": True}],
            "events": [{"t_ms": 100, "kind": "DETECT", "vehicle": "v1"}],
        }, net)
        sim = Simulation(net, scenario, SimConfig())
        world = sim.run()
        # in AP range t in [1250, 1750]; CONNECTED from 1500 -> three
        # 4-envelope exchanges before range is lost, then the 500 ms
        # timeout fires with the rest still queued
        assert world.server.stats.envelopes_accepted == 12
        assert len(world.vehicles["v1"].queue) == 2
        assert any("phase=LOST" in line for line in sim.trace)
        uplinks = [l for l in sim.trace if " UPLINK " in l]
        assert [int(l.split("delivered=")[1].split()[0]) for l in uplinks] == [4, 4, 4]

    def test_eventual_delivery_for_any_sufficient_dwell(self):
        # any AP placement whose in-range dwell covers the three handshake
        # exchanges plus one transfer must get at least one envelope through
        rng = random.Random(31)
        for _ in range(10):
            center = rng.uniform(40.0, 160.0)
            radius = rng.uniform(10.0, 30.0)  # dwell at 20 m/s: 1..3 s
            net = strip_net()
            scenario = scenario_from_dict({
                "duration_ms": 15_000, "seed": 1,
                "vehicles": [{"id": "v1", "start_arc": "h1", "start_offset_m": 0.0,
                              "speed_mps": 20.0, "waypoints": ["Q"]}],
                "pits": [{"arc": "h1", "center_m": 2.0, "half_length_m": 1.0,
                          "depth_mm": 25.0, "reflectivity": 0.5}],
                "access_points": [{"id": "ap1", "x": center, "y": 0.0,
                                   "range_m": radius, "open": True}],
                "events": [{"t_ms": 100, "kind": "DETECT", "vehicle": "v1"}],
            }, net)
            world = Simulation(net, scenario, SimConfig()).run()
            assert world.server.stats.envelopes_accepted >= 1

    def test_detect_broadcast_reaches_nearby_vehicle(self):
        net = strip_net()
        scenario = scenario_from_dict({
            "duration_ms": 2000, "seed": 3,
            "vehicles": [
                {"id": "v1", "start_arc": "h1", "start_offset_m": 40.0,
                 "speed_mps": 0.0, "waypoints": []},
                {"id": "v2", "start_arc": "h1", "start_offset_m": 55.0,
                 "speed_mps": 0.0, "waypoints": []},
                {"id": "v3", "start_arc": "h1", "start_offset_m": 100.0,
                 "speed_mps": 0.0, "waypoints": []}],
            "pits": [{"arc": "h1", "center_m": 41.0, "half_length_m": 1.0,
                      "depth_mm": 25.0, "reflectivity": 0.5}],
            "events": [{"t_ms": 500, "kind": "DETECT", "vehicle": "v1"}],
        }, net)
        sim = Simulation(net, scenario, SimConfig())
        world = sim.run()
        bcasts = [l for l in sim.trace if " P2P_BROADCAST " in l]
        assert len(bcasts) == 1
        assert "receivers=v2" in bcasts[0]  # 15 m away; v3 at 60 m misses it
        assert world.vehicles["v2"].warning_cache == world.vehicles["v1"].warning_cache
        assert not world.vehicles["v3"].warning_cache


@st.composite
def tick_tie_cases(draw):
    """A seeded grid scenario whose events share milliseconds with the ticks.

    The grid generators drive vehicles over 50-60 m arcs at 10 or 12.5 m/s,
    so arrivals land on 100 ms ticks, and their scripted events sit on ticks
    too.  On top: a duration cut to a tick, extra DETECTs and DEST_CHANGEs
    on ticks, and maybe one vehicle parked at zero speed.  Uplinks, which a
    tick schedules at its own millisecond, follow from the access points.
    """
    make = draw(st.sampled_from([grid_inputs, ap_grid_inputs]))
    network, scenario = make(seed=draw(st.integers(0, 2 ** 16)))
    duration = 100 * draw(st.integers(1, scenario["duration_ms"] // 100))
    vids = [v["id"] for v in scenario["vehicles"]]
    nodes = [n["id"] for n in network["nodes"]]
    events = [e for e in scenario["events"] if e["t_ms"] < duration]
    for _ in range(draw(st.integers(0, 6))):
        t = 100 * draw(st.integers(0, duration // 100 - 1))
        vid = draw(st.sampled_from(vids))
        if draw(st.booleans()):
            events.append({"t_ms": t, "kind": "DETECT", "vehicle": vid})
        else:
            events.append({"t_ms": t, "kind": "DEST_CHANGE", "vehicle": vid,
                           "dest": draw(st.sampled_from([None, *nodes]))})
    if draw(st.booleans()):
        draw(st.sampled_from(scenario["vehicles"]))["speed_mps"] = 0.0
    scenario.update(duration_ms=duration, events=events)
    net = network_from_dict(network)
    probe_ms = draw(st.lists(st.integers(0, 2 * duration), min_size=1, max_size=4))
    return net, scenario_from_dict(scenario, net), probe_ms


def final_state(world):
    """Everything a run leaves behind, envelopes as their bytes."""
    vehicles = {vid: (v.offset_m, v.at_ms, v.speed_mps, v.stopped, v.waypoints,
                      v.conn, v.warning_cache, [(env.to_bytes(), loc) for env, loc in v.queue],
                      v.session.current_arc, v.session.destination, v.session.route,
                      v.session.pending_arcs)
                for vid, v in world.vehicles.items()}
    server = world.server
    return (vehicles, server.stats, server.registry.records, server.registry.events,
            server.wnet.arc_weights, server.wnet.min_weights, world.rng.getstate())


class TestEventOrder:
    @settings(max_examples=150, deadline=None)
    @given(tick_tie_cases())
    def test_matches_single_heap_reference(self, case):
        net, scenario, probe_ms = case
        reference = SingleHeapSimulation(net, scenario)
        want = final_state(reference.run())
        sim = Simulation(net, scenario)
        got = final_state(sim.run())
        assert sim.trace == reference.trace
        assert got == want
        world = sim.world
        for v in world.vehicles.values():
            assert v.candidates == world.arc_geometry(v.session.current_arc).candidates
            # the box that broadcasts reject by is the segment's, from its nodes
            arc = net.arcs[v.session.current_arc]
            tail, head = net.nodes[arc.tail], net.nodes[arc.head]
            assert v.box == (min(tail.x, head.x), max(tail.x, head.x),
                             min(tail.y, head.y), max(tail.y, head.y))
            # the cached arc geometry, up to and past the arc's end
            for now_ms in (*probe_ms, 10 ** 7):
                assert world.position(v, now_ms) == vehicle_position_by_formula(world, v, now_ms)

    def test_connected_vehicle_loses_the_link_on_an_arc_without_candidates(self):
        # ap1 reaches the first 55 m of ab only: the vehicle, CONNECTED there
        # until t=5500, drives onto bc at t=6000, where no open access point
        # reaches, and the 500 ms silence still ends in LOST
        net = build_net([("A", 0.0, 0.0), ("B", 60.0, 0.0), ("C", 160.0, 0.0)],
                        [("ab", "A", "B", 60.0), ("bc", "B", "C", 100.0)])
        scenario = scenario_from_dict({
            "duration_ms": 7000, "seed": 1,
            "vehicles": [{"id": "v", "start_arc": "ab", "start_offset_m": 0.0,
                          "speed_mps": 10.0, "waypoints": ["B", "C"]}],
            "access_points": [{"id": "ap1", "x": 0.0, "y": 0.0, "range_m": 55.0,
                               "open": True},
                              {"id": "shut", "x": 110.0, "y": 0.0, "range_m": 50.0,
                               "open": False}],
        }, net)
        reference = SingleHeapSimulation(net, scenario)
        want = final_state(reference.run())
        sim = Simulation(net, scenario)
        got = final_state(sim.run())
        assert sim.world.arc_geometry("bc").candidates == ()
        assert sim.trace == reference.trace
        assert got == want
        ticks = [line for line in sim.trace if line.split()[0] in
                 ("t=5500", "t=6000", "t=6100", "t=6200", "t=6300")]
        assert ticks == [
            "t=5500 PHASE_TIMEOUT vehicle=v phase=CONNECTED ap=ap1",
            "t=6000 MOVE vehicle=v node=B arc=bc",
            "t=6000 PHASE_TIMEOUT vehicle=v phase=CONNECTED ap=ap1",
            "t=6100 PHASE_TIMEOUT vehicle=v phase=LOST ap=ap1",
            "t=6200 PHASE_TIMEOUT vehicle=v phase=SCANNING ap=-",
            "t=6300 PHASE_TIMEOUT vehicle=v phase=SCANNING ap=-",
        ]
        assert sim.world.vehicles["v"].conn == ConnectionState(Phase.SCANNING, 6200, None)

    def test_dest_change_restarts_a_stopped_vehicle_onto_an_arc_in_range(self):
        # the vehicle stops at B at t=6000 with its reports queued; the
        # DEST_CHANGE at t=8000 restarts it onto bc, the only arc that ap1
        # reaches, so its ticks there must read bc's candidates, not ab's
        net = build_net([("A", 0.0, 0.0), ("B", 60.0, 0.0), ("C", 160.0, 0.0)],
                        [("ab", "A", "B", 60.0), ("bc", "B", "C", 100.0)])
        scenario = scenario_from_dict({
            "duration_ms": 14_000, "seed": 2,
            "vehicles": [{"id": "v", "start_arc": "ab", "start_offset_m": 0.0,
                          "speed_mps": 10.0, "waypoints": ["B"]}],
            "pits": [{"arc": "ab", "center_m": 20.0, "half_length_m": 1.0,
                      "depth_mm": 30.0, "reflectivity": 0.5}],
            "access_points": [{"id": "ap1", "x": 110.0, "y": 0.0, "range_m": 20.0,
                               "open": True}],
            "events": [{"t_ms": 1000, "kind": "DETECT", "vehicle": "v"},
                       {"t_ms": 8000, "kind": "DEST_CHANGE", "vehicle": "v", "dest": "C"}],
        }, net)
        reference = SingleHeapSimulation(net, scenario)
        want = final_state(reference.run())
        sim = Simulation(net, scenario)
        got = final_state(sim.run())
        assert sim.trace == reference.trace
        assert got == want
        v = sim.world.vehicles["v"]
        assert sim.world.arc_geometry("ab").candidates == ()
        assert (v.session.current_arc, v.candidates) == ("bc", ((110.0, 0.0, 20.0, "ap1"),))
        assert "t=6000 MOVE vehicle=v node=B arc=-" in sim.trace
        assert "t=8000 DEST_CHANGE vehicle=v dest=C" in sim.trace
        # in range from x = 90 m, reached at t=11000, and CONNECTED two ticks later
        assert "t=11000 PHASE_TIMEOUT vehicle=v phase=ASSOCIATING ap=ap1" in sim.trace
        assert "t=11200 PHASE_TIMEOUT vehicle=v phase=CONNECTED ap=ap1" in sim.trace
        assert "t=11200 UPLINK vehicle=v delivered=1 queued=0" in sim.trace

    def test_grid_scenarios_tie_events_with_ticks(self):
        # the generators behind tick_tie_cases put every kind of event on a
        # millisecond that also runs PHASE_TIMEOUTs
        kinds = set()
        for make in (grid_inputs, ap_grid_inputs):
            network, scenario = make()
            net = network_from_dict(network)
            reference = SingleHeapSimulation(net, scenario_from_dict(scenario, net))
            reference.run()
            tick_ms = {line.split()[0] for line in reference.trace if " PHASE_TIMEOUT " in line}
            kinds |= {line.split()[1] for line in reference.trace
                      if line.split()[0] in tick_ms}
        assert kinds == {"MOVE", "DETECT", "P2P_BROADCAST", "PHASE_TIMEOUT", "UPLINK",
                         "DEST_CHANGE"}


class TestTick:
    """The tick refreshes a CONNECTED link in place and leaves every phase
    change to `step_connection`."""

    def test_silence_past_the_timeout_loses_the_link_though_the_peer_is_back(self):
        # ap1 reaches x <= 50 m; at 100 m/s the vehicle is CONNECTED at t=300,
        # last hears ap1 at t=500 (x = 50), turns at B (x = 80) at t=800 and
        # hears ap1 again at t=1100 (x = 50), 600 ms after the last activity
        net = build_net([("A", 0.0, 0.0), ("B", 80.0, 0.0)],
                        [("ab", "A", "B", 80.0), ("ba", "B", "A", 80.0)])
        scenario = scenario_from_dict({
            "duration_ms": 1500, "seed": 1,
            "vehicles": [{"id": "v", "start_arc": "ab", "start_offset_m": 0.0,
                          "speed_mps": 100.0, "waypoints": ["B", "A"]}],
            "access_points": [{"id": "ap1", "x": 0.0, "y": 0.0, "range_m": 50.0,
                               "open": True}],
        }, net)
        reference = SingleHeapSimulation(net, scenario)
        want = final_state(reference.run())
        sim = Simulation(net, scenario)
        got = final_state(sim.run())
        assert sim.trace == reference.trace
        assert got == want
        ticks = [line.split(" vehicle=v ")[0] + " " + line.split(" phase=")[1]
                 for line in sim.trace if " PHASE_TIMEOUT " in line]
        assert ticks[2:13] == [
            "t=300 PHASE_TIMEOUT CONNECTED ap=ap1",
            "t=400 PHASE_TIMEOUT CONNECTED ap=ap1",
            "t=500 PHASE_TIMEOUT CONNECTED ap=ap1",
            "t=600 PHASE_TIMEOUT CONNECTED ap=ap1",
            "t=700 PHASE_TIMEOUT CONNECTED ap=ap1",
            "t=800 PHASE_TIMEOUT CONNECTED ap=ap1",
            "t=900 PHASE_TIMEOUT CONNECTED ap=ap1",
            "t=1000 PHASE_TIMEOUT CONNECTED ap=ap1",
            "t=1100 PHASE_TIMEOUT LOST ap=ap1",
            "t=1200 PHASE_TIMEOUT SCANNING ap=-",
            "t=1300 PHASE_TIMEOUT ASSOCIATING ap=ap1",
        ]

    @pytest.mark.parametrize("make", [grid_inputs, ap_grid_inputs, handover_inputs])
    def test_no_step_maps_connected_to_connected_with_the_same_peer(self, monkeypatch, make):
        steps = []

        def recording_step(conn, visible_ap, now_ms, loss_timeout_ms):
            before = (conn.phase, conn.peer)
            out = step_connection(conn, visible_ap, now_ms, loss_timeout_ms)
            steps.append((before, (out.phase, out.peer)))
            return out

        network, scenario = make()
        net = network_from_dict(network)
        scenario = scenario_from_dict(scenario, net)
        reference = SingleHeapSimulation(net, scenario)
        reference.run()
        monkeypatch.setattr(comms, "step_connection", recording_step)
        sim = Simulation(net, scenario)
        sim.run()
        assert sim.trace == reference.trace
        connected = [line for line in sim.trace if " phase=CONNECTED " in line]
        assert connected and steps
        assert not [s for s in steps if s[0] == s[1] and s[0][0] == Phase.CONNECTED]

    def test_each_vehicle_holds_its_own_connection_state(self):
        network, scenario = handover_inputs()
        net = network_from_dict(network)
        sim = Simulation(net, scenario_from_dict(scenario, net))
        vehicles = sim.world.vehicles.values()
        assert len({id(v.conn) for v in vehicles}) == len(vehicles)
        sim.run()
        assert len({id(v.conn) for v in vehicles}) == len(vehicles)
        with pytest.raises(TypeError):  # mutable, so never a set member or a key
            hash(ConnectionState())


def sensing_net():
    """Three 100 m arcs in a row and a 0.4 m spur, shorter than one cell."""
    return build_net([("A", 0.0, 0.0), ("B", 100.0, 0.0), ("C", 200.0, 0.0),
                      ("D", 300.0, 0.0), ("E", 300.4, 0.0)],
                     [("deep", "A", "B", 100.0), ("shallow", "B", "C", 100.0),
                      ("clean", "C", "D", 100.0), ("spur", "D", "E", 0.4)])


SENSING_SCENARIO = {
    "duration_ms": 3000, "seed": 9,
    "vehicles": [{"id": vid, "start_arc": arc, "start_offset_m": offset,
                  "speed_mps": 0.0, "waypoints": []}
                 for vid, arc, offset in (("v1", "deep", 10.0), ("v2", "deep", 60.0),
                                          ("v3", "shallow", 0.0), ("v4", "clean", 0.0),
                                          ("v5", "spur", 0.0))],
    "pits": [{"arc": "deep", "center_m": 20.0, "half_length_m": 1.0,
              "depth_mm": 40.0, "reflectivity": 0.5},
             {"arc": "deep", "center_m": 70.0, "half_length_m": 0.5,
              "depth_mm": 25.0, "reflectivity": 0.3},
             {"arc": "shallow", "center_m": 50.0, "half_length_m": 1.0,
              "depth_mm": 5.0, "reflectivity": 0.5},
             {"arc": "spur", "center_m": 0.2, "half_length_m": 0.1,
              "depth_mm": 40.0, "reflectivity": 0.5}],
    "events": [{"t_ms": t, "kind": "DETECT", "vehicle": vid}
               for t in (500, 1200, 2000) for vid in ("v1", "v2", "v3", "v4", "v5")],
}


def run_sensing(monkeypatch):
    """Runs two Simulations built from the same network and scenario objects,
    counting the sweeps per arc of each run."""
    swept = []

    def counting_sweep(surface, window, cell_m):
        swept[-1][surface.arc] = swept[-1].get(surface.arc, 0) + 1
        return sweep(surface, window, cell_m)

    monkeypatch.setattr(comms, "sweep", counting_sweep)
    net = sensing_net()
    scenario = scenario_from_dict(SENSING_SCENARIO, net)
    sims = []
    for _ in range(2):
        swept.append({})
        sim = Simulation(net, scenario)
        sim.run()
        sims.append(sim)
    return sims, swept


class TestSensing:
    def test_each_pitted_arc_is_swept_once_per_simulation(self, monkeypatch):
        # three DETECTs per vehicle, two vehicles on `deep`: one sweep per
        # pitted arc in each run, none on the clean arc or the sub-cell spur
        _, swept = run_sensing(monkeypatch)
        assert swept == [{"deep": 1, "shallow": 1}, {"deep": 1, "shallow": 1}]

    def test_repeated_detects_trace_the_same_reports(self, monkeypatch):
        # v2's first DETECT runs before v1's warnings are broadcast, so both
        # count the two potholes as new
        (sim, _), _ = run_sensing(monkeypatch)
        detects = [line.split(" ", 2)[2] for line in sim.trace if " DETECT " in line]
        assert detects == [
            "vehicle=v1 arc=deep reports=2 new=2", "vehicle=v2 arc=deep reports=2 new=2",
            "vehicle=v3 arc=shallow reports=0 new=0", "vehicle=v4 arc=clean reports=0 new=0",
            "vehicle=v5 arc=spur reports=0 new=0",
        ] + [f"vehicle={vid} arc={arc} reports={n} new=0" for vid, arc, n in (
            ("v1", "deep", 2), ("v2", "deep", 2), ("v3", "shallow", 0),
            ("v4", "clean", 0), ("v5", "spur", 0))] * 2

    def test_shared_arc_gives_equal_reports_in_separate_envelopes(self, monkeypatch):
        (sim, _), _ = run_sensing(monkeypatch)
        world = sim.world
        key = world.config.shared_key
        queues = {vid: list(world.vehicles[vid].queue) for vid in ("v1", "v2")}
        assert [len(q) for q in queues.values()] == [6, 6]  # 3 DETECTs x 2 potholes
        reports = {vid: [decrypt(env, key, loc) for env, loc in q]
                   for vid, q in queues.items()}
        for mine, theirs in zip(reports["v1"], reports["v2"]):
            assert mine.vehicle_id == "v1" and theirs.vehicle_id == "v2"
            assert (mine.depth_map, mine.intensity_image, mine.arc, mine.offset_m,
                    mine.timestamp_ms) == (theirs.depth_map, theirs.intensity_image,
                                           theirs.arc, theirs.offset_m, theirs.timestamp_ms)
        nonces = [env.nonce for q in queues.values() for env, _ in q]
        assert len(set(nonces)) == len(nonces) == 12
        assert not any(world.vehicles[vid].queue for vid in ("v3", "v4", "v5"))


def lap_net():
    """A 100 m square, A -> B -> C -> D -> A, each arc with its own geometry."""
    return build_net([("A", 0.0, 0.0), ("B", 100.0, 0.0), ("C", 100.0, 100.0),
                      ("D", 0.0, 100.0)],
                     [("ab", "A", "B", 100.0), ("bc", "B", "C", 100.0),
                      ("cd", "C", "D", 100.0), ("da", "D", "A", 100.0)])


LAP_SCENARIO = {
    "duration_ms": 45_000, "seed": 4,
    "vehicles": [{"id": "v1", "start_arc": "ab", "start_offset_m": 0.0,
                  "speed_mps": 20.0, "waypoints": ["B", "C", "D", "A"] * 2},
                 {"id": "v2", "start_arc": "ab", "start_offset_m": 50.0,
                  "speed_mps": 0.0, "waypoints": []}],
    "access_points": [{"id": "near", "x": 50.0, "y": -10.0, "range_m": 30.0, "open": True},
                      {"id": "shut", "x": 100.0, "y": 100.0, "range_m": 80.0,
                       "open": False}],
}


class TestApCandidates:
    def test_each_arc_is_indexed_once_per_world(self, monkeypatch):
        # two laps: v1 enters every arc twice and v2 ticks on ab 449 times,
        # yet each World builds each arc's geometry once, on first use: its
        # line, box and candidates together, which vehicles then share
        net = lap_net()
        arc_of = {(net.nodes[a.tail].x, net.nodes[a.tail].y,
                   net.nodes[a.head].x, net.nodes[a.head].y): a.id for a in net.arcs.values()}
        built = []  # per world: (arc, what was built) -> times

        def counting_candidates(open_aps, x0, y0, x1, y1):
            key = (arc_of[(x0, y0, x1, y1)], "candidates")
            built[-1][key] = built[-1].get(key, 0) + 1
            return arc_candidates(open_aps, x0, y0, x1, y1)

        def counting_geometry(line, box, candidates):
            x0, y0, dx, dy, _ = line
            key = (arc_of[(x0, y0, x0 + dx, y0 + dy)], "geometry")
            built[-1][key] = built[-1].get(key, 0) + 1
            return arc_geometry(line, box, candidates)

        arc_candidates, arc_geometry = comms._arc_candidates, comms.ArcGeometry
        monkeypatch.setattr(comms, "_arc_candidates", counting_candidates)
        monkeypatch.setattr(comms, "ArcGeometry", counting_geometry)
        scenario = scenario_from_dict(LAP_SCENARIO, net)
        for _ in range(2):
            built.append({})
            sim = Simulation(net, scenario)
            sim.run()
            world = sim.world
            assert sum(" MOVE vehicle=v1 node=A arc=ab" in line for line in sim.trace) == 1
            for (x0, y0, x1, y1), arc_id in arc_of.items():
                assert world.arc_geometry(arc_id)[:2] == (
                    (x0, y0, x1 - x0, y1 - y0, 100.0),
                    (min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1)))
            assert world.arc_geometry("ab").candidates == ((50.0, -10.0, 30.0, "near"),)
            assert world.arc_geometry("cd").candidates == ()
            for v in world.vehicles.values():
                geometry = world.arc_geometry(v.session.current_arc)
                assert (v.line, v.box, v.candidates) == tuple(geometry)
                assert v.line is geometry.line and v.box is geometry.box
        assert built == [{(arc, what): 1 for arc in ("ab", "bc", "cd", "da")
                          for what in ("candidates", "geometry")}] * 2


def _graze(draw, x, y, d, ux, uy):
    """An open access point `d` out from (x, y) along (ux, uy), whose range
    ends at (x, y) or within 1e-9 m of it, either side."""
    ax, ay = x + d * ux, y + d * uy
    reach = math.hypot(ax - x, ay - y) + draw(st.sampled_from([-1e-9, 0.0, 1e-9]))
    return ax, ay, reach


@st.composite
def motion_bound_cases(draw):
    """A scenario that puts the tick's hold and the broadcast's box reject at
    their edges.

    A chain of nodes 40-250 m apart, near the origin or 1e6 m out where
    positions round, with an arc each way between neighbours, as long as
    its segment or 0.9 of it.  Vehicles drive along the chain at 40 m/s, at
    other speeds, at 1e-320 m/s or not at all, and stop at the end of their
    waypoints; DEST_CHANGEs route them and restart the stopped ones.  Open
    access points graze an arc's side or a node, where vehicles stop,
    within 1e-9 m.  A parked sender broadcasts to a receiver that has
    stopped exactly 20 m away, on an axis-parallel arc whose head its
    computed position may overshoot by an ulp, out of the segment's box.
    A phase latency above the loss timeout drops connections whose peer is
    still in range, so a held peer can outlive its connection.
    """
    base = draw(st.sampled_from([0.0, 1e6]))
    unit = st.floats(-math.pi, math.pi).map(lambda a: (math.cos(a), math.sin(a)))
    heading = st.one_of(st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]),
                        unit)
    xy = [(base + draw(st.floats(-50.0, 50.0)), base + draw(st.floats(-50.0, 50.0)))]
    for _ in range(draw(st.integers(2, 5))):
        (x, y), (ux, uy), d = xy[-1], draw(heading), draw(st.floats(40.0, 250.0))
        xy.append((x + d * ux, y + d * uy))
    nodes = [{"id": f"n{i}", "x": x, "y": y} for i, (x, y) in enumerate(xy)]
    arcs, lengths = [], {}
    for i in range(len(xy) - 1):
        seg = math.hypot(xy[i + 1][0] - xy[i][0], xy[i + 1][1] - xy[i][1])
        for arc_id, tail, head in ((f"f{i}", i, i + 1), (f"b{i}", i + 1, i)):
            lengths[arc_id] = seg * draw(st.sampled_from([1.0, 0.9]))
            arcs.append({"id": arc_id, "tail": f"n{tail}", "head": f"n{head}",
                         "length_m": lengths[arc_id]})

    speeds = st.one_of(st.sampled_from([0.0, 1e-320, 10.0, 12.5, 40.0]), st.floats(1.0, 40.0))
    vehicles = []
    for k in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(xy) - 2))
        offset = draw(st.sampled_from([0.0, lengths[f"f{i}"] / 2]))
        stop = draw(st.integers(i + 1, len(xy) - 1))
        vehicles.append({"id": f"v{k}", "start_arc": f"f{i}", "start_offset_m": offset,
                         "speed_mps": draw(speeds),
                         "waypoints": [f"n{j}" for j in range(i + 1, stop + 1)]})
    pits = [{"arc": arc_id, "center_m": lengths[arc_id] / 2, "half_length_m": 1.0,
             "depth_mm": 30.0, "reflectivity": 0.5}
            for arc_id in sorted(lengths) if draw(st.booleans())]

    aps = []
    for k in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["side", "node", "anywhere"]))
        d = draw(st.floats(10.0, 80.0))
        if kind == "side":
            i = draw(st.integers(0, len(xy) - 2))
            (x0, y0), (x1, y1) = xy[i], xy[i + 1]
            frac = draw(st.floats(0.0, 1.0))
            seg = math.hypot(x1 - x0, y1 - y0)
            side = draw(st.sampled_from([1.0, -1.0]))
            ax, ay, reach = _graze(draw, x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac, d,
                                   side * (y0 - y1) / seg, side * (x1 - x0) / seg)
        elif kind == "node":
            ax, ay, reach = _graze(draw, *draw(st.sampled_from(xy)), d, *draw(unit))
        else:
            (x, y), (ux, uy) = draw(st.sampled_from(xy)), draw(unit)
            ax, ay, reach = x + d * ux, y + d * uy, draw(st.floats(10.0, 80.0))
        aps.append({"id": f"ap{k}", "x": ax, "y": ay, "range_m": reach,
                    "open": draw(st.integers(0, 5)) > 0})

    duration = 40_000
    vids = [v["id"] for v in vehicles]
    events = []
    for _ in range(draw(st.integers(0, 6))):
        t, vid = 100 * draw(st.integers(0, duration // 100 - 1)), draw(st.sampled_from(vids))
        if draw(st.booleans()):
            events.append({"t_ms": t, "kind": "DETECT", "vehicle": vid})
        else:
            events.append({"t_ms": t, "kind": "DEST_CHANGE", "vehicle": vid,
                           "dest": draw(st.sampled_from([None, *(n["id"] for n in nodes)]))})

    if draw(st.booleans()):
        # the receiver drives A -> B and stops at B, where `World.position`
        # puts it at a + (b - a) * 1.0: on its box's edge, or an ulp off b,
        # since b - a, one binade above b, rounds by up to an ulp of b (by
        # exactly one for an integer a and an odd number of ulps b)
        sign = draw(st.sampled_from([1.0, -1.0]))
        if draw(st.booleans()):
            a = -sign * draw(st.integers(29, 60))
            b = sign * math.ldexp(2 * draw(st.integers(100 * 2 ** 45, 128 * 2 ** 45 - 1)) + 1,
                                  -46)
        else:
            a, b = -sign * draw(st.floats(1.0, 60.0)), sign * draw(st.floats(100.0, 128.0))
        c = base + draw(st.floats(300.0, 400.0))
        tip = a + (b - a) * 1.0
        box_xy = [(a, c), (b, c), (tip + 20.0 * sign, c), (tip + 20.0 * sign, c + 60.0)]
        if draw(st.booleans()):
            box_xy = [(y, x) for x, y in box_xy]
        nodes += [{"id": name, "x": x, "y": y} for name, (x, y) in zip("ABCD", box_xy)]
        arcs += [{"id": "ab", "tail": "A", "head": "B", "length_m": abs(b - a)},
                 {"id": "cd", "tail": "C", "head": "D", "length_m": 60.0}]
        vehicles += [{"id": "receiver", "start_arc": "ab", "start_offset_m": 0.0,
                      "speed_mps": 10.0, "waypoints": ["B"]},
                     {"id": "sender", "start_arc": "cd", "start_offset_m": 0.0,
                      "speed_mps": 0.0, "waypoints": []}]
        pits.append({"arc": "cd", "center_m": 30.0, "half_length_m": 1.0,
                     "depth_mm": 30.0, "reflectivity": 0.5})
        events.append({"t_ms": 30_000, "kind": "DETECT", "vehicle": "sender"})

    net = network_from_dict({"nodes": nodes, "arcs": arcs})
    scenario = scenario_from_dict({"duration_ms": duration, "seed": draw(st.integers(0, 99)),
                                   "vehicles": vehicles, "pits": pits,
                                   "access_points": aps, "events": events}, net)
    return net, scenario, SimConfig(phase_latency_ms=draw(st.sampled_from([100, 700])))


class TestMotionBounds:
    @settings(max_examples=150, deadline=None)
    @given(motion_bound_cases())
    def test_matches_single_heap_reference(self, case):
        net, scenario, config = case
        reference = SingleHeapSimulation(net, scenario, config)
        want = final_state(reference.run())
        sim = Simulation(net, scenario, config)
        got = final_state(sim.run())
        assert sim.trace == reference.trace
        assert got == want

    def test_ticks_reuse_a_held_answer(self, monkeypatch):
        # v1 is parked in ap1's range: its first tick finds ap1 as a new
        # nearest access point, which holds nothing, and its second finds the
        # peer, which a vehicle that never moves holds to the end of the run.
        # v2 drives along an arc that no open access point reaches
        net = build_net([("P", 0.0, 0.0), ("Q", 200.0, 0.0), ("R", 0.0, 500.0),
                         ("S", 200.0, 500.0)],
                        [("h1", "P", "Q", 200.0), ("h2", "R", "S", 200.0)])
        scenario = scenario_from_dict({
            "duration_ms": 5000, "seed": 1,
            "vehicles": [parked("v1", 40.0),
                         {"id": "v2", "start_arc": "h2", "start_offset_m": 0.0,
                          "speed_mps": 20.0, "waypoints": ["S"]}],
            "access_points": [{"id": "ap1", "x": 40.0, "y": 30.0, "range_m": 35.0,
                               "open": True}],
        }, net)
        scans = []
        scan = World.visible_ap
        monkeypatch.setattr(World, "visible_ap", lambda world, v, now_ms: scans.append(v.id)
                            or scan(world, v, now_ms))
        sim = Simulation(net, scenario)
        sim.run()
        assert scans == ["v1", "v1"]
        assert "t=4900 PHASE_TIMEOUT vehicle=v1 phase=CONNECTED ap=ap1" in sim.trace

    def test_a_held_peer_stands_only_for_its_connection(self):
        # 700 ms phases outlast the 500 ms loss timeout, so the handshake with
        # a drops to LOST at t=1400 and to SCANNING at t=2100, while a stays
        # in range and the t=1400 scan holds it.  At t=2800 the vehicle, at
        # x = 28, has no peer, and the nearest access point in range is b
        net = strip_net()
        scenario = scenario_from_dict({
            "duration_ms": 3000, "seed": 1,
            "vehicles": [{"id": "v", "start_arc": "h1", "start_offset_m": 0.0,
                          "speed_mps": 10.0, "waypoints": ["Q"]}],
            "access_points": [{"id": "a", "x": 50.0, "y": 0.0, "range_m": 60.0, "open": True},
                              {"id": "b", "x": 35.0, "y": 0.0, "range_m": 10.0, "open": True}],
        }, net)
        config = SimConfig(phase_latency_ms=700)
        reference = SingleHeapSimulation(net, scenario, config)
        reference.run()
        sim = Simulation(net, scenario, config)
        sim.run()
        assert sim.trace == reference.trace == [
            "t=700 PHASE_TIMEOUT vehicle=v phase=ASSOCIATING ap=a",
            "t=1400 PHASE_TIMEOUT vehicle=v phase=LOST ap=a",
            "t=2100 PHASE_TIMEOUT vehicle=v phase=SCANNING ap=-",
            "t=2800 PHASE_TIMEOUT vehicle=v phase=ASSOCIATING ap=b",
        ]
