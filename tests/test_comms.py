import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_net, visible_ap_by_scan
from potholesim.comms import (ConnectionState, Phase, Simulation, UnknownVehicleError,
                              World, p2p_broadcast, step_connection, uplink)
from potholesim.config import SimConfig
from potholesim.detection import DepthMap, IntensityImage
from potholesim.geocrypto import PlainReport, encrypt
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


class TestStepConnection:
    def test_loss_after_600ms_silence(self):
        conn = ConnectionState(Phase.CONNECTED, last_activity_ms=0, peer="ap1")
        assert step_connection(conn, "ap1", 600).phase is Phase.LOST

    def test_still_connected_at_400ms(self):
        conn = ConnectionState(Phase.CONNECTED, last_activity_ms=0, peer="ap1")
        assert step_connection(conn, None, 400).phase is Phase.CONNECTED

    def test_boundary_exactly_500ms_not_lost(self):
        conn = ConnectionState(Phase.CONNECTED, last_activity_ms=0, peer="ap1")
        assert step_connection(conn, None, 500).phase is Phase.CONNECTED
        assert step_connection(conn, None, 501).phase is Phase.LOST

    def test_authenticating_advances_to_connected(self):
        conn = ConnectionState(Phase.AUTHENTICATING, last_activity_ms=100, peer="ap1")
        out = step_connection(conn, "ap1", 200)
        assert out.phase is Phase.CONNECTED and out.peer == "ap1"

    def test_full_lifecycle_order(self):
        conn = ConnectionState()
        seen = [conn.phase]
        for t in (100, 200, 300, 400):
            conn = step_connection(conn, "ap1", t)
            seen.append(conn.phase)
        assert seen == [Phase.SCANNING, Phase.ASSOCIATING, Phase.AUTHENTICATING,
                        Phase.CONNECTED, Phase.CONNECTED]

    def test_lost_reenters_scanning(self):
        conn = ConnectionState(Phase.LOST, last_activity_ms=0, peer="ap1")
        out = step_connection(conn, None, 1000)
        assert out.phase is Phase.SCANNING and out.peer is None

    def test_different_ap_does_not_advance_handshake(self):
        conn = ConnectionState(Phase.ASSOCIATING, last_activity_ms=0, peer="ap1")
        assert step_connection(conn, "ap2", 100) == conn

    def test_scanning_waits_without_ap(self):
        conn = ConnectionState(Phase.SCANNING, last_activity_ms=0)
        assert step_connection(conn, None, 10_000).phase is Phase.SCANNING


class TestBroadcast:
    def test_range_thresholds(self):
        world = make_world([parked("vs", 10.0), parked("va", 25.0),
                            parked("vb", 30.0), parked("vc", 35.5)])
        got = p2p_broadcast(world, "vs", "h1:50", 0)
        # 15 m and exactly 20 m receive; 25.5 m does not
        assert got == ["va", "vb"]
        assert "h1:50" in world.vehicles["va"].warning_cache
        assert "h1:50" not in world.vehicles["vc"].warning_cache

    def test_unknown_sender(self):
        world = make_world([parked("vs", 10.0)])
        with pytest.raises(UnknownVehicleError):
            p2p_broadcast(world, "ghost", "h1:50", 0)

    def test_duplicate_warning_idempotent(self):
        world = make_world([parked("vs", 10.0), parked("va", 25.0)])
        p2p_broadcast(world, "vs", "h1:50", 0)
        before = set(world.vehicles["va"].warning_cache)
        p2p_broadcast(world, "vs", "h1:50", 5)
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
        assert uplink(world, "v1", 100) == 3
        assert not world.vehicles["v1"].queue
        assert len(world.server.registry) == 3

    def test_not_connected_delivers_zero(self):
        world = make_world([parked("v1", 0.0)])
        queue_envelopes(world, "v1", 2, world.config.shared_key)
        assert uplink(world, "v1", 100) == 0
        assert len(world.vehicles["v1"].queue) == 2

    def test_budget_limits_each_exchange(self):
        world = make_world([parked("v1", 0.0)],
                           aps=[{"id": "ap1", "x": 0.0, "y": 0.0,
                                 "range_m": 50.0, "open": True}])
        world.vehicles["v1"].conn = ConnectionState(Phase.CONNECTED, 0, "ap1")
        queue_envelopes(world, "v1", 6, world.config.shared_key)
        assert uplink(world, "v1", 100) == 4
        assert len(world.vehicles["v1"].queue) == 2

    def test_peer_out_of_range_delivers_nothing(self):
        world = make_world([parked("v1", 0.0)],
                           aps=[{"id": "ap1", "x": 190.0, "y": 0.0,
                                 "range_m": 5.0, "open": True}])
        world.vehicles["v1"].conn = ConnectionState(Phase.CONNECTED, 0, "ap1")
        queue_envelopes(world, "v1", 2, world.config.shared_key)
        assert uplink(world, "v1", 100) == 0


# Oracle worlds: the vehicle's arc P -> Q lies within +-BOUND / 2; two
# anchor nodes at +-BOUND fix the coordinate extent, and an anchor access
# point at (BOUND, BOUND) with the largest range, when open, fixes the
# grid cell to ORACLE_CELL, so positions can be put on cell edges.
BOUND = 1000.0
MAX_RANGE = 80.0


def oracle_world(p, q, length_m, aps, anchor_open=True):
    net = build_net([("P", *p), ("Q", *q), ("lo", -BOUND, -BOUND), ("hi", BOUND, BOUND)],
                    [("pq", "P", "Q", length_m), ("anchor", "lo", "hi", 1.0)])
    anchor = AccessPointSpec("zz-anchor", BOUND, BOUND, MAX_RANGE, anchor_open)
    scenario = Scenario(duration_ms=0, seed=0,
                        vehicles=[VehicleSpec("v", "pq", 0.0, 0.0, ())],
                        access_points=[anchor, *aps])
    return World(net, scenario, SimConfig())


ORACLE_CELL = oracle_world((0.0, 0.0), (1.0, 0.0), 1.0, []).ap_cell_m

coord = st.one_of(st.integers(-400, 400).map(float),
                  st.floats(-400.0, 400.0, allow_nan=False, allow_infinity=False))
ranges = st.one_of(st.sampled_from([40.0, 50.0, 60.0, MAX_RANGE]),
                   st.floats(40.0, MAX_RANGE))


@st.composite
def oracle_cases(draw):
    """A world, the vehicle's state and query times for `visible_ap`."""
    mode = draw(st.sampled_from(["node", "edge", "moving"]))
    if mode == "edge":  # on, or one ulp either side of, a grid line
        p = tuple(math.nextafter(k * ORACLE_CELL, draw(st.sampled_from([-BOUND, BOUND])))
                  if draw(st.booleans()) else k * ORACLE_CELL
                  for k in draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5))))
    elif mode == "node":
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

    world = oracle_world(p, q, length, aps, anchor_open=draw(st.booleans()))
    v = world.vehicles["v"]
    peer = draw(st.sampled_from([None, "nowhere", "zz-anchor", *(ap.id for ap in aps)]))
    v.conn = ConnectionState(Phase.ASSOCIATING, 0, peer)
    if mode == "moving":
        v.offset_m = draw(st.floats(0.0, length, exclude_max=True))
        v.speed_mps = draw(st.floats(0.0, 30.0))
        times = draw(st.lists(st.integers(0, 60_000), min_size=1, max_size=4))
    else:
        times = [0]
    return world, times


class TestVisibleAp:
    @settings(max_examples=300, deadline=None)
    @given(oracle_cases())
    def test_matches_full_scan(self, case):
        world, times = case
        for now_ms in times:
            assert world.visible_ap("v", now_ms) == visible_ap_by_scan(world, "v", now_ms)

    def test_oracle_cell_is_fixed_by_the_anchors(self):
        # edge positions above are only on grid lines while this holds
        world = oracle_world((3.0, 4.0), (-5.0, 7.0), 9.0,
                             [AccessPointSpec("a", 100.0, -50.0, 60.0, True)])
        assert world.ap_cell_m == ORACLE_CELL > MAX_RANGE

    @pytest.mark.parametrize("p, aps, anchor_open, peer, expected", [
        ((2 * ORACLE_CELL, -ORACLE_CELL), [("a", 2 * ORACLE_CELL - 30.0, 40.0 - ORACLE_CELL,
                                            50.0, True)], True, None, "a"),
        # 128 - nextafter(64, 0) rounds to 64.0, within the 64 m range, while
        # x / 64 and 128 / 64 floor to cells 0 and 2: a cell of exactly the
        # largest range would miss this access point
        ((math.nextafter(64.0, 0.0), 0.0), [("a", 128.0, 0.0, 64.0, True)], False, None, "a"),
        ((0.0, 0.0), [("a", 1.0, 1.0, 50.0, False)], False, None, None),
        ((0.0, 0.0), [("a", 1.0, 1.0, 50.0, False), ("b", 2.0, 1.0, 50.0, True)],
         False, "a", "b"),
        ((0.0, 0.0), [("near", 5.0, 0.0, 50.0, True), ("far", -40.0, 0.0, 50.0, True)],
         False, None, "near"),
        ((0.0, 0.0), [("near", 5.0, 0.0, 50.0, True), ("far", -40.0, 0.0, 50.0, True)],
         False, "far", "far"),
        ((0.0, 0.0), [("b", 30.0, 0.0, 50.0, True), ("a", -30.0, 0.0, 50.0, True)],
         False, None, "a"),
    ], ids=["exact-range-on-grid-lines", "in-range-by-rounding", "no-open-ap", "closed-ignored",
            "nearest", "peer-wins", "tie-by-id"])
    def test_named_cases_match_full_scan(self, p, aps, anchor_open, peer, expected):
        world = oracle_world(p, (p[0] + 10.0, p[1]), 10.0,
                             [AccessPointSpec(*ap) for ap in aps], anchor_open)
        world.vehicles["v"].conn = ConnectionState(Phase.ASSOCIATING, 0, peer)
        assert visible_ap_by_scan(world, "v", 0) == expected
        assert world.visible_ap("v", 0) == expected

    def test_closed_access_points_are_not_indexed(self):
        world = oracle_world((0.0, 0.0), (10.0, 0.0), 10.0,
                             [AccessPointSpec("a", 1.0, 1.0, 50.0, False),
                              AccessPointSpec("b", 2.0, 1.0, 50.0, True)])
        indexed = {entry[3] for bucket in world._ap_buckets.values() for entry in bucket}
        assert indexed == {"b", "zz-anchor"}


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
        assert world.server.wnet.weight("h1") == 30.0 * 200.0

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
