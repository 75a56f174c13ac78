"""Acceptance suite: the eight exit criteria, one test each.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line (visible with
pytest -s).  Tolerances are pinned here and nowhere else: weight
comparisons are exact or within relative tolerance 1e-12 where float sums
are involved; thresholds (20 m, 500 ms) are exact.
"""

import contextlib
import math
import random
import time

import pytest

from helpers import (build_net, close, dijkstra_all_arcs, enumerate_min_weight,
                     exact_weight, ingest, random_network, random_registry,
                     write_end_to_end)
from potholesim.cli import main
from potholesim.comms import ConnectionState, Phase, World, p2p_broadcast, step_connection
from potholesim.config import SimConfig
from potholesim.detection import DepthMap, IntensityImage
from potholesim.geocrypto import (GeocryptoError, PlainReport, ReportEnvelope,
                                  decrypt, encrypt)
from potholesim.registry import PotholeRegistry
from potholesim.routing import UnreachableError, route
from potholesim.scenario import scenario_from_dict
from potholesim.weighting import apply_update, preprocess

REL_TOL = 1e-12


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


@pytest.fixture(scope="module")
def corpus():
    """500 random weighted multigraphs (<= 8 nodes, <= 3 parallel arcs per
    ordered pair), weights produced by the damage-average preprocessing over
    random registries."""
    rng = random.Random(424242)
    graphs = []
    for i in range(500):
        size = 2 + (i % 7)  # exact node counts cycling 2..8
        net = random_network(rng, max_nodes=size, min_nodes=size, max_parallel=3,
                             pair_p=0.25 + 0.05 * (i % 4))
        reg = random_registry(rng, net, max_potholes=8)
        graphs.append((net, reg, preprocess(net, reg)))
    return graphs


def test_criterion_1_optimal_routing(corpus):
    with criterion(1, "optimal routing vs exhaustive enumeration"):
        start = time.monotonic()
        pairs_checked = 0
        for net, _, wnet in corpus:
            nodes = sorted(net.nodes)
            for source in nodes:
                for dest in nodes:
                    if dest == source:
                        continue
                    expected = enumerate_min_weight(wnet, source, dest)
                    if math.isinf(expected):
                        with pytest.raises(UnreachableError):
                            route(wnet, source, dest)
                        continue
                    rt = route(wnet, source, dest)
                    assert close(rt.total_weight, expected, REL_TOL), \
                        f"{source}->{dest}: route {rt.total_weight} != {expected}"
                    pairs_checked += 1
        elapsed = time.monotonic() - start
        assert pairs_checked > 1000
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_weight_formula_oracle():
    with criterion(2, "damage-average weighting vs direct arithmetic"):
        rng = random.Random(99)
        instances = 0
        while instances < 1000:
            net = random_network(rng, max_nodes=6)
            reg = random_registry(rng, net, max_potholes=8)
            wnet = preprocess(net, reg)
            for arc_id in sorted(net.arcs):
                depths = [r.depth_mm for r in reg.records.values() if r.arc == arc_id]
                if depths:
                    expected = (sum(depths) / len(depths)) * net.arcs[arc_id].length_m
                    assert close(wnet.arc_weights[arc_id], expected, REL_TOL)
                else:
                    assert wnet.arc_weights[arc_id] == 0.0
                instances += 1
        assert instances >= 1000


def test_criterion_3_incremental_equals_full():
    with criterion(3, "incremental re-weighting equals one-shot preprocessing"):
        rng = random.Random(321)
        for _ in range(100):
            net = random_network(rng, max_nodes=6)
            arc_ids = sorted(net.arcs)
            reg = PotholeRegistry(net)
            wnet = preprocess(net, reg)
            for i in range(rng.randint(0, 15)):
                arc = net.arcs[rng.choice(arc_ids)]
                ingest(reg, arc.id, round(rng.uniform(0, arc.length_m), 3),
                       round(rng.uniform(0, 80), 3), now=i)
                apply_update(wnet, arc.id, reg)
            full = preprocess(net, reg)
            for arc_id in arc_ids:
                assert close(wnet.arc_weights[arc_id], full.arc_weights[arc_id], REL_TOL)
            assert wnet.min_weights == full.min_weights


def test_criterion_4_pair_collapse_soundness(corpus):
    with criterion(4, "pair-minimum relaxation equals all-arc relaxation"):
        for net, _, wnet in corpus:
            for source in sorted(net.nodes):
                exact = dijkstra_all_arcs(wnet, source)
                for dest in sorted(net.nodes):
                    if dest not in exact:
                        with pytest.raises(UnreachableError):
                            route(wnet, source, dest)
                        continue
                    rt = route(wnet, source, dest)
                    assert exact_weight(wnet, rt.arcs) == exact[dest], f"{source}->{dest}"


def _range_world(offsets):
    net = build_net([("P", 0.0, 0.0), ("Q", 200.0, 0.0)],
                    [("h1", "P", "Q", 200.0)])
    vehicles = [{"id": vid, "start_arc": "h1", "start_offset_m": off,
                 "speed_mps": 0.0, "waypoints": []} for vid, off in offsets]
    scenario = scenario_from_dict(
        {"duration_ms": 1000, "seed": 1, "vehicles": vehicles}, net)
    return World(net, scenario, SimConfig())


def test_criterion_5_comms_constants():
    with criterion(5, "20 m warning radius and 500 ms loss timeout"):
        world = _range_world([("vs", 10.0), ("v15", 25.0),
                              ("v20", 30.0), ("v21", 30.1), ("v40", 50.0)])
        got = p2p_broadcast(world, "vs", "h1:99", 0)
        assert got == ["v15", "v20"]  # <= 20 m delivered, > 20 m not

        timeout = SimConfig().loss_timeout_ms  # what the simulation passes
        assert timeout == 500
        conn = ConnectionState(Phase.CONNECTED, last_activity_ms=1000, peer="ap1")
        assert step_connection(conn, None, 1400, timeout).phase == Phase.CONNECTED
        assert step_connection(conn, None, 1500, timeout).phase == Phase.CONNECTED
        assert step_connection(conn, None, 1501, timeout).phase == Phase.LOST
        assert step_connection(conn, None, 1600, timeout).phase == Phase.LOST
        lost = step_connection(conn, None, 1600, timeout)
        assert step_connection(lost, None, 1700, timeout).phase == Phase.SCANNING


def test_criterion_6_geocrypto_envelope():
    with criterion(6, "envelope round trip, tamper rejection, nonce freshness"):
        rng = random.Random(777)
        key = bytes(range(32))
        nonces = set()
        envelopes = []
        for i in range(10_000):
            n = 1 + i % 3
            report = PlainReport(
                DepthMap(1, n, 0.5, [float(rng.randint(0, 90)) for _ in range(n)]),
                IntensityImage(1, n, [rng.random() for _ in range(n)]),
                arc=f"a{i % 17}", offset_m=round(rng.uniform(0, 500), 3),
                vehicle_id=f"v{i % 5}", timestamp_ms=i)
            env = encrypt(report, key, rng)
            assert decrypt(env, key, report.location) == report
            nonces.add(env.nonce)
            envelopes.append((env, report.location))
        assert len(nonces) == 10_000

        for i in range(1_000):
            env, location = envelopes[rng.randrange(len(envelopes))]
            wire = bytearray(env.to_bytes())
            pos = rng.randrange(len(wire))
            wire[pos] ^= 1 << rng.randrange(8)
            with pytest.raises(GeocryptoError):
                decrypt(ReportEnvelope.from_bytes(bytes(wire)), key, location)


def test_criterion_7_end_to_end(tmp_path, capsys):
    with criterion(7, "3-vehicle / 2-AP / 5-pit scenario"):
        start = time.monotonic()
        net_file, scen_file = write_end_to_end(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--network", str(net_file),
                     "--scenario", str(scen_file), "--out-dir", str(out)]) == 0

        from potholesim.network import load_network
        net = load_network(net_file)
        registry = PotholeRegistry.read_csv(out / "registry.csv", net)
        assert len(registry) == 5  # every supra-threshold pit, exactly once

        with open(out / "maintenance_report.csv") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        ranked = [(int(r[0]), r[1], float(r[4]), int(r[5])) for r in rows]
        # ranked by intensity desc, then depth desc
        keys = [(-intensity, -depth) for _, _, depth, intensity in ranked]
        assert keys == sorted(keys)
        assert [pid for _, pid, _, _ in ranked] == ["3", "2", "1", "4", "5"]
        assert [i for _, _, _, i in ranked] == [3, 3, 3, 1, 1]

        wnet = preprocess(net, registry)
        most_damaged = max(sorted(net.arcs), key=lambda a: wnet.arc_weights[a])
        assert most_damaged == "ab"
        rt = route(wnet, "A", "D")
        oracle_best = enumerate_min_weight(wnet, "A", "D")
        assert close(rt.total_weight, oracle_best, REL_TOL)
        # the oracle finds a strictly better path avoiding the worst arc,
        # so the returned route must avoid it too
        via_damaged = wnet.arc_weights["ab"] + wnet.arc_weights["bd"]
        assert oracle_best < via_damaged
        assert most_damaged not in rt.arcs

        assert time.monotonic() - start < 10.0


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "same seed reproduces byte-identical outputs"):
        net_file, scen_file = write_end_to_end(tmp_path)
        digests = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(["simulate", "--network", str(net_file),
                         "--scenario", str(scen_file), "--out-dir", str(out)]) == 0
            digests.append({f: (out / f).read_bytes()
                            for f in ("trace.txt", "registry.csv", "events.csv",
                                      "maintenance_report.csv", "weighted_network.csv")})
        assert digests[0] == digests[1]
        assert len(digests[0]["trace.txt"]) > 0
