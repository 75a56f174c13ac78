"""Shared test machinery: tiny builders, random instances, enumeration oracles.

The oracles here deliberately use brute force (DFS over simple paths,
per-cell scans) so they stay independent of the production code paths
they check.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import hmac
import importlib.util
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from potholesim.comms import Phase, World, step_connection, uplink
from potholesim.config import MIN_CELL_M, SimConfig
from potholesim.detection import (DepthMap, GroundTruthSurface, IntensityImage,
                                  PotholeDetection, SensorValueError, cell_count,
                                  extract_potholes, sweep)
from potholesim.geocrypto import (LEN_FIELD, NONCE_LEN, TAG_LEN, EnvelopeFormatError,
                                  IntegrityError, LocationMismatchError, PlainReport,
                                  ReportEnvelope, _grid_to_dict, encrypt)
from potholesim.inputs import InputError
from potholesim.network import Arc, Node, StreetNetwork, UnknownArcError
from potholesim.registry import PotholeRegistry
from potholesim.routing import fmt_num
from potholesim.server import ErrorResponse, ServerStats, modify_destination
from potholesim.weighting import WeightedNetwork, preprocess


def build_net(nodes, arcs) -> StreetNetwork:
    """nodes: (id, x, y) triples; arcs: (id, tail, head, length_m) quadruples."""
    return StreetNetwork([Node(*n) for n in nodes], [Arc(*a) for a in arcs])


def ingest(reg: PotholeRegistry, arc: str, offset: float, depth: float,
           vid: str = "v", now: int = 0, intensity: float = 0.5):
    return reg.ingest_report(PotholeDetection(arc, offset, depth, intensity), vid, now)


def random_network(rng: random.Random, max_nodes: int = 8, max_parallel: int = 3,
                   pair_p: float = 0.3, min_nodes: int = 2) -> StreetNetwork:
    n = rng.randint(min_nodes, max_nodes)
    names = [f"n{i}" for i in range(n)]
    nodes = [(name, float(i * 10), 0.0) for i, name in enumerate(names)]
    arcs = []
    k = 0
    for u in names:
        for v in names:
            if u != v and rng.random() < pair_p:
                for _ in range(rng.randint(1, max_parallel)):
                    arcs.append((f"a{k}", u, v, round(rng.uniform(1.0, 50.0), 3)))
                    k += 1
    if not arcs:
        arcs.append(("a0", names[0], names[1], round(rng.uniform(1.0, 50.0), 3)))
    return build_net(nodes, arcs)


def random_registry(rng: random.Random, net: StreetNetwork,
                    max_potholes: int = 6) -> PotholeRegistry:
    reg = PotholeRegistry(net)
    arc_ids = sorted(net.arcs)
    for i in range(rng.randint(0, max_potholes)):
        arc = net.arcs[rng.choice(arc_ids)]
        ingest(reg, arc.id, round(rng.uniform(0.0, arc.length_m), 3),
               round(rng.uniform(0.0, 80.0), 3), vid=f"v{i}", now=i)
    return reg


def out_arcs_by_tail(net: StreetNetwork) -> dict[str, list[Arc]]:
    """Every node's out-arcs in arc-id order, built from `net.arcs` alone, so
    that no oracle shares the network's indexes with the router it checks."""
    out: dict[str, list[Arc]] = {node_id: [] for node_id in net.nodes}
    for arc_id in sorted(net.arcs):
        arc = net.arcs[arc_id]
        out[arc.tail].append(arc)
    return out


def enumerate_min_weight(wnet: WeightedNetwork, source: str, dest: str) -> float:
    """Exhaustive minimum path weight over simple node paths (pair-min arcs).

    Each hop's pair minimum is taken here from `arc_weights`, not from the
    production `min_weights`.  Returns math.inf when dest is unreachable.
    Accumulation is left-to-right, matching how a path's weight would be
    summed by hand.
    """
    if source == dest:
        return 0.0
    # node -> {head: the least weight of the arcs to it}
    hops: dict[str, dict[str, float]] = {}
    for u, arcs in out_arcs_by_tail(wnet.base).items():
        least = hops[u] = {}
        for arc in arcs:
            w = wnet.arc_weights[arc.id]
            least[arc.head] = min(least.get(arc.head, w), w)
    best = math.inf

    def dfs(u: str, used: frozenset, acc: float) -> None:
        nonlocal best
        if acc > best:
            return
        for v, w in sorted(hops[u].items()):
            if v in used:
                continue
            if v == dest:
                best = min(best, acc + w)
            else:
                dfs(v, used | {v}, acc + w)

    dfs(source, frozenset({source}), 0.0)
    return best


def dijkstra_all_arcs(wnet: WeightedNetwork, source: str) -> dict[str, Fraction]:
    """Exact least total weight from `source` to every node it reaches,
    relaxing every parallel arc on its own: the reference for `route`'s
    one relaxation per node pair.  Unreachable nodes are absent."""
    out = out_arcs_by_tail(wnet.base)
    dist = {source: Fraction(0)}
    settled: set[str] = set()
    heap: list[tuple[Fraction, str]] = [(Fraction(0), source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for arc in out[u]:
            cand = d + Fraction(wnet.arc_weights[arc.id])
            if arc.head not in dist or cand < dist[arc.head]:
                dist[arc.head] = cand
                heapq.heappush(heap, (cand, arc.head))
    return dist


def exact_weight(wnet: WeightedNetwork, arcs) -> Fraction:
    """Exact total weight of a sequence of arc ids."""
    return sum((Fraction(wnet.arc_weights[a]) for a in arcs), Fraction(0))


def enumerate_best_route(wnet: WeightedNetwork, source: str, dest: str):
    """Exhaustive minimum over arc-level simple paths under the full
    tie-break hierarchy (weight, length, lexicographic arc-id sequence).

    Exact rational arithmetic; returns (weight, length, arcs) or None.
    Intended for small graphs only.
    """
    if source == dest:
        return (Fraction(0), Fraction(0), ())
    out = out_arcs_by_tail(wnet.base)
    best = None

    def dfs(u, used, acc_w, acc_l, arcs):
        nonlocal best
        if u == dest:
            cand = (acc_w, acc_l, tuple(arcs))
            if best is None or cand < best:
                best = cand
            return
        for arc in out[u]:
            if arc.head in used:
                continue
            dfs(arc.head, used | {arc.head},
                acc_w + Fraction(wnet.arc_weights[arc.id]),
                acc_l + Fraction(arc.length_m), arcs + [arc.id])

    dfs(source, frozenset({source}), Fraction(0), Fraction(0), [])
    return best


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return a == b or math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


END_TO_END_NETWORK = {
    "nodes": [{"id": "A", "x": 0.0, "y": 0.0}, {"id": "B", "x": 100.0, "y": 0.0},
              {"id": "C", "x": 0.0, "y": 60.0}, {"id": "D", "x": 100.0, "y": 60.0}],
    "arcs": [{"id": "ab", "tail": "A", "head": "B", "length_m": 100.0},
             {"id": "bd", "tail": "B", "head": "D", "length_m": 60.0},
             {"id": "ac", "tail": "A", "head": "C", "length_m": 60.0},
             {"id": "cd", "tail": "C", "head": "D", "length_m": 100.0}],
}

END_TO_END_SCENARIO = {
    "duration_ms": 20_000,
    "seed": 2024,
    "vehicles": [
        {"id": "v1", "start_arc": "ab", "start_offset_m": 0.0,
         "speed_mps": 10.0, "waypoints": ["B", "D"]},
        {"id": "v2", "start_arc": "ab", "start_offset_m": 0.0,
         "speed_mps": 10.0, "waypoints": ["B", "D"]},
        {"id": "v3", "start_arc": "ac", "start_offset_m": 0.0,
         "speed_mps": 10.0, "waypoints": ["C", "D"]},
    ],
    "pits": [
        {"arc": "ab", "center_m": 20.0, "half_length_m": 1.0, "depth_mm": 50.0, "reflectivity": 0.4},
        {"arc": "ab", "center_m": 50.0, "half_length_m": 1.0, "depth_mm": 60.0, "reflectivity": 0.4},
        {"arc": "ab", "center_m": 80.0, "half_length_m": 1.0, "depth_mm": 70.0, "reflectivity": 0.4},
        {"arc": "bd", "center_m": 30.0, "half_length_m": 1.0, "depth_mm": 30.0, "reflectivity": 0.5},
        {"arc": "cd", "center_m": 50.0, "half_length_m": 1.0, "depth_mm": 20.0, "reflectivity": 0.6},
    ],
    "access_points": [
        {"id": "ap1", "x": 100.0, "y": 0.0, "range_m": 30.0, "open": True},
        {"id": "ap2", "x": 100.0, "y": 60.0, "range_m": 30.0, "open": True},
    ],
    "events": [
        {"t_ms": 1000, "kind": "DETECT", "vehicle": "v3"},
        {"t_ms": 2000, "kind": "DETECT", "vehicle": "v1"},
        {"t_ms": 2000, "kind": "DETECT", "vehicle": "v2"},
        {"t_ms": 4000, "kind": "DETECT", "vehicle": "v2"},
        {"t_ms": 8000, "kind": "DETECT", "vehicle": "v3"},
        {"t_ms": 12000, "kind": "DETECT", "vehicle": "v1"},
    ],
}


def write_inputs(tmp_path, network: dict, scenario: dict):
    """Write a network and a scenario as JSON files; returns both paths."""
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(network))
    scen_file = tmp_path / "scenario.json"
    scen_file.write_text(json.dumps(scenario))
    return net_file, scen_file


def write_end_to_end(tmp_path):
    """The 3-vehicle / 2-AP / 5-pit diamond scenario of acceptance criterion 7."""
    return write_inputs(tmp_path, END_TO_END_NETWORK, END_TO_END_SCENARIO)


def grid_inputs(seed: int = 5, size: int = 5) -> tuple[dict, dict]:
    """Seeded size x size grid of two-way streets and a scenario driving it.

    Nodes `n<row><col>` sit 50 m apart; row and column take two digits
    each once the grid is wider than ten.  Each directed neighbour pair gets
    one arc of 50, 55 or 60 m, and about a third of the pairs get a second,
    parallel arc of the same length, so clean parallel arcs tie on weight
    and length and only the arc id separates them.  Arc ids are shuffled
    so that id order does not follow the geometry.  Most arcs stay clean:
    pits sit on three vehicles' start arcs, which those vehicles sweep at
    t = 1 s, and two open access points stand at the heads of two of them.
    Destinations are set, changed and cleared after the uplinks have
    re-weighted the pitted arcs; the grid is strongly connected, so every
    destination is reachable, and every arc is longer than a scanner cell.
    """
    rng = random.Random(seed)
    digits = len(str(size - 1))

    def name(r: int, c: int) -> str:
        return f"n{r:0{digits}d}{c:0{digits}d}"

    nodes = [{"id": name(r, c), "x": 50.0 * c, "y": 50.0 * r}
             for r in range(size) for c in range(size)]
    pairs = []
    for r in range(size):
        for c in range(size):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < size and c + dc < size:
                    length = rng.choice([50.0, 55.0, 60.0])
                    u, v = name(r, c), name(r + dr, c + dc)
                    pairs.append((u, v, length))
                    pairs.append((v, u, length))
    specs = []
    for u, v, length in pairs:
        specs.append((u, v, length))
        if rng.random() < 0.35:
            specs.append((u, v, length))
    ids = list(range(len(specs)))
    rng.shuffle(ids)
    arcs = [{"id": f"e{k:03d}", "tail": u, "head": v, "length_m": length}
            for k, (u, v, length) in zip(ids, specs)]
    by_pair: dict[tuple[str, str], list[dict]] = {}
    for a in arcs:
        by_pair.setdefault((a["tail"], a["head"]), []).append(a)
    succ: dict[str, list[str]] = {}
    for u, v in sorted(by_pair):
        succ.setdefault(u, []).append(v)

    def walk(arc: dict, hops: int) -> list[str]:
        path = [arc["head"]]
        prev = arc["tail"]
        while len(path) <= hops:
            options = [v for v in succ[path[-1]] if v != prev]
            prev = path[-1]
            path.append(rng.choice(options))
        return path

    start_arcs = sorted(by_pair)
    vehicles = []
    for i in range(6):
        arc = min(by_pair[rng.choice(start_arcs)], key=lambda a: a["id"])
        vehicles.append({"id": f"v{i + 1}", "start_arc": arc["id"], "start_offset_m": 0.0,
                         "speed_mps": 10.0, "waypoints": walk(arc, 8)})
    by_id = {a["id"]: a for a in arcs}
    pits = []
    for vehicle in vehicles[:3]:
        arc = by_id[vehicle["start_arc"]]
        for _ in range(rng.randint(1, 2)):
            pits.append({"arc": arc["id"],
                         "center_m": round(rng.uniform(15.0, arc["length_m"] - 5.0), 1),
                         "half_length_m": 1.0,
                         "depth_mm": float(rng.randint(20, 70)), "reflectivity": 0.5})
    node_xy = {n["id"]: (n["x"], n["y"]) for n in nodes}
    aps = []
    for k, vehicle in enumerate(vehicles[:2]):
        x, y = node_xy[by_id[vehicle["start_arc"]]["head"]]
        aps.append({"id": f"ap{k + 1}", "x": x, "y": y, "range_m": 40.0, "open": True})
    far = name(size - 1, size - 1)
    events = [{"t_ms": 1000, "kind": "DETECT", "vehicle": v["id"]} for v in vehicles[:4]]
    events += [
        {"t_ms": 9000, "kind": "DETECT", "vehicle": "v5"},
        {"t_ms": 8000, "kind": "DEST_CHANGE", "vehicle": "v4", "dest": far},
        {"t_ms": 12000, "kind": "DEST_CHANGE", "vehicle": "v4", "dest": name(0, 0)},
        {"t_ms": 9000, "kind": "DEST_CHANGE", "vehicle": "v5", "dest": name(0, 4)},
        {"t_ms": 15000, "kind": "DEST_CHANGE", "vehicle": "v5", "dest": None},
        {"t_ms": 21000, "kind": "DEST_CHANGE", "vehicle": "v6", "dest": name(4, 0)},
        {"t_ms": 24000, "kind": "DEST_CHANGE", "vehicle": "v1", "dest": far},
    ]
    network = {"nodes": nodes, "arcs": arcs}
    scenario = {"duration_ms": 30_000, "seed": seed, "vehicles": vehicles, "pits": pits,
                "access_points": aps, "events": events}
    return network, scenario


def write_grid(tmp_path):
    """The seeded 5 x 5 grid scenario of `grid_inputs`."""
    return write_inputs(tmp_path, *grid_inputs())


def write_demo(tmp_path):
    """The inputs of `scripts/run_demo.py`, the README's diamond demo, read
    from the script itself so that the golden digests pin the demo as it
    ships."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_demo.py"
    spec = importlib.util.spec_from_file_location("run_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return write_inputs(tmp_path, demo.NETWORK, demo.SCENARIO)


# The access point that `ap_grid_inputs` places exactly its range away from
# the node where vehicle v1 comes to rest.
EXACT_AP = "apx"


def ap_grid_inputs(seed: int = 11, size: int = 6) -> tuple[dict, dict]:
    """Seeded access-point-heavy scenario on a size x size grid.

    Nodes `n<row><col>` sit 50 m apart from (-120, -120), so coordinates
    are negative and positive and vehicles cross many 80 m squares.  Every
    arc is 50 m long and vehicles drive at 10 or 12.5 m/s, so they reach
    nodes on 100 ms ticks.  Fourteen access points with ranges of 40-80 m
    overlap, nine open and five closed.  The open access point EXACT_AP
    stands (30, 40) m from node n22, with a 50 m range: v1 drives into
    n22 from n21 (outside that range) and stops there, exactly on its edge.
    No other open access point reaches n22; the closed one `apc` does,
    and is nearer.  Pits on the start arcs of five vehicles, v1 among them, swept twice,
    give the uplinks something to carry: v1's reports reach the server
    only through EXACT_AP.
    """
    rng = random.Random(seed)
    origin, step = -120.0, 50.0
    xy = {f"n{r}{c}": (origin + step * c, origin + step * r)
          for r in range(size) for c in range(size)}
    nodes = [{"id": n, "x": x, "y": y} for n, (x, y) in xy.items()]
    arcs = []
    for r in range(size):
        for c in range(size):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < size and c + dc < size:
                    u, v = f"n{r}{c}", f"n{r + dr}{c + dc}"
                    arcs.append({"id": f"{u}-{v}", "tail": u, "head": v, "length_m": step})
                    arcs.append({"id": f"{v}-{u}", "tail": v, "head": u, "length_m": step})
    succ: dict[str, list[str]] = {}
    for a in arcs:
        succ.setdefault(a["tail"], []).append(a["head"])

    vehicles = [{"id": "v1", "start_arc": "n20-n21", "start_offset_m": 0.0,
                 "speed_mps": 10.0, "waypoints": ["n21", "n22"]}]
    for i in range(2, 10):
        arc = rng.choice(arcs)
        path = [arc["head"]]
        prev = arc["tail"]
        while len(path) < 10:
            options = sorted(v for v in succ[path[-1]] if v != prev)
            prev = path[-1]
            path.append(rng.choice(options))
        vehicles.append({"id": f"v{i}", "start_arc": arc["id"], "start_offset_m": 0.0,
                         "speed_mps": rng.choice([10.0, 12.5]), "waypoints": path})

    pits = []
    for vehicle in vehicles[:5]:
        for slot in (12.0, 30.0):
            pits.append({"arc": vehicle["start_arc"], "center_m": slot + rng.randint(0, 5),
                         "half_length_m": 1.0, "depth_mm": float(rng.randint(20, 70)),
                         "reflectivity": 0.5})

    ex, ey = xy["n22"]
    aps = [{"id": EXACT_AP, "x": ex + 30.0, "y": ey + 40.0, "range_m": 50.0, "open": True},
           {"id": "apc", "x": ex + 10.0, "y": ey - 10.0, "range_m": 40.0, "open": False}]
    low, high = origin, origin + step * (size - 1)
    while len(aps) < 14:
        x, y = round(rng.uniform(low, high), 1), round(rng.uniform(low, high), 1)
        range_m = round(rng.uniform(40.0, 80.0), 1)
        is_open = len(aps) % 3 != 0
        if is_open and math.hypot(x - ex, y - ey) <= range_m + 5.0:
            continue  # at n22 only EXACT_AP (and closed ones) may be heard
        aps.append({"id": f"ap{len(aps):02d}", "x": x, "y": y, "range_m": range_m,
                    "open": is_open})

    events = [{"t_ms": t, "kind": "DETECT", "vehicle": v["id"]}
              for v in vehicles[:5] for t in (1000, 3000)]
    events += [{"t_ms": 20_000, "kind": "DETECT", "vehicle": v["id"]} for v in vehicles[5:]]
    network = {"nodes": nodes, "arcs": arcs}
    scenario = {"duration_ms": 40_000, "seed": seed, "vehicles": vehicles, "pits": pits,
                "access_points": aps, "events": events}
    return network, scenario


def write_ap_grid(tmp_path):
    """The seeded access-point-heavy scenario of `ap_grid_inputs`."""
    return write_inputs(tmp_path, *ap_grid_inputs())


def handover_inputs() -> tuple[dict, dict]:
    """Three vehicles on a 450 m two-way road between two open access points.

    ap1 reaches the first ~49 m of the road and ap2 the stretch from ~251 m
    to ~349 m, so a vehicle driving the road connects at one, holds the
    link through held scans and uplinks, hears nothing for seconds between
    the two, times out to LOST, scans and connects again at the other.  v1
    drives west to east and v3 east to west; v2 parks in ap1's range, where
    it stays CONNECTED to the end.  A closed access point lies between the
    two open ones.  Each vehicle sweeps pitted arcs both in and out of
    range, so some reports wait in the queue for the next link.
    """
    xs = {"A": 0.0, "B": 150.0, "C": 300.0, "D": 450.0}
    nodes = [{"id": n, "x": x, "y": 0.0} for n, x in xs.items()]
    arcs = []
    for u, v in (("A", "B"), ("B", "C"), ("C", "D")):
        arcs.append({"id": f"{u}{v}".lower(), "tail": u, "head": v, "length_m": 150.0})
        arcs.append({"id": f"{v}{u}".lower(), "tail": v, "head": u, "length_m": 150.0})
    vehicles = [
        {"id": "v1", "start_arc": "ab", "start_offset_m": 0.0, "speed_mps": 10.0,
         "waypoints": ["B", "C", "D"]},
        {"id": "v2", "start_arc": "ab", "start_offset_m": 10.0, "speed_mps": 0.0,
         "waypoints": ["B"]},
        {"id": "v3", "start_arc": "dc", "start_offset_m": 0.0, "speed_mps": 12.0,
         "waypoints": ["C", "B", "A"]},
    ]
    pits = [
        {"arc": "ab", "center_m": 20.0, "half_length_m": 1.0, "depth_mm": 45.0,
         "reflectivity": 0.4},
        {"arc": "ab", "center_m": 90.0, "half_length_m": 1.5, "depth_mm": 60.0,
         "reflectivity": 0.3},
        {"arc": "bc", "center_m": 100.0, "half_length_m": 1.0, "depth_mm": 35.0,
         "reflectivity": 0.5},
        {"arc": "dc", "center_m": 40.0, "half_length_m": 1.0, "depth_mm": 50.0,
         "reflectivity": 0.6},
        {"arc": "cb", "center_m": 75.0, "half_length_m": 2.0, "depth_mm": 25.0,
         "reflectivity": 0.5},
    ]
    aps = [
        {"id": "ap1", "x": 0.0, "y": 10.0, "range_m": 50.0, "open": True},
        {"id": "ap2", "x": 300.0, "y": 10.0, "range_m": 50.0, "open": True},
        {"id": "apx", "x": 150.0, "y": 0.0, "range_m": 80.0, "open": False},
    ]
    events = [
        {"t_ms": 1000, "kind": "DETECT", "vehicle": "v1"},
        {"t_ms": 2000, "kind": "DETECT", "vehicle": "v2"},
        {"t_ms": 3000, "kind": "DETECT", "vehicle": "v3"},
        {"t_ms": 18_000, "kind": "DETECT", "vehicle": "v1"},
        {"t_ms": 20_000, "kind": "DETECT", "vehicle": "v3"},
        {"t_ms": 36_000, "kind": "DETECT", "vehicle": "v2"},
    ]
    network = {"nodes": nodes, "arcs": arcs}
    scenario = {"duration_ms": 45_000, "seed": 3, "vehicles": vehicles, "pits": pits,
                "access_points": aps, "events": events}
    return network, scenario


def write_handover(tmp_path):
    """The two-access-point road scenario of `handover_inputs`."""
    return write_inputs(tmp_path, *handover_inputs())


def visible_ap_by_scan(world, vid: str, now_ms: int) -> str | None:
    """Reference for `World.visible_ap`: a scan over every access point.

    The nearest open access point within its range (closed bound), ties by
    id, except that the vehicle's current peer wins while it is in range.
    """
    x, y = world.vehicle_position(vid, now_ms)
    in_range = []
    for ap in world.aps.values():
        if not ap.open:
            continue
        dist = math.hypot(ap.x - x, ap.y - y)
        if dist <= ap.range_m:
            in_range.append((dist, ap.id))
    if not in_range:
        return None
    peer = world.vehicle(vid).conn.peer
    if peer is not None and any(ap_id == peer for _, ap_id in in_range):
        return peer
    return min(in_range)[1]


def vehicle_position_by_formula(world, vid: str, now_ms: int) -> tuple[float, float]:
    """Reference for `World.vehicle_position`: looks every node up afresh."""
    v = world.vehicle(vid)
    arc = world.net.arcs[v.arc]
    speed = 0.0 if v.stopped else v.speed_mps
    offset = min(v.offset_m + speed * (now_ms - v.at_ms) / 1000.0, arc.length_m)
    tail = world.net.nodes[arc.tail]
    head = world.net.nodes[arc.head]
    frac = offset / arc.length_m
    return (tail.x + (head.x - tail.x) * frac,
            tail.y + (head.y - tail.y) * frac)


def p2p_broadcast_by_scan(world, sender: str, pothole_key: str, now_ms: int) -> list[str]:
    """Reference for `p2p_broadcast`: every other vehicle, in id order, whose
    position by `vehicle_position_by_formula` lies within the broadcast
    radius of the sender's (closed bound) caches the warning."""
    sx, sy = vehicle_position_by_formula(world, sender, now_ms)
    receivers = []
    for vid in sorted(world.vehicles):
        x, y = vehicle_position_by_formula(world, vid, now_ms)
        if vid != sender and math.hypot(x - sx, y - sy) <= world.config.p2p_range_m:
            world.vehicles[vid].warning_cache.add(pothole_key)
            receivers.append(vid)
    return receivers


class SingleHeapSimulation:
    """Reference for `Simulation`: every event, PHASE_TIMEOUT included, goes
    through one heap of (t_ms, insertion seq, kind, payload) entries, and
    every DETECT sweeps its whole arc.

    The world is the production `World`, but its vehicle positions come from
    `vehicle_position_by_formula`, its access point lookups from
    `visible_ap_by_scan`, its broadcasts from `p2p_broadcast_by_scan` and
    its waypoint arcs from `out_arcs_by_tail`, so this reference shares no
    caching, indexing or bounds with the code it checks.
    """

    def __init__(self, net, scenario, config=SimConfig()):
        self.world = World(net, scenario, config)
        self.world.vehicle_position = functools.partial(vehicle_position_by_formula,
                                                        self.world)
        self.world.visible_ap = functools.partial(visible_ap_by_scan, self.world)
        self.config = config
        self.duration_ms = scenario.duration_ms
        self.trace: list[str] = []
        self._out = out_arcs_by_tail(net)
        self._heap: list = []
        self._seq = 0
        for ev in scenario.events:
            if ev.kind == "DEST_CHANGE":
                self._schedule(ev.t_ms, "DEST_CHANGE", ev.vehicle, ev.dest)
            else:
                self._schedule(ev.t_ms, "DETECT", ev.vehicle)
        for vid, v in self.world.vehicles.items():
            if v.speed_mps > 0:
                self._schedule_arrival(vid, 0)
            self._schedule(config.phase_latency_ms, "PHASE_TIMEOUT", vid)

    def _schedule(self, t_ms, kind, *payload):
        if t_ms >= self.duration_ms:
            return
        heapq.heappush(self._heap, (t_ms, self._seq, kind, payload))
        self._seq += 1

    def _schedule_arrival(self, vid, now_ms):
        v = self.world.vehicle(vid)
        remaining = self.world.net.arcs[v.arc].length_m - v.offset_m
        ms = remaining / v.speed_mps * 1000.0
        if ms < self.duration_ms:  # past the run: a subnormal speed makes it inf
            self._schedule(now_ms + int(round(ms)), "MOVE", vid)

    def _emit(self, t_ms, kind, details):
        self.trace.append(f"t={t_ms} {kind} {details}")

    def run(self):
        handlers = {
            "MOVE": self._on_move,
            "DETECT": self._on_detect,
            "P2P_BROADCAST": self._on_broadcast,
            "PHASE_TIMEOUT": self._on_phase_timeout,
            "UPLINK": self._on_uplink,
            "DEST_CHANGE": self._on_dest_change,
        }
        while self._heap:
            t, _, kind, payload = heapq.heappop(self._heap)
            handlers[kind](t, *payload)
        return self.world

    def _enter_arc(self, v, arc_id, now_ms):
        v.arc = arc_id
        v.offset_m = 0.0
        v.at_ms = now_ms
        v.stopped = False
        v.session.current_arc = arc_id
        self._schedule_arrival(v.id, now_ms)

    def _on_move(self, now_ms, vehicle):
        net = self.world.net
        v = self.world.vehicle(vehicle)
        node = net.arc(v.arc).head
        v.offset_m = net.arc(v.arc).length_m
        v.at_ms = now_ms
        if v.waypoints and v.waypoints[0] == node:
            v.waypoints.pop(0)
        s = v.session
        next_arc = None
        if s.destination is not None:
            if node == s.destination:
                s.clear()
            elif s.pending_arcs and net.arc(s.pending_arcs[0]).tail == node:
                next_arc = s.pending_arcs.pop(0)
        if next_arc is None and s.destination is None and v.waypoints:
            candidates = [a.id for a in self._out[node] if a.head == v.waypoints[0]]
            if candidates:
                next_arc = candidates[0]
        if next_arc is not None:
            self._enter_arc(v, next_arc, now_ms)
        else:
            v.stopped = True
        self._emit(now_ms, "MOVE", f"vehicle={vehicle} node={node} arc={next_arc or '-'}")

    def _on_detect(self, now_ms, vehicle):
        v = self.world.vehicle(vehicle)
        arc = self.world.net.arc(v.arc)
        detections = []
        if cell_count(arc.length_m, self.config.cell_m) >= 1:
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
                self._schedule(now_ms, "P2P_BROADCAST", vehicle, key)
        self._emit(now_ms, "DETECT",
                   f"vehicle={vehicle} arc={v.arc} reports={len(detections)} new={fresh}")

    def _on_broadcast(self, now_ms, vehicle, pothole):
        receivers = p2p_broadcast_by_scan(self.world, vehicle, pothole, now_ms)
        self._emit(now_ms, "P2P_BROADCAST",
                   f"vehicle={vehicle} pothole={pothole} "
                   f"receivers={','.join(receivers) or '-'}")

    def _on_phase_timeout(self, now_ms, vehicle):
        v = self.world.vehicle(vehicle)
        visible = self.world.visible_ap(vehicle, now_ms)
        v.conn = step_connection(v.conn, visible, now_ms, self.config.loss_timeout_ms)
        self._emit(now_ms, "PHASE_TIMEOUT",
                   f"vehicle={vehicle} phase={v.conn.phase} ap={v.conn.peer or '-'}")
        if v.conn.phase == Phase.CONNECTED and visible == v.conn.peer and v.queue:
            self._schedule(now_ms, "UPLINK", vehicle)
        self._schedule(now_ms + self.config.phase_latency_ms, "PHASE_TIMEOUT", vehicle)

    def _on_uplink(self, now_ms, vehicle):
        delivered = uplink(self.world, vehicle, now_ms)
        queued = len(self.world.vehicle(vehicle).queue)
        self._emit(now_ms, "UPLINK", f"vehicle={vehicle} delivered={delivered} queued={queued}")

    def _on_dest_change(self, now_ms, vehicle, dest):
        v = self.world.vehicle(vehicle)
        s = v.session
        if isinstance(modify_destination(s, dest), ErrorResponse):
            s.clear()
            self._emit(now_ms, "DEST_CHANGE", f"vehicle={vehicle} dest={dest} unreachable")
            return
        if dest is not None and v.stopped and v.speed_mps > 0:
            resting = self.world.net.arc(v.arc).head
            if s.destination == resting:
                s.clear()
            elif s.pending_arcs and self.world.net.arc(s.pending_arcs[0]).tail == resting:
                self._enter_arc(v, s.pending_arcs.pop(0), now_ms)
        self._emit(now_ms, "DEST_CHANGE", f"vehicle={vehicle} dest={dest or '-'}")


# -- envelope oracle ---------------------------------------------------------
# The envelope construction as first written: every subkey derived afresh on
# each call and the payload XORed one byte at a time.  `geocrypto` must give
# the same bytes, the same reports and the same error classes.

def _oracle_subkey(key: bytes, purpose: bytes) -> bytes:
    return hashlib.blake2b(purpose, key=key, digest_size=32).digest()


def _oracle_location_bytes(location) -> bytes:
    arc, offset = location
    return json.dumps([arc, float(offset)], separators=(",", ":")).encode()


def _oracle_location_tag(key: bytes, location) -> bytes:
    return hashlib.blake2b(_oracle_location_bytes(location),
                           key=_oracle_subkey(key, b"location-tag"),
                           digest_size=TAG_LEN).digest()


def _oracle_keystream(key: bytes, nonce: bytes, location, n: int) -> bytes:
    sub = _oracle_subkey(key, b"keystream")
    seed = nonce + _oracle_location_bytes(location)
    out = bytearray()
    counter = 0
    while len(out) < n:
        out += hashlib.blake2b(seed + counter.to_bytes(8, "big"),
                               key=sub, digest_size=64).digest()
        counter += 1
    return bytes(out[:n])


def _oracle_integrity_tag(key: bytes, nonce: bytes, loc_tag: bytes,
                          ciphertext: bytes) -> bytes:
    mac = hashlib.blake2b(key=_oracle_subkey(key, b"integrity"), digest_size=TAG_LEN)
    mac.update(nonce)
    mac.update(loc_tag)
    mac.update(len(ciphertext).to_bytes(LEN_FIELD, "big"))
    mac.update(ciphertext)
    return mac.digest()


def oracle_seal(payload: bytes, key: bytes, location, rng: random.Random) -> ReportEnvelope:
    """An authentic envelope of any payload bytes, bound to `location`."""
    if len(key) != 32:
        raise ValueError("shared key must be 32 bytes")
    nonce = rng.randbytes(NONCE_LEN)
    stream = _oracle_keystream(key, nonce, location, len(payload))
    ciphertext = bytes(p ^ s for p, s in zip(payload, stream))
    loc_tag = _oracle_location_tag(key, location)
    return ReportEnvelope(nonce, loc_tag, ciphertext,
                          _oracle_integrity_tag(key, nonce, loc_tag, ciphertext))


def oracle_encrypt(report: PlainReport, key: bytes, rng: random.Random) -> ReportEnvelope:
    """Reference for `geocrypto.encrypt`."""
    payload = json.dumps(_grid_to_dict(report), sort_keys=True,
                         separators=(",", ":")).encode()
    return oracle_seal(payload, key, report.location, rng)


def unchecked_grids(depths, intensities, cell_m: float = 0.5):
    """A one-row depth map and intensity image built without their cell
    checks: the grids a faulty or forged sender could seal."""
    dm, ii = object.__new__(DepthMap), object.__new__(IntensityImage)
    dm.__dict__.update(rows=1, cols=len(depths), cell_m=cell_m, depths=list(depths))
    ii.__dict__.update(rows=1, cols=len(intensities), values=list(intensities))
    return dm, ii


def _oracle_is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _oracle_cells(cells) -> list[float]:
    if not all(_oracle_is_number(cell) for cell in cells):
        raise TypeError("a grid has a cell that is not a number")
    return [float(cell) for cell in cells]


def _oracle_report_from_dict(raw: dict) -> PlainReport:
    """The report in a decoded payload, one list comprehension per grid: the
    decode `geocrypto.decrypt` must agree with on every payload, in the
    report it returns and in the error that refuses it.  The shape of the
    whole payload is checked first, then each grid's cells as it is built,
    then the other fields."""
    shape = {"depth_map": {"rows", "cols", "cell_m", "depths"},
             "intensity_image": {"rows", "cols", "values"},
             "arc": None, "offset_m": None, "vehicle_id": None, "timestamp_ms": None}
    if not isinstance(raw, dict) or set(raw) != set(shape):
        raise TypeError("the payload does not hold exactly the report's keys")
    for grid in ("depth_map", "intensity_image"):
        if not isinstance(raw[grid], dict) or set(raw[grid]) != shape[grid]:
            raise TypeError(f"{grid} does not hold exactly {sorted(shape[grid])}")
        if any(isinstance(raw[grid][k], bool) or not isinstance(raw[grid][k], int)
               for k in ("rows", "cols")):
            raise TypeError(f"{grid} has a size that is not an integer")
    dm, ii = raw["depth_map"], raw["intensity_image"]
    if not _oracle_is_number(dm["cell_m"]):
        raise TypeError("cell_m is not a number")
    cell_m = float(dm["cell_m"])
    if not (math.isfinite(cell_m) and cell_m >= MIN_CELL_M):
        raise ValueError("cell_m is not a finite number >= the finest scanner cell")
    depth_map = DepthMap(dm["rows"], dm["cols"], cell_m, _oracle_cells(dm["depths"]))
    intensity_image = IntensityImage(ii["rows"], ii["cols"], _oracle_cells(ii["values"]))
    if not isinstance(raw["arc"], str):
        raise TypeError("arc is not a string")
    offset = raw["offset_m"]
    if not _oracle_is_number(offset):
        raise TypeError("offset_m is not a number")
    if not isinstance(raw["vehicle_id"], str):
        raise TypeError("vehicle_id is not a string")
    if isinstance(raw["timestamp_ms"], bool) or not isinstance(raw["timestamp_ms"], int):
        raise TypeError("timestamp_ms is not an integer")
    return PlainReport(depth_map, intensity_image, raw["arc"], float(offset),
                       raw["vehicle_id"], raw["timestamp_ms"])


def oracle_decrypt(env: ReportEnvelope, key: bytes, claimed_location) -> PlainReport:
    """Reference for `geocrypto.decrypt`: field lengths, then the location
    tag, then integrity, then the keystream."""
    if len(key) != 32:
        raise ValueError("shared key must be 32 bytes")
    if len(env.nonce) != NONCE_LEN or len(env.location_tag) != TAG_LEN \
            or len(env.integrity_tag) != TAG_LEN:
        raise EnvelopeFormatError("envelope field lengths invalid")
    if not hmac.compare_digest(env.location_tag,
                               _oracle_location_tag(key, claimed_location)):
        raise LocationMismatchError("location tag check failed")
    expected = _oracle_integrity_tag(key, env.nonce, env.location_tag, env.ciphertext)
    if not hmac.compare_digest(env.integrity_tag, expected):
        raise IntegrityError("integrity tag check failed")
    stream = _oracle_keystream(key, env.nonce, claimed_location, len(env.ciphertext))
    payload = bytes(c ^ s for c, s in zip(env.ciphertext, stream))
    try:
        return _oracle_report_from_dict(json.loads(payload.decode()))
    except SensorValueError:
        raise
    # refusing three payloads is one change from the decode this copies,
    # which let their errors escape: a number that overflows (OverflowError:
    # an integer too large for a float), an arc that is not a string
    # (TypeError, later, from the registry's arc lookup) and nesting deeper
    # than the parser recurses (RecursionError); the others are the JSON
    # types of every field, which that decode converted with float() and
    # int(), or took as it came, and the keys beyond the encoder's, which it
    # ignored
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise IntegrityError(f"payload did not decode: {exc}") from exc


# -- intake oracle -----------------------------------------------------------

class OracleIntake:
    """Reference for `Server.receive_envelope`: `oracle_decrypt`, then
    `ingest_report`, then a full `preprocess` of the whole network."""

    def __init__(self, net: StreetNetwork, key: bytes):
        self.net, self.key = net, key
        self.registry = PotholeRegistry(net)
        self.wnet = preprocess(net, self.registry)
        self.stats = ServerStats()
        self.snapshot_seq = 0

    def receive(self, env: ReportEnvelope, claimed_location, vehicle_id: str, now_ms: int):
        try:
            report = oracle_decrypt(env, self.key, claimed_location)
        except EnvelopeFormatError:
            return self._reject("format")
        except LocationMismatchError:
            return self._reject("location")
        except IntegrityError:
            return self._reject("integrity")
        except SensorValueError:
            return self._reject("report")
        values = report.intensity_image.values
        detection = PotholeDetection(report.arc, report.offset_m,
                                     max(report.depth_map.depths), sum(values) / len(values))
        try:
            outcome = self.registry.ingest_report(detection, vehicle_id, now_ms)
        except (UnknownArcError, ValueError):
            return self._reject("report")
        self.wnet = preprocess(self.net, self.registry)
        self.stats.envelopes_accepted += 1
        self.snapshot_seq += 1
        return outcome

    def _reject(self, reason: str) -> None:
        name = f"rejected_{reason}"
        setattr(self.stats, name, getattr(self.stats, name) + 1)
        self.stats.envelopes_rejected += 1


# The field rules of `potholesim.inputs` as they stood before they were
# made to test the accepting case first: the reference the current rules
# must agree with on every value, result and message.

def _ref_name(where: str, key) -> str:
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def _ref_fail(item, key, where: str, rule: str):
    raise InputError(f"{_ref_name(where, key)} must be {rule}, got {item[key]!r}")


def ref_keys(obj, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object, got {obj!r}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise InputError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - obj.keys()
    if missing:
        raise InputError(f"missing keys {sorted(missing)} in {where}")


def ref_finite(item, key, where: str) -> float:
    value = item[key]
    number = value if type(value) in (int, float) else None
    try:
        if number is not None and math.isfinite(number):
            return float(number)
    except OverflowError:
        pass
    _ref_fail(item, key, where, "a finite number")


def ref_integer(item, key, where: str) -> int:
    if type(item[key]) is not int:
        _ref_fail(item, key, where, "an integer")
    return item[key]


def ref_string(item, key, where: str) -> str:
    value = item[key]
    if not isinstance(value, str) or not value:
        _ref_fail(item, key, where, "a non-empty string")
    if not value.isprintable():
        _ref_fail(item, key, where, "printable text")
    return value
