"""Shared test machinery: tiny builders, random instances, enumeration oracles.

The oracles here deliberately use brute force (DFS over simple paths,
per-cell scans) so they stay independent of the production code paths
they check.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from potholesim.detection import PotholeDetection
from potholesim.network import Arc, Node, StreetNetwork
from potholesim.registry import PotholeRegistry
from potholesim.weighting import WeightedNetwork


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


def enumerate_min_weight(wnet: WeightedNetwork, source: str, dest: str) -> float:
    """Exhaustive minimum path weight over simple node paths (pair-min arcs).

    Each hop's pair minimum is taken here from `arc_weights`, not from the
    production `min_weights`.  Returns math.inf when dest is unreachable.
    Accumulation is left-to-right, matching how a path's weight would be
    summed by hand.
    """
    if source == dest:
        return 0.0
    net = wnet.base
    best = math.inf

    def dfs(u: str, used: frozenset, acc: float) -> None:
        nonlocal best
        if acc > best:
            return
        for v in net.successors(u):
            if v in used:
                continue
            w = min(wnet.arc_weights[a.id] for a in net.arcs_between(u, v))
            if v == dest:
                best = min(best, acc + w)
            else:
                dfs(v, used | {v}, acc + w)

    dfs(source, frozenset({source}), 0.0)
    return best


def enumerate_best_route(wnet: WeightedNetwork, source: str, dest: str):
    """Exhaustive minimum over arc-level simple paths under the full
    tie-break hierarchy (weight, length, lexicographic arc-id sequence).

    Exact rational arithmetic; returns (weight, length, arcs) or None.
    Intended for small graphs only.
    """
    if source == dest:
        return (Fraction(0), Fraction(0), ())
    net = wnet.base
    best = None

    def dfs(u, used, acc_w, acc_l, arcs):
        nonlocal best
        if u == dest:
            cand = (acc_w, acc_l, tuple(arcs))
            if best is None or cand < best:
                best = cand
            return
        for arc in net.out_arcs(u):
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

    Nodes `n<row><col>` sit 50 m apart.  Each directed neighbour pair gets
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
    nodes = [{"id": f"n{r}{c}", "x": 50.0 * c, "y": 50.0 * r}
             for r in range(size) for c in range(size)]
    pairs = []
    for r in range(size):
        for c in range(size):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < size and c + dc < size:
                    length = rng.choice([50.0, 55.0, 60.0])
                    u, v = f"n{r}{c}", f"n{r + dr}{c + dc}"
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
    far = f"n{size - 1}{size - 1}"
    events = [{"t_ms": 1000, "kind": "DETECT", "vehicle": v["id"]} for v in vehicles[:4]]
    events += [
        {"t_ms": 9000, "kind": "DETECT", "vehicle": "v5"},
        {"t_ms": 8000, "kind": "DEST_CHANGE", "vehicle": "v4", "dest": far},
        {"t_ms": 12000, "kind": "DEST_CHANGE", "vehicle": "v4", "dest": "n00"},
        {"t_ms": 9000, "kind": "DEST_CHANGE", "vehicle": "v5", "dest": "n04"},
        {"t_ms": 15000, "kind": "DEST_CHANGE", "vehicle": "v5", "dest": None},
        {"t_ms": 21000, "kind": "DEST_CHANGE", "vehicle": "v6", "dest": "n40"},
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
