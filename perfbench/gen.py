"""Seeded input generators for the three benchmark workloads.

Everything here is a pure function of (workload, seed, size): the same
arguments write byte-identical files.  The program under test only ever
sees those files.

Networks are square grids of two-way streets, SPACING_M apart, with some
parallel arcs (a second street between the same two corners, sometimes
shorter than the first, so the router's length tie-break matters).  The grid is
strongly connected, so no destination is unreachable, and every arc is
tens of meters long, far above one scanner cell.

Pits: a few arcs are heavily pitted, the rest are clean.  Pits on one arc
sit in separate slots PIT_SLOT_M apart, so they never overlap, their
centres lie far more than the dedup radius apart, and at least one clean
cell separates any two of them.  Every pit is either clearly deeper than
the detection threshold or clearly shallower, so the ground truth fixes
the registry the server must end up with.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SPACING_M = 50.0
PIT_SLOT_M = 7.0
PIT_MARGIN_M = 3.0
DEEP_MM = (15.0, 80.0)        # detected: well above the 10 mm threshold
SHALLOW_MM = (2.0, 8.0)       # never detected
PITS_PER_ARC = 6              # on every pitted arc, one of them shallow
PARALLEL_SHARE = 0.1          # street pairs with a second, parallel arc
REPORT_STEP_MS = 50           # query_mix: simulated time between operations

# Sizes per workload.  "full" is what the benchmark measures; "smoke" is
# the same shape, small enough for the benchmark's own tests.  query_* is
# the list of queries the simulate workloads answer after each run.  Every
# timed kind of query comes in an odd number, so that its median falls on one
# query rather than between two that cost different amounts.
SIZES = {
    "fleet": {
        "full": dict(grid=20, pitted_arcs=24, vehicles=120, duration_ms=30_000, aps=40,
                     detect_period_ms=3_000, dest_vehicles=0,
                     query_routes=5, query_conditions=61, query_reports=7),
        "smoke": dict(grid=6, pitted_arcs=4, vehicles=12, duration_ms=8_000, aps=6,
                      detect_period_ms=1_000, dest_vehicles=0,
                      query_routes=3, query_conditions=8, query_reports=2),
    },
    "reroute": {
        "full": dict(grid=30, pitted_arcs=12, vehicles=30, duration_ms=30_000, aps=30,
                     detect_period_ms=2_000, dest_vehicles=6,
                     query_routes=5, query_conditions=61, query_reports=7),
        "smoke": dict(grid=8, pitted_arcs=3, vehicles=6, duration_ms=8_000, aps=6,
                      detect_period_ms=1_000, dest_vehicles=2,
                      query_routes=2, query_conditions=8, query_reports=2),
    },
    "query_mix": {
        "full": dict(grid=20, pitted_arcs=80, reports=2_000, tampered=40, misplaced=40,
                     routes=13, conditions=301, priority_reports=13),
        "smoke": dict(grid=6, pitted_arcs=6, reports=120, tampered=4, misplaced=4,
                      routes=3, conditions=20, priority_reports=3),
    },
}

# Each vehicle with scripted destinations gets this cycle, in time order.
DEST_CYCLE = ("set", "change", "clear")


def node_id(r: int, c: int) -> str:
    return f"r{r:02d}c{c:02d}"


def grid_network(rng: random.Random, n: int) -> dict:
    nodes = [{"id": node_id(r, c), "x": c * SPACING_M, "y": r * SPACING_M}
             for r in range(n) for c in range(n)]
    arcs = []
    for r in range(n):
        for c in range(n):
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = r + dr, c + dc
                if r2 >= n or c2 >= n:
                    continue
                for tail, head in ((node_id(r, c), node_id(r2, c2)),
                                   (node_id(r2, c2), node_id(r, c))):
                    length = round(SPACING_M * rng.uniform(1.0, 1.2), 1)
                    arcs.append({"id": f"{tail}-{head}", "tail": tail, "head": head,
                                 "length_m": length})
                    if rng.random() < PARALLEL_SHARE:
                        arcs.append({"id": f"{tail}-{head}-p", "tail": tail, "head": head,
                                     "length_m": round(length * rng.uniform(0.9, 1.4), 1)})
    return {"nodes": nodes, "arcs": arcs}


def place_pits(rng: random.Random, network: dict, pitted_arcs: int) -> list[dict]:
    """PITS_PER_ARC pits on each of `pitted_arcs` random arcs, so every seed
    has the same number of deep pits."""
    long_enough = [a for a in network["arcs"]
                   if a["length_m"] >= 2 * PIT_MARGIN_M + PITS_PER_ARC * PIT_SLOT_M]
    pits = []
    for arc in sorted(rng.sample(long_enough, pitted_arcs), key=lambda a: a["id"]):
        slots = int((arc["length_m"] - 2 * PIT_MARGIN_M) // PIT_SLOT_M)
        shallow = rng.randrange(PITS_PER_ARC)
        for k, slot in enumerate(sorted(rng.sample(range(slots), PITS_PER_ARC))):
            centre = PIT_MARGIN_M + (slot + 0.5) * PIT_SLOT_M + rng.uniform(-1.0, 1.0)
            depth = rng.uniform(*(SHALLOW_MM if k == shallow else DEEP_MM))
            pits.append({"arc": arc["id"], "center_m": round(centre, 2),
                         "half_length_m": round(rng.uniform(0.4, 1.5), 2),
                         "depth_mm": round(depth, 1),
                         "reflectivity": round(rng.uniform(0.1, 0.6), 2)})
    return pits


def _adjacency(network: dict) -> dict[str, list[str]]:
    out: dict[str, set[str]] = {n["id"]: set() for n in network["nodes"]}
    for a in network["arcs"]:
        out[a["tail"]].add(a["head"])
    return {u: sorted(vs) for u, vs in out.items()}


def _random_walk(rng: random.Random, adj: dict[str, list[str]], prev: str,
                 start: str, steps: int) -> list[str]:
    walk = [start]
    while len(walk) < steps:
        here = walk[-1]
        onward = [v for v in adj[here] if v != prev] or adj[here]
        prev = here
        walk.append(rng.choice(onward))
    return walk


def _query_ops(rng: random.Random, network: dict, pits: list[dict], routes: int,
               conditions: int, report_times: list[int]) -> list[dict]:
    """Route and condition queries plus priority reports at fixed instants.

    Two in three condition queries ask about a pitted arc, so replies carry
    records and the median reply is one of those; route endpoints are
    distinct nodes.
    """
    node_ids = [n["id"] for n in network["nodes"]]
    arc_ids = [a["id"] for a in network["arcs"]]
    pitted = sorted({p["arc"] for p in pits})
    ops = []
    for _ in range(routes):
        source, dest = rng.sample(node_ids, 2)
        ops.append({"op": "route", "source": source, "dest": dest})
    for i in range(conditions):
        ops.append({"op": "condition", "arc": rng.choice(pitted if i % 3 else arc_ids)})
    ops.extend({"op": "priority", "at_ms": t} for t in report_times)
    return ops


def simulate_inputs(rng: random.Random, size: dict) -> dict[str, object]:
    """Network, scenario and end-of-run query list for fleet / reroute."""
    network = grid_network(rng, size["grid"])
    pits = place_pits(rng, network, size["pitted_arcs"])
    adj = _adjacency(network)
    arcs = network["arcs"]
    duration = size["duration_ms"]
    max_x = (size["grid"] - 1) * SPACING_M

    # One vehicle starts at the tail of each pitted arc, so its first DETECT
    # (within one period, before it can reach the head) seals a report of
    # every deep pit, and an open access point stands at the head of each
    # pitted arc to uplink them: every seed registers the same potholes.
    pitted = sorted({p["arc"] for p in pits})
    by_id = {a["id"]: a for a in arcs}
    nodes = {n["id"]: n for n in network["nodes"]}
    vehicles = []
    # enough waypoints that nobody runs out before the end at 14 m/s
    steps = int(duration / 1000 * 14 / SPACING_M) + 3
    for i in range(size["vehicles"]):
        if i < len(pitted):
            arc, offset = by_id[pitted[i]], 0.0
        else:
            arc = rng.choice(arcs)
            offset = round(rng.uniform(0.0, arc["length_m"] / 2), 1)
        vehicles.append({"id": f"v{i:03d}", "start_arc": arc["id"], "start_offset_m": offset,
                         "speed_mps": round(rng.uniform(8.0, 14.0), 1),
                         "waypoints": _random_walk(rng, adj, arc["tail"], arc["head"], steps)})

    heads = list(dict.fromkeys(by_id[a]["head"] for a in pitted))
    spots = [(nodes[n]["x"], nodes[n]["y"], True) for n in heads]
    spots += [(round(rng.uniform(0.0, max_x), 1), round(rng.uniform(0.0, max_x), 1),
               rng.random() < 0.85) for _ in range(size["aps"] - len(heads))]
    access_points = [{"id": f"ap{i:02d}", "x": x, "y": y,
                      "range_m": round(rng.uniform(40.0, 80.0), 1), "open": is_open}
                     for i, (x, y, is_open) in enumerate(spots)]

    period = size["detect_period_ms"]
    events = []
    for v in vehicles:
        t = rng.randrange(period)
        while t < duration:
            events.append({"t_ms": t, "kind": "DETECT", "vehicle": v["id"]})
            t += period

    # set -> change -> clear per scripted vehicle, spread over the run; each
    # new destination differs from the previous one, so every set/change
    # triggers exactly one route computation
    node_ids = [n["id"] for n in network["nodes"]]
    for v in rng.sample(vehicles, size["dest_vehicles"]):
        times = sorted(rng.sample(range(500, duration, 100), len(DEST_CYCLE)))
        dest = None
        for t, step in zip(times, DEST_CYCLE):
            if step == "clear":
                dest = None
            else:
                dest = rng.choice([n for n in node_ids if n != dest])
            events.append({"t_ms": t, "kind": "DEST_CHANGE", "vehicle": v["id"],
                           "dest": dest})
    events.sort(key=lambda e: (e["t_ms"], e["vehicle"], e["kind"]))

    scenario = {"duration_ms": duration, "seed": rng.randrange(2**31),
                "vehicles": vehicles, "pits": pits, "access_points": access_points,
                "events": events}
    n_reports = size["query_reports"]
    report_times = [duration * (k + 1) // n_reports for k in range(n_reports)]
    queries = _query_ops(rng, network, pits, size["query_routes"],
                         size["query_conditions"], report_times)
    return {"network.json": network, "scenario.json": scenario, "queries.json": queries}


def query_mix_inputs(rng: random.Random, size: dict) -> dict[str, object]:
    """Network, ground-truth pits and a sealed closed-loop operation stream.

    Reports are produced the way a vehicle produces them: the program's own
    sweep / extract_potholes over the whole arc, then encrypt, stored as
    ReportEnvelope.to_bytes hex.  A fixed number are tampered with (one
    ciphertext byte flipped) or claim a location other than the sealed one;
    both kinds must be rejected.
    """
    # imported here so that the simulate generators need no program
    from potholesim.config import SimConfig
    from potholesim.detection import (DepthMap, GroundTruthSurface, IntensityImage, Pit,
                                      extract_potholes, sweep)
    from potholesim.geocrypto import PlainReport, encrypt

    cfg = SimConfig()
    network = grid_network(rng, size["grid"])
    pits = place_pits(rng, network, size["pitted_arcs"])
    lengths = {a["id"]: a["length_m"] for a in network["arcs"]}
    detections = []
    for arc in sorted({p["arc"] for p in pits}):
        surface = GroundTruthSurface(arc, lengths[arc], [
            Pit(p["center_m"], p["half_length_m"], p["depth_mm"], p["reflectivity"])
            for p in pits if p["arc"] == arc])
        dm, ii = sweep(surface, (0.0, lengths[arc]), cfg.cell_m)
        detections.extend(extract_potholes(dm, ii, cfg.threshold_mm, arc, 0.0))

    kinds = ["report"] * size["reports"] + ["route"] * size["routes"] \
        + ["condition"] * size["conditions"]
    rng.shuffle(kinds)
    # priority reports at even spacing, so the update log they scan has the
    # same length on every seed
    n_reports = size["priority_reports"]
    for k in range(n_reports):
        kinds.insert((k + 1) * (len(kinds) + 1) // n_reports - 1, "priority")
    faults = ["tampered"] * size["tampered"] + ["misplaced"] * size["misplaced"]
    faults += ["intact"] * (size["reports"] - len(faults))
    rng.shuffle(faults)

    routes = _query_ops(rng, network, pits, size["routes"], 0, [])
    conds = _query_ops(rng, network, pits, 0, size["conditions"], [])
    nonce_rng = random.Random(rng.randrange(2**63))
    ops = []
    for i, kind in enumerate(kinds):
        now = 1_000 + i * REPORT_STEP_MS
        if kind == "route":
            ops.append(routes.pop())
        elif kind == "condition":
            ops.append(conds.pop())
        elif kind == "priority":
            ops.append({"op": "priority", "at_ms": now})
        else:
            det = rng.choice(detections)
            vehicle = f"v{rng.randrange(50):02d}"
            report = PlainReport(
                depth_map=DepthMap(1, len(det.cells_depth), cfg.cell_m, list(det.cells_depth)),
                intensity_image=IntensityImage(1, len(det.cells_intensity),
                                               list(det.cells_intensity)),
                arc=det.arc, offset_m=det.offset_m, vehicle_id=vehicle, timestamp_ms=now)
            raw = bytearray(encrypt(report, cfg.shared_key, nonce_rng).to_bytes())
            claimed = [det.arc, det.offset_m]
            fault = faults.pop()
            if fault == "tampered":
                raw[len(raw) // 2] ^= 0x40
            elif fault == "misplaced":
                claimed = [det.arc, det.offset_m + 2.5]
            ops.append({"op": "report", "envelope": raw.hex(), "claimed": claimed,
                        "vehicle": vehicle, "now_ms": now, "expect": fault == "intact"})
    return {"network.json": network, "pits.json": pits, "ops.json": ops}


def write_inputs(workload: str, seed: int, size_name: str, out_dir: Path) -> None:
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[workload][size_name]
    files = (query_mix_inputs if workload == "query_mix" else simulate_inputs)(rng, size)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (out_dir / name).write_text(json.dumps(content, separators=(",", ":")) + "\n")
