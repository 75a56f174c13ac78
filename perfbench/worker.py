"""One measured benchmark run, in a process of its own.

Reads the generated input files, runs one untimed check pass, then timed
rounds for `--seconds` (at least MIN_ROUNDS).  A round is a
fresh set-up (timed as `setup_s`) followed by one pass over the workload's
fixed operation list (timed as `pass_s`); every round must reproduce the
check pass's SHA-256 over the trace and all output rows.  Every time is
taken with calib.Speedometer, so it reads at the reference host speed.
Prints one JSON object as its last line.  run.py is the entry point; this script expects
the checkout's `src` on PYTHONPATH.

Usage: worker.py --workload W --inputs DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import calib
import checks
from tracing import Tracer

import potholesim
from potholesim import comms, maintenance, network, routing, scenario, weighting
from potholesim.config import SimConfig
from potholesim.geocrypto import ReportEnvelope
from potholesim.registry import PotholeRegistry
from potholesim.server import ConditionRequest, ErrorResponse, RouteRequest, Server

MIN_ROUNDS = 3
CONFIG = SimConfig()
clock = time.perf_counter
METER = calib.Speedometer()   # every time below is at the reference host speed


def load_json(path: Path):
    return json.loads(path.read_text())


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def arc_table(net_raw: dict) -> dict:
    return {a["id"]: (a["tail"], a["head"], a["length_m"]) for a in net_raw["arcs"]}


def record_tuples(registry: PotholeRegistry) -> list[tuple]:
    return [(r.id, r.arc, r.offset_m, r.depth_mm)
            for r in sorted(registry.records.values(), key=lambda r: int(r.id))]


def state_rows(registry: PotholeRegistry, weights: dict[str, float]) -> list[str]:
    rows = [repr(r) for r in sorted(registry.records.values(), key=lambda r: int(r.id))]
    rows += [repr(e) for e in registry.events]
    rows += [f"{a} {weights[a]!r}" for a in sorted(weights)]
    return rows


def decode_ops(raw_ops: list[dict]) -> list[tuple]:
    """(kind, argument, raw op) with envelopes parsed and requests built
    once, before any timing."""
    ops = []
    for op in raw_ops:
        kind = op["op"]
        if kind == "report":
            env = ReportEnvelope.from_bytes(bytes.fromhex(op["envelope"]))
            arg = (env, tuple(op["claimed"]), op["vehicle"], op["now_ms"])
        elif kind == "route":
            arg = RouteRequest(op["source"], op["dest"])
        elif kind == "condition":
            arg = ConditionRequest(op["arc"])
        else:
            arg = op["at_ms"]
        ops.append((kind, arg, op))
    return ops


def run_ops(server: Server, ops: list[tuple], lat: dict, on_result=None) -> tuple[list, int]:
    """Closed loop: each operation is sent when the previous one returned."""
    results = []
    failed = 0
    for kind, arg, raw in ops:
        if kind == "report":
            lap = METER.mark()
            result = server.receive_envelope(*arg)
            dt = METER.since(lap)
        elif kind == "priority":
            lap = METER.mark()
            result = maintenance.priority_report(server.registry, server.registry.events, arg)
            dt = METER.since(lap)
        else:
            lap = METER.mark()
            result = server.query(arg)
            dt = METER.since(lap)
            failed += isinstance(result, ErrorResponse)
        lat[kind].append(dt)
        results.append(result)
        if on_result is not None:
            on_result(kind, raw, result)
    return results, failed


def pass_times(lap, tracer: Tracer | None) -> tuple[float, float, float]:
    """The pass since `lap` at the reference speed, the time outside the
    outermost wrapped calls (traced runs), and reference / host time."""
    raw = clock() - lap[0]
    pass_s = METER.since(lap)
    speed = pass_s / raw
    return pass_s, (raw - tracer.outer_s) * speed if tracer else 0.0, speed


@dataclass
class Round:
    pass_s: float
    sha: str              # SHA-256 over the trace and every output row
    ops: int
    failed: int
    loop_self_s: float    # pass time outside wrapped functions (traced runs)
    speed: float          # pass time at the reference speed / host time


class RouteChecker:
    """Checks every call of `routing.route` while installed, whoever calls it
    (a DEST_CHANGE through modify_destination, or Server.query)."""

    def __init__(self, table: dict, errors: list[str]):
        self.table, self.errors, self.calls = table, errors, 0

    def __enter__(self):
        original = self.original = routing.route

        def checked(wnet, source, dest):
            rt = original(wnet, source, dest)
            self.calls += 1
            self.errors.extend(checks.check_route(
                self.table, wnet.arc_weights, source, dest,
                (rt.source, rt.dest, rt.arcs, rt.total_weight, rt.total_length_m)))
            return rt
        routing.route = checked
        return self

    def __exit__(self, *exc):
        routing.route = self.original


def query_checker(table: dict, records_now, events_now, errors: list[str]):
    """Checks the replies of condition queries and priority reports against
    the registry / update log as they stand when the reply is given."""
    def on_result(kind, raw, result):
        if kind in ("route", "condition") and isinstance(result, ErrorResponse):
            errors.append(f"{kind} {raw}: {result.message}")
        elif kind == "condition":
            errors.extend(checks.check_condition(table, raw["arc"], result.weight,
                                                 result.potholes, records_now()))
        elif kind == "priority":
            entries = [(e.rank, e.pothole_id, e.depth_mm, e.intensity_per_min) for e in result]
            errors.extend(checks.check_ranking(entries, records_now(), events_now(),
                                               raw["at_ms"]))
    return on_result


class Simulate:
    """fleet / reroute: Simulation.run over a generated scenario, then the
    query list (routes, conditions, priority reports) on the final state."""

    def __init__(self, inputs: Path):
        self.net_path = inputs / "network.json"
        self.scen_path = inputs / "scenario.json"
        self.table = arc_table(load_json(self.net_path))
        self.pits = load_json(self.scen_path)["pits"]
        self.queries = decode_ops(load_json(inputs / "queries.json"))

    def setup(self):
        net = network.load_network(self.net_path)
        return comms.Simulation(net, scenario.load_scenario(self.scen_path, net))

    def round(self, sim, lat: dict, tracer: Tracer | None = None, on_result=None) -> Round:
        server = sim.world.server
        receive, intake = server.receive_envelope, lat["report"]

        def timed_receive(*args):
            lap = METER.mark()
            result = receive(*args)
            intake.append(METER.since(lap))
            return result
        server.receive_envelope = timed_receive
        if tracer is not None:
            tracer.outer_s = 0.0
        lap = METER.mark()
        world = sim.run()
        pass_s, loop_self_s, speed = pass_times(lap, tracer)
        del server.receive_envelope
        if tracer is not None:
            tracer.counts.update(f"comms.events.{line.split(' ', 2)[1]}" for line in sim.trace)

        results, failed = run_ops(server, self.queries, lat, on_result)
        rows = list(sim.trace) + state_rows(server.registry, server.wnet.arc_weights)
        for vid in sorted(world.vehicles):
            rows.append(f"{vid} {world.vehicles[vid].session.display()!r}")
        rows += [repr(r) for r in results]
        return Round(pass_s, digest(rows), len(sim.trace) + len(self.queries), failed,
                     loop_self_s, speed)

    def check(self, sim) -> tuple[Round, list[str], dict]:
        errors: list[str] = []
        server = sim.world.server
        on_result = query_checker(self.table, lambda: record_tuples(server.registry),
                                  lambda: [(e.pothole_id, e.timestamp_ms)
                                           for e in server.registry.events], errors)
        with RouteChecker(self.table, errors) as routes:
            rnd = self.round(sim, defaultdict(list), on_result=on_result)
        records = record_tuples(server.registry)
        errors += checks.check_registry(records, self.pits, CONFIG.threshold_mm, CONFIG.cell_m)
        errors += checks.check_weights(self.table, server.wnet.arc_weights, records)
        kinds = Counter(line.split(" ", 2)[1] for line in sim.trace)
        sealed = sum(int(line.split("reports=")[1].split()[0])
                     for line in sim.trace if " DETECT " in line)
        stats = {"events": dict(sorted(kinds.items())), "envelopes_sealed": sealed,
                 "envelopes_accepted": server.stats.envelopes_accepted,
                 "envelopes_rejected": server.stats.envelopes_rejected,
                 "potholes_registered": len(records), "route_calls": routes.calls}
        return rnd, errors, stats


class QueryMix:
    """query_mix: one closed-loop client drives a Server directly."""

    def __init__(self, inputs: Path):
        self.net_path = inputs / "network.json"
        self.table = arc_table(load_json(self.net_path))
        self.pits = load_json(inputs / "pits.json")
        self.ops = decode_ops(load_json(inputs / "ops.json"))

    def setup(self) -> Server:
        net = network.load_network(self.net_path)
        registry = PotholeRegistry(net, CONFIG.dedup_radius_m)
        return Server(net, registry, weighting.preprocess(net, registry), CONFIG.shared_key)

    def round(self, server: Server, lat: dict, tracer: Tracer | None = None,
              on_result=None) -> Round:
        if tracer is not None:
            tracer.outer_s = 0.0
        lap = METER.mark()
        results, failed = run_ops(server, self.ops, lat, on_result)
        pass_s, loop_self_s, speed = pass_times(lap, tracer)
        rows = [repr(r) for r in results] + state_rows(server.registry, server.wnet.arc_weights)
        return Round(pass_s, digest(rows), len(self.ops), failed, loop_self_s, speed)

    def _truth_depth(self, arc: str, offset: float) -> float:
        return next(p["depth_mm"] for p in self.pits
                    if p["arc"] == arc and abs(p["center_m"] - offset) <= CONFIG.cell_m)

    def check(self, server: Server) -> tuple[Round, list[str], dict]:
        """Replays the stream against a model built from the ground truth:
        an intact report of a pit seen before merges into that pit's id, a
        new pit gets the next id, and a tampered or misplaced envelope is
        refused and changes nothing."""
        errors: list[str] = []
        ids: dict[tuple[str, float], str] = {}
        depths: dict[str, list[float]] = defaultdict(list)
        events: list[tuple[str, int]] = []
        merges = 0
        reg = server.registry
        answer_check = query_checker(self.table, lambda: record_tuples(reg),
                                     lambda: events, errors)

        def on_result(kind, raw, result):
            nonlocal merges
            if kind != "report":
                return answer_check(kind, raw, result)
            arc, offset = raw["claimed"]
            if raw["expect"]:
                is_new = (arc, offset) not in ids
                if is_new:
                    ids[(arc, offset)] = str(len(ids) + 1)
                    depths[arc].append(self._truth_depth(arc, offset))
                merges += not is_new
                want = (ids[(arc, offset)], is_new)
                events.append((want[0], raw["now_ms"]))
                if result != want:
                    errors.append(f"report at {raw['now_ms']}: got {result}, want {want}")
            elif result is not None:
                errors.append(f"report at {raw['now_ms']}: refused envelope accepted")
            if (len(reg.records), len(reg.events)) != (len(ids), len(events)):
                errors.append(f"report at {raw['now_ms']}: registry holds "
                              f"{len(reg.records)} records / {len(reg.events)} events, "
                              f"want {len(ids)} / {len(events)}")
            want_w = checks.expected_weight(self.table[arc][2], depths[arc])
            if not math.isclose(server.wnet.arc_weights[arc], want_w, rel_tol=checks.REL_TOL):
                errors.append(f"report at {raw['now_ms']}: arc {arc} weighs "
                              f"{server.wnet.arc_weights[arc]}, want {want_w}")

        with RouteChecker(self.table, errors) as routes:
            rnd = self.round(server, defaultdict(list), on_result=on_result)
        records = record_tuples(reg)
        errors += checks.check_registry(records, self.pits, CONFIG.threshold_mm, CONFIG.cell_m)
        errors += checks.check_weights(self.table, server.wnet.arc_weights, records)
        stats = {"operations": dict(Counter(kind for kind, _, _ in self.ops)),
                 "envelopes_sealed": sum(kind == "report" for kind, _, _ in self.ops),
                 "envelopes_accepted": server.stats.envelopes_accepted,
                 "envelopes_rejected": server.stats.envelopes_rejected,
                 "dedup_merges": merges, "potholes_registered": len(records),
                 "route_calls": routes.calls}
        return rnd, errors, stats


WORKLOADS = {"fleet": Simulate, "reroute": Simulate, "query_mix": QueryMix}


def summary(samples: list[float], scale: float) -> dict:
    """Median with its sample count, plus the highest of p99.9 / p99 / p90 /
    p75 that has at least ten samples beyond it (none under 40 samples)."""
    s = sorted(samples)
    n = len(s)
    out = {"p50": statistics.median(s) * scale if s else 0.0, "n": n}
    for p in (99.9, 99.0, 90.0, 75.0):
        if n >= 40 and n * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = s[math.ceil(p / 100 * n) - 1] * scale
            break
    return out


def measure(workload: str, inputs: Path, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload](inputs)
    METER.start()
    try:
        return timed_rounds(wl, seconds, trace)
    finally:
        METER.stop()


def timed_rounds(wl, seconds: float, trace: bool) -> dict:
    ref, errors, stats = wl.check(wl.setup())

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    lat: dict[str, list[float]] = defaultdict(list)
    setup_s, pass_s, host_pass_s, loop_self_s = [], [], [], []
    attempted = failed = mismatched = 0
    # stop before a round that would end after the deadline, so a run lasts
    # --seconds at most (beyond its first MIN_ROUNDS)
    deadline = clock() + seconds
    round_s = 0.0
    while len(pass_s) < MIN_ROUNDS or clock() + round_s < deadline:
        gc.collect()
        t0 = clock()
        marks = {name: len(s) for name, s in tracer.samples.items()} if tracer else {}
        lap = METER.mark()
        state = wl.setup()
        setup_s.append(METER.since(lap))
        rnd = wl.round(state, lat, tracer)
        round_s = clock() - t0
        # the wrappers time host time: bring this round's to the pass's speed
        for name, start in marks.items():
            samples = tracer.samples[name]
            samples[start:] = [dt * rnd.speed for dt in samples[start:]]
        pass_s.append(rnd.pass_s)
        host_pass_s.append(rnd.pass_s / rnd.speed)
        loop_self_s.append(rnd.loop_self_s)
        attempted += rnd.ops
        failed += rnd.failed
        mismatched += rnd.sha != ref.sha
    if tracer is not None:
        tracer.uninstall()
    if mismatched:
        errors.append(f"{mismatched} of {len(pass_s)} timed passes did not reproduce "
                      f"the check pass's output digest")

    summaries = {"pass_s": summary(pass_s, 1.0), "setup_s": summary(setup_s, 1.0),
                 "intake_us_p50": summary(lat["report"], 1e6),
                 "route_ms_p50": summary(lat["route"], 1e3),
                 "condition_us_p50": summary(lat["condition"], 1e6),
                 "report_ms_p50": summary(lat["priority"], 1e3)}
    if tracer is not None:
        metrics = tracer.metrics(len(pass_s), loop_self_s, pass_s)
    else:
        metrics = {name: s["p50"] for name, s in summaries.items()}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics, "summaries": summaries, "stats": stats,
            "rounds": len(pass_s), "probe_us": METER.total / max(METER.count, 1) * 1e6,
            "host_pass_s": statistics.median(host_pass_s),
            "errors": errors[:20], "error_count": len(errors)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(potholesim.__file__).resolve().parent.parent != src:
        print(f"error: potholesim imported from {potholesim.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    print(json.dumps(measure(args.workload, args.inputs, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
