"""Per-layer tracing for the traced benchmark run.

The tracer replaces each layer's public function with a timing wrapper at
the place the caller looks it up (a module global such as
`potholesim.comms.sweep`, or a class attribute such as `World.visible_ap`),
so the program itself is unchanged.  Each wrapped function yields
`<layer>.<function>.calls`, `.busy_s` and `.us_p50`; some also feed a count
taken from their arguments or result.  Nested wrapped calls are timed too,
but only the outermost ones are subtracted from the pass time to give the
event loop's self time.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter

# (metric prefix, "module" or "module:Class", attribute, count hook)
TARGETS = [
    ("comms.visible_ap", "potholesim.comms:World", "visible_ap", None),
    ("comms.step_connection", "potholesim.comms", "step_connection", None),
    ("comms.p2p_broadcast", "potholesim.comms", "p2p_broadcast",
     lambda c, r: c.update({"comms.p2p_broadcast.receivers": len(r)})),
    ("comms.uplink", "potholesim.comms", "uplink",
     lambda c, r: c.update({"comms.uplink.delivered": r})),
    ("detection.sweep", "potholesim.comms", "sweep",
     lambda c, r: c.update({"detection.sweep.cells": r[0].rows * r[0].cols})),
    ("detection.extract_potholes", "potholesim.comms", "extract_potholes", None),
    ("geocrypto.encrypt", "potholesim.comms", "encrypt",
     lambda c, r: c.update({"geocrypto.encrypt.bytes": len(r.ciphertext)})),
    ("geocrypto.decrypt", "potholesim.geocrypto", "decrypt", None),
    ("server.receive_envelope", "potholesim.server:Server", "receive_envelope",
     lambda c, r: c.update({"server.receive_envelope.rejected" if r is None
                            else "server.receive_envelope.accepted": 1})),
    ("server.query", "potholesim.server:Server", "query", None),
    ("registry.ingest_report", "potholesim.registry:PotholeRegistry", "ingest_report",
     lambda c, r: c.update({"registry.ingest_report.new_ids" if r[1]
                            else "registry.ingest_report.merges": 1})),
    ("weighting.preprocess", "potholesim.weighting", "preprocess", None),
    ("weighting.apply_update", "potholesim.weighting", "apply_update", None),
    ("routing.route", "potholesim.routing", "route", None),
    ("routing.modify_destination", "potholesim.comms", "modify_destination", None),
    ("maintenance.priority_report", "potholesim.maintenance", "priority_report", None),
    ("network.load_network", "potholesim.network", "load_network", None),
    ("scenario.load_scenario", "potholesim.scenario", "load_scenario", None),
]
EVENT_KINDS = ["MOVE", "DETECT", "P2P_BROADCAST", "PHASE_TIMEOUT", "UPLINK", "DEST_CHANGE"]
COUNTS = [f"comms.events.{k}" for k in EVENT_KINDS] + [
    "comms.p2p_broadcast.receivers", "comms.uplink.delivered", "detection.sweep.cells",
    "geocrypto.encrypt.bytes", "server.receive_envelope.accepted",
    "server.receive_envelope.rejected", "registry.ingest_report.merges",
    "registry.ingest_report.new_ids"]


def resolve(spec: str):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Collects call durations per wrapped function and counts per round."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {name: [] for name, *_ in TARGETS}
        self.counts: Counter = Counter()
        self.outer_s = 0.0          # outermost wrapped time since the last reset
        self._depth = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        samples = self.samples[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._depth -= 1
                samples.append(dt)
                if self._depth == 0:
                    self.outer_s += dt
            if count is not None:
                count(self.counts, result)
            return result
        return traced

    def install(self) -> None:
        for name, spec, attr, count in TARGETS:
            owner = resolve(spec)
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self, rounds: int, loop_self_s: list[float],
                traced_pass_s: list[float]) -> dict[str, float]:
        """Per-round figures: calls and busy time are totals over the run
        divided by the number of rounds."""
        out: dict[str, float] = {}
        for name, *_ in TARGETS:
            s = self.samples[name]
            out[f"{name}.calls"] = len(s) / rounds
            out[f"{name}.busy_s"] = sum(s) / rounds
            out[f"{name}.us_p50"] = statistics.median(s) * 1e6 if s else 0.0
        for name in COUNTS:
            out[name] = self.counts[name] / rounds
        out["comms.loop.self_s"] = statistics.median(loop_self_s)
        out["trace.pass_s"] = statistics.median(traced_pass_s)
        return out


def per_layer_units() -> dict[str, str]:
    """Metric name -> unit, in report order."""
    units = {}
    for name, *_ in TARGETS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s",
                      f"{name}.us_p50": "us"})
    units.update({name: "bytes" if name.endswith(".bytes") else "count" for name in COUNTS})
    units.update({"comms.loop.self_s": "s", "trace.pass_s": "s"})
    return units
