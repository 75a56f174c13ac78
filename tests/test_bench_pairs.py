import importlib.util
import json
from pathlib import Path

import pytest

_root = Path(__file__).resolve().parent.parent
_path = _root / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("parent, change, better, bound, past", [
    # a query_mix peak RSS of 36.2 -> 40.8 MiB is +12.7 %, past the 10 % bound
    (36.2, 40.8, "lower", 0.1, True),
    (36.2, 39.8, "lower", 0.1, False),
    (36.2, 30.0, "lower", 0.1, False),  # better by any amount
    (100.0, 125.0, "lower", 0.25, False),  # exactly at the bound
    (100.0, 125.1, "lower", 0.25, True),
    (100.0, 70.0, "higher", 0.25, True),
    (100.0, 200.0, "higher", 0.25, False),
    (100.0, 900.0, "lower", None, False),  # no bound: never flagged
])
def test_past_bound(parent, change, better, bound, past):
    assert bench_pairs.past_bound(parent, change, better, bound) is past


def test_traced_metrics_cover_the_loop_and_the_server_layers():
    per_layer = json.loads((_root / "BENCHMARK.json").read_text())["per_layer"]
    names = {m["name"] for m in bench_pairs.traced_metrics(per_layer)}
    for layer in ("comms.uplink", "detection.sweep", "detection.extract_potholes",
                  "server.receive_envelope", "server.query", "geocrypto.decrypt",
                  "registry.ingest_report", "weighting.preprocess", "weighting.apply_update",
                  "network.load_network", "scenario.load_scenario"):
        assert {f"{layer}.calls", f"{layer}.busy_s"} <= names
    assert {"comms.loop.self_s", "trace.pass_s"} <= names
    assert not [n for n in names if n.endswith(".us_p50") or n.startswith("routing.")
                or n == "server.receive_envelope.accepted"]
