"""Tests of the benchmark itself: each check rejects a planted wrong answer,
the generators are seeded, and every workload runs end to end at smoke
size.

Run from the root of the repository:  python3 -m pytest perfbench
"""

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
from tracing import per_layer_units  # noqa: E402

# A -> B -> D and A -> C -> D, 10 m per arc, plus a 12 m parallel A -> B.
ARCS = {"ab": ("A", "B", 10.0), "ab2": ("A", "B", 12.0), "bd": ("B", "D", 10.0),
        "ac": ("A", "C", 10.0), "cd": ("C", "D", 10.0)}
WEIGHTS = {"ab": 5.0, "ab2": 0.0, "bd": 0.0, "ac": 0.0, "cd": 0.0}


def route(arcs, total_w=None, total_l=None):
    w = sum(WEIGHTS[a] for a in arcs) if total_w is None else total_w
    ln = sum(ARCS[a][2] for a in arcs) if total_l is None else total_l
    return ("A", "D", tuple(arcs), w, ln)


def test_route_check_accepts_the_optimum():
    assert checks.check_route(ARCS, WEIGHTS, "A", "D", route(["ac", "cd"])) == []
    assert checks.check_route(ARCS, WEIGHTS, "A", "A", ("A", "A", (), 0.0, 0.0)) == []


@pytest.mark.parametrize("planted", [
    route(["ab", "bd"]),                   # heavier
    route(["ab2", "bd"]),                  # same weight, longer
    route(["ac", "bd"]),                   # not connected
    route(["ac"]),                         # stops short
    route(["ac", "cd"], total_l=21.0),     # wrong reported length
    ("A", "B", ("ab2",), 0.0, 12.0),       # answers another query
])
def test_route_check_rejects_a_perturbed_route(planted):
    assert checks.check_route(ARCS, WEIGHTS, "A", "D", planted)


def test_route_check_against_the_program():
    from potholesim.network import Arc, Node, StreetNetwork
    from potholesim.registry import PotholeRegistry
    from potholesim.detection import PotholeDetection
    from potholesim.routing import route as program_route
    from potholesim.weighting import preprocess

    net = StreetNetwork([Node(n, 0.0, 0.0) for n in "ABCD"],
                        [Arc(a, t, h, ln) for a, (t, h, ln) in ARCS.items()])
    reg = PotholeRegistry(net)
    reg.ingest_report(PotholeDetection("cd", 4.0, 30.0, 0.5), "v", 0)
    wnet = preprocess(net, reg)
    rt = program_route(wnet, "A", "D")
    got = (rt.source, rt.dest, rt.arcs, rt.total_weight, rt.total_length_m)
    assert checks.check_route(ARCS, wnet.arc_weights, "A", "D", got) == []
    detour = ("A", "D", ("ac", "cd"), 300.0, 20.0)
    assert checks.check_route(ARCS, wnet.arc_weights, "A", "D", detour)


RECORDS = [("1", "ab", 2.0, 20.0), ("2", "ab", 8.0, 40.0), ("3", "cd", 5.0, 40.0)]


def test_weight_check_rejects_a_wrong_weight():
    right = {"ab": 300.0, "ab2": 0.0, "bd": 0.0, "ac": 0.0, "cd": 400.0}
    assert checks.check_weights(ARCS, right, RECORDS) == []
    for arc, wrong in (("ab", 600.0), ("ab2", 1e-9), ("cd", 399.0)):
        assert checks.check_weights(ARCS, dict(right, **{arc: wrong}), RECORDS)
    assert checks.check_condition(ARCS, "ab", 300.0, ("1", "2"), RECORDS) == []
    assert checks.check_condition(ARCS, "ab", 600.0, ("1", "2"), RECORDS)
    assert checks.check_condition(ARCS, "ab", 300.0, ("1",), RECORDS)


def test_ranking_check_rejects_a_swapped_ranking():
    # pothole 3 has two updates in the window, 1 and 2 one each (2 deeper)
    events = [("1", 100), ("3", 1_500), ("1", 30_000), ("2", 61_000), ("3", 61_000)]
    right = [(1, "3", 40.0, 2), (2, "2", 40.0, 1), (3, "1", 20.0, 1)]
    assert checks.check_ranking(right, RECORDS, events, 61_000) == []
    swapped = [right[0], right[2], right[1]]
    assert checks.check_ranking(swapped, RECORDS, events, 61_000)
    miscounted = [right[0], right[1], (3, "1", 20.0, 2)]
    assert checks.check_ranking(miscounted, RECORDS, events, 61_000)
    assert checks.check_ranking(right[:2], RECORDS, events, 61_000)


def test_registry_check_rejects_records_without_a_pit():
    pits = [{"arc": "ab", "center_m": 2.2, "depth_mm": 20.0},
            {"arc": "ab", "center_m": 8.0, "depth_mm": 40.0},
            {"arc": "cd", "center_m": 5.0, "depth_mm": 40.0},
            {"arc": "cd", "center_m": 9.0, "depth_mm": 5.0}]
    assert checks.check_registry(RECORDS, pits, 10.0, 0.5) == []
    for bad in (("4", "cd", 9.0, 5.0),      # shallower than the threshold
                ("4", "ab", 3.0, 20.0),     # more than a cell from the centre
                ("4", "ab", 2.1, 20.0)):    # the same pit twice
        assert checks.check_registry(RECORDS + [bad], pits, 10.0, 0.5)


@pytest.mark.parametrize("workload", ["fleet", "reroute", "query_mix"])
def test_generator_is_seeded(workload, tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.write_inputs(workload, seed, "smoke", tmp_path / name)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
               for f in files)
    assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes()
               for f in files)


def test_speedometer_scales_to_the_reference_speed(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(calib, "clock", lambda: now[0])
    meter = calib.Speedometer()
    meter.last = 2 * calib.PROBE_REF_S          # the host runs at half speed
    lap = meter.mark()
    now[0] += 0.010
    assert meter.since(lap) == pytest.approx(0.005)
    # two probes inside the interval: their time is not the work's, and
    # their mean sets the speed
    lap = meter.mark()
    now[0] += 0.010
    meter.spent += 0.002
    meter.total += 2 * 4 * calib.PROBE_REF_S
    meter.count += 2
    assert meter.since(lap) == pytest.approx(0.008 / 4)


def test_speedometer_samples_while_started_and_restores_the_signal():
    meter = calib.Speedometer()
    meter.start()
    try:
        lap = meter.mark()
        end = calib.clock() + 0.1
        while calib.clock() < end:
            calib.probe()
        assert meter.count > 0 and meter.since(lap) > 0
    finally:
        meter.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=HERE.parent, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["fleet", "reroute", "query_mix"])
def test_smoke_run_end_to_end(workload):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--size", "smoke")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_smoke_run_traced():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = run_bench("--workload", "reroute", "--seed", "3", "--seconds", "1", "--size", "smoke",
                    "--trace", "1")
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in bench["per_layer"]} == set(per_layer_units())
    assert out["metrics"]["routing.route.calls"]["value"] > 0
