import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import enumerate_best_route, grid_inputs, write_inputs
from potholesim import Simulation, load_network, load_scenario
from potholesim.cli import main

NETWORK = {
    "nodes": [{"id": "A", "x": 0.0, "y": 0.0}, {"id": "B", "x": 100.0, "y": 0.0},
              {"id": "C", "x": 0.0, "y": 60.0}, {"id": "D", "x": 100.0, "y": 60.0}],
    "arcs": [{"id": "ab", "tail": "A", "head": "B", "length_m": 100.0},
             {"id": "bd", "tail": "B", "head": "D", "length_m": 60.0},
             {"id": "ac", "tail": "A", "head": "C", "length_m": 60.0},
             {"id": "cd", "tail": "C", "head": "D", "length_m": 100.0}],
}

SCENARIO = {
    "duration_ms": 14_000,
    "seed": 11,
    "vehicles": [{"id": "v1", "start_arc": "ab", "start_offset_m": 0.0,
                  "speed_mps": 10.0, "waypoints": ["B", "D"]}],
    "pits": [{"arc": "ab", "center_m": 50.0, "half_length_m": 1.0,
              "depth_mm": 40.0, "reflectivity": 0.5}],
    "access_points": [{"id": "ap1", "x": 100.0, "y": 0.0,
                       "range_m": 30.0, "open": True}],
    "events": [{"t_ms": 1000, "kind": "DETECT", "vehicle": "v1"}],
}

# SCENARIO with a route to D set at t=2000 and cleared at t=9000
FUZZ_SCENARIO = dict(SCENARIO, events=SCENARIO["events"] + [
    {"t_ms": 2000, "kind": "DEST_CHANGE", "vehicle": "v1", "dest": "D"},
    {"t_ms": 9000, "kind": "DEST_CHANGE", "vehicle": "v1", "dest": None}])


@pytest.fixture
def files(tmp_path):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(NETWORK))
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(SCENARIO))
    return net, scen, tmp_path


def cli_in_an_ascii_locale(*args):
    """The command line run in a process whose locale encoding is ASCII."""
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, "-m", "potholesim.cli", *args], env=env,
                          capture_output=True, check=False)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_minimal_scenario(self, files):
        net, scen, tmp = files
        out = tmp / "out"
        rc = main(["simulate", "--network", str(net), "--scenario", str(scen),
                   "--out-dir", str(out)])
        assert rc == 0
        rows = read_csv(out / "registry.csv")
        assert len(rows) == 1
        assert rows[0]["arc_id"] == "ab" and float(rows[0]["depth_mm"]) == 40.0
        assert (out / "trace.txt").exists()
        assert (out / "route_v1.txt").read_text().startswith("DISPLAY ")
        weighted = {r["arc_id"]: float(r["weight"]) for r in read_csv(out / "weighted_network.csv")}
        assert weighted["ab"] == 4000.0 and weighted["bd"] == 0.0
        report = read_csv(out / "maintenance_report.csv")
        assert [r["rank"] for r in report] == ["1"]

    def test_zero_duration(self, files):
        net, scen, tmp = files
        empty = json.loads((scen).read_text())
        empty.update({"duration_ms": 0, "events": []})
        scen0 = tmp / "zero.json"
        scen0.write_text(json.dumps(empty))
        out = tmp / "out0"
        assert main(["simulate", "--network", str(net), "--scenario", str(scen0),
                     "--out-dir", str(out)]) == 0
        assert (out / "trace.txt").read_bytes() == b""
        assert read_csv(out / "registry.csv") == []

    def test_byte_identical_outputs(self, files):
        net, scen, tmp = files
        outs = []
        for name in ("r1", "r2"):
            out = tmp / name
            assert main(["simulate", "--network", str(net), "--scenario", str(scen),
                         "--out-dir", str(out)]) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0] == outs[1]

    def test_seed_override_accepted(self, files):
        net, scen, tmp = files
        out = tmp / "seeded"
        assert main(["simulate", "--network", str(net), "--scenario", str(scen),
                     "--out-dir", str(out), "--seed", "99"]) == 0
        assert (out / "registry.csv").exists()

    def test_bad_scenario_exits_one(self, files, capsys):
        net, _, tmp = files
        bad = tmp / "bad.json"
        bad.write_text("{")
        rc = main(["simulate", "--network", str(net), "--scenario", str(bad),
                   "--out-dir", str(tmp / "nope")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value, named", [
        ("access_points", [dict(SCENARIO["access_points"][0], range_m=float("nan"))],
         "access_points[0].range_m must be a finite number, got nan"),
        ("access_points", [dict(SCENARIO["access_points"][0], x=float("inf"))],
         "access_points[0].x must be a finite number, got inf"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], speed_mps=float("nan"))],
         "vehicles[0].speed_mps must be a finite number, got nan"),
        ("vehicles", [1], "vehicles[0] must be an object, got 1"),
        ("events", None, "'events' must be a list, got None"),
        ("duration_ms", "5000", "duration_ms must be an integer, got '5000'"),
        ("seed", True, "seed must be an integer, got True"),
        ("events", [dict(SCENARIO["events"][0], t_ms=None)],
         "events[0].t_ms must be an integer, got None"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], start_offset_m=None)],
         "vehicles[0].start_offset_m must be a finite number, got None"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], waypoints=5)],
         "vehicles[0].waypoints must be a list, got 5"),
        ("pits", [dict(SCENARIO["pits"][0], depth_mm=float("nan"))],
         "pits[0].depth_mm must be a finite number, got nan"),
        ("pits", [dict(SCENARIO["pits"][0], half_length_m=-1.0)],
         "pits[0].half_length_m must be >= 0, got -1.0"),
        ("pits", [dict(SCENARIO["pits"][0], arc="zz")], "pits[0].arc: unknown arc 'zz'"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], start_arc="zz")],
         "vehicles[0].start_arc: unknown arc 'zz'"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], waypoints=["B", "zz"])],
         "vehicles[0].waypoints[1]: unknown node 'zz'"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], waypoints=["B", ["A"]])],
         "vehicles[0].waypoints[1] must be a non-empty string, got ['A']"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], waypoints=["B", {"k": "A"}])],
         "vehicles[0].waypoints[1] must be a non-empty string, got {'k': 'A'}"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], waypoints=["B", float("nan")])],
         "vehicles[0].waypoints[1] must be a non-empty string, got nan"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], waypoints=["B", True])],
         "vehicles[0].waypoints[1] must be a non-empty string, got True"),
        ("events", [{"t_ms": 1000, "kind": "DEST_CHANGE", "vehicle": "v1", "dest": "zz"}],
         "events[0].dest: unknown node 'zz'"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], id=[1])],
         "vehicles[0].id must be a non-empty string, got [1]"),
        ("access_points", [dict(SCENARIO["access_points"][0], id=[1])],
         "access_points[0].id must be a non-empty string, got [1]"),
        ("events", [dict(SCENARIO["events"][0], vehicle=[1])],
         "events[0].vehicle must be a non-empty string, got [1]"),
        ("access_points", [dict(SCENARIO["access_points"][0], open="no")],
         "access_points[0].open must be true or false, got 'no'"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], speed_mps=10**400)],
         f"vehicles[0].speed_mps must be a finite number, got {10**400}"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], id="")],
         "vehicles[0].id must be a non-empty string, got ''"),
        ("access_points", [dict(SCENARIO["access_points"][0], id="")],
         "access_points[0].id must be a non-empty string, got ''"),
        ("pits", [dict(SCENARIO["pits"][0], depth_mm=-1)],
         "pits[0].depth_mm must be >= 0, got -1"),
        ("pits", [dict(SCENARIO["pits"][0], reflectivity=1.5)],
         "pits[0].reflectivity must be in [0, 1], got 1.5"),
        ("pits", [SCENARIO["pits"][0], dict(SCENARIO["pits"][0], center_m=99.5)],
         "pits[1].center_m must be at least half_length_m (1.0) from both ends of arc 'ab' "
         "of length_m 100.0, got 99.5"),
        *(("vehicles", [dict(SCENARIO["vehicles"][0], id=vid)],
           "vehicles[0].id must be free of '/', with route_<id>.txt at most 255 UTF-8 "
           f"bytes, got {vid!r}") for vid in ("a/b", "/", "v" * 246, "\u00e9" * 123)),
    ], ids=["nan-ap-range", "inf-ap-x", "nan-speed", "non-object-vehicle", "null-events",
            "string-duration", "bool-seed", "null-t-ms", "null-start-offset", "number-waypoints",
            "nan-depth", "negative-half-length", "unknown-pit-arc", "unknown-start-arc",
            "unknown-waypoint", "list-waypoint", "object-waypoint", "nan-waypoint",
            "true-waypoint", "unknown-dest", "list-vehicle-id", "list-ap-id",
            "list-event-vehicle", "string-open", "huge-speed", "empty-vehicle-id",
            "empty-ap-id", "negative-depth", "reflectivity-above-one", "pit-past-arc-end",
            "slash-in-vehicle-id", "slash-only-vehicle-id", "256-byte-route-file-name",
            "256-utf8-byte-route-file-name"])
    def test_malformed_scenario_exits_one_naming_the_field(self, files, capsys,
                                                            section, value, named):
        net, _, tmp = files
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(dict(SCENARIO, **{section: value})))
        rc = main(["simulate", "--network", str(net), "--scenario", str(bad),
                   "--out-dir", str(tmp / "nope")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("vid", ["v" * 245, "\u00e9" * 122 + "v"],
                             ids=["255-byte-name", "255-utf8-byte-name"])
    def test_longest_vehicle_id_names_its_route_file(self, files, vid):
        net, _, tmp = files
        scenario = tmp / "long.json"
        scenario.write_text(json.dumps(dict(SCENARIO, events=[],
                                            vehicles=[dict(SCENARIO["vehicles"][0], id=vid)])))
        out = tmp / "out"
        assert main(["simulate", "--network", str(net), "--scenario", str(scenario),
                     "--out-dir", str(out)]) == 0
        assert (out / f"route_{vid}.txt").read_text(encoding="utf-8").startswith("DISPLAY ")

    @pytest.mark.parametrize("edits, named", [
        ([("nodes", None, {"id": "A", "x": 1.0, "y": 1.0})],
         "nodes[4].id: duplicate node id 'A'"),
        ([("nodes", 1, {"x": float("nan")})], "nodes[1].x must be a finite number, got nan"),
        ([("arcs", None, {"id": "ab", "tail": "B", "head": "C", "length_m": 1.0})],
         "arcs[4].id: duplicate arc id 'ab'"),
        ([("arcs", 0, {"tail": "ghost"})], "arcs[0].tail: unknown node 'ghost'"),
        ([("arcs", 0, {"head": "ghost"})], "arcs[0].head: unknown node 'ghost'"),
        ([("arcs", 0, {"tail": ["A"]})], "arcs[0].tail must be a non-empty string, got ['A']"),
        ([("arcs", 0, {"tail": {"k": "A"}})],
         "arcs[0].tail must be a non-empty string, got {'k': 'A'}"),
        ([("arcs", 0, {"tail": 1})], "arcs[0].tail must be a non-empty string, got 1"),
        ([("arcs", 0, {"head": ["B"]})], "arcs[0].head must be a non-empty string, got ['B']"),
        ([("arcs", 0, {"head": {"k": "B"}})],
         "arcs[0].head must be a non-empty string, got {'k': 'B'}"),
        ([("arcs", 0, {"head": 1})], "arcs[0].head must be a non-empty string, got 1"),
        ([("arcs", 0, {"head": "A"})],
         "arcs[0].head must differ from its tail (no self-loops), got 'A'"),
        ([("arcs", 1, {"length_m": -3.0})], "arcs[1].length_m must be > 0, got -3.0"),
        ([("arcs", 1, {"length_m": 0})], "arcs[1].length_m must be > 0, got 0.0"),
    ], ids=["duplicate-node", "nan-x", "duplicate-arc", "unknown-tail", "unknown-head",
            "list-tail", "object-tail", "int-tail", "list-head", "object-head", "int-head",
            "self-loop", "negative-length", "zero-length"])
    def test_malformed_network_exits_one_naming_the_field(self, files, capsys, edits, named):
        # the coordinate-overflow rule: test_overflowing_arc_geometry_exits_one_naming_the_arc
        _, scen, tmp = files
        network = copy.deepcopy(NETWORK)
        for section, index, fields in edits:  # index None: a new record
            if index is None:
                network[section].append(fields)
            else:
                network[section][index].update(fields)
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(network))
        rc = main(["simulate", "--network", str(bad), "--scenario", str(scen),
                   "--out-dir", str(tmp / "nope")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("which, content, named", [
        ("network", json.dumps(dict(NETWORK, nodes=[NETWORK["nodes"][0],
                                                    dict(NETWORK["nodes"][1], x=10**400)])),
         "nodes[1].x must be a finite number, got 1000"),
        ("network", json.dumps(dict(NETWORK, arcs=[dict(NETWORK["arcs"][0], id="")])),
         "arcs[0].id must be a non-empty string, got ''"),
        ("network", b"[" * 200_000, ": invalid JSON: maximum recursion depth exceeded"),
        ("scenario", b"[" * 200_000, ": invalid JSON: maximum recursion depth exceeded"),
        ("network", b'{"nodes": \xff}', ": invalid JSON: 'utf-8' codec can't decode byte 0xff"),
        ("scenario", b'{"seed": \xff}', ": invalid JSON: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["huge-x", "empty-arc-id", "deep-network", "deep-scenario", "latin1-network",
            "latin1-scenario"])
    def test_malformed_file_exits_one_with_one_line(self, files, capsys, which, content, named):
        net, scen, tmp = files
        bad = tmp / "bad.json"
        bad.write_bytes(content.encode() if isinstance(content, str) else content)
        paths = {"network": net, "scenario": scen, which: bad}
        rc = main(["simulate", "--network", str(paths["network"]),
                   "--scenario", str(paths["scenario"]), "--out-dir", str(tmp / "nope")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
        assert named in err and (named[0] != ":" or err.startswith(f"error: {bad}: "))
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("speed", [1e-320, 5e-324])
    def test_tiny_speed_never_arrives(self, files, speed):
        net, _, tmp = files
        scen = tmp / "slow.json"
        scen.write_text(json.dumps(dict(
            SCENARIO, vehicles=[dict(SCENARIO["vehicles"][0], speed_mps=speed)])))
        out = tmp / "out"
        assert main(["simulate", "--network", str(net), "--scenario", str(scen),
                     "--out-dir", str(out)]) == 0
        assert " MOVE " not in (out / "trace.txt").read_text()

    @pytest.mark.parametrize("option, value, named", [
        ("--cell-m", "0", "cell_m"), ("--cell-m", "-1", "cell_m"),
        ("--threshold-mm", "0", "threshold_mm"), ("--threshold-mm", "nan", "threshold_mm"),
    ])
    def test_bad_sensing_option_exits_one_naming_it(self, files, capsys, option, value, named):
        net, scen, tmp = files
        rc = main(["simulate", "--network", str(net), "--scenario", str(scen),
                   "--out-dir", str(tmp / "nope"), option, value])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {named} must be a finite number > 0")
        assert not (tmp / "nope").exists()

    @pytest.mark.parametrize("value", ["1e-300", "0.0009"])
    def test_cell_below_a_millimetre_exits_one_naming_it(self, files, capsys, value):
        # 1e-300 m cells made the first sweep raise OverflowError at its
        # per-cell list, a traceback
        net, scen, tmp = files
        rc = main(["simulate", "--network", str(net), "--scenario", str(scen),
                   "--out-dir", str(tmp / "nope"), "--cell-m", value])
        assert rc == 1
        assert capsys.readouterr().err == f"error: cell_m must be at least 0.001 m, got {value}\n"
        assert not (tmp / "nope").exists()

    def test_overflowing_arc_geometry_exits_one_naming_the_arc(self, files, capsys):
        # x = +-1.7e308 are finite, but B.x - A.x is inf, and inf * 0 is NaN
        net, scen, tmp = files
        wide = copy.deepcopy(NETWORK)
        wide["nodes"][0]["x"] = -1.7e308
        wide["nodes"][1]["x"] = 1.7e308
        net.write_text(json.dumps(wide))
        rc = main(["simulate", "--network", str(net), "--scenario", str(scen),
                   "--out-dir", str(tmp / "nope")])
        assert rc == 1
        assert capsys.readouterr().err == ("error: arcs[0].head must lie within a float's "
                                           "range of tail 'A' on both axes, got 'B'\n")
        assert not (tmp / "nope").exists()

    OUTPUTS = {"trace.txt", "registry.csv", "events.csv", "weighted_network.csv",
               "maintenance_report.csv", "route_v1.txt"}

    # only A->B and C->B: from the vehicle's anchor B nothing reaches C
    UNREACHABLE = (
        {"nodes": [{"id": n, "x": x, "y": 0.0}
                   for n, x in (("A", 0.0), ("B", 100.0), ("C", 200.0))],
         "arcs": [{"id": "ab", "tail": "A", "head": "B", "length_m": 100.0},
                  {"id": "cb", "tail": "C", "head": "B", "length_m": 100.0}]},
        {"duration_ms": 15_000, "seed": 1,
         "vehicles": [{"id": "v1", "start_arc": "ab", "start_offset_m": 0.0,
                       "speed_mps": 10.0, "waypoints": ["B"]}],
         "events": [{"t_ms": 1000, "kind": "DEST_CHANGE", "vehicle": "v1", "dest": "C"}]},
    )

    def test_unreachable_dest_change_keeps_running(self, tmp_path):
        net, scen = write_inputs(tmp_path, *self.UNREACHABLE)
        out = tmp_path / "out"
        assert main(["simulate", "--network", str(net), "--scenario", str(scen),
                     "--out-dir", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == self.OUTPUTS
        assert (out / "route_v1.txt").read_text() == "DISPLAY ab 0\n"
        trace = (out / "trace.txt").read_text().splitlines()
        assert "t=1000 DEST_CHANGE vehicle=v1 dest=C unreachable" in trace
        assert "t=10000 MOVE vehicle=v1 node=B arc=-" in trace

    # answered: the session's successful routes plus its weight displays
    @pytest.mark.parametrize("inputs, failed, answered", [
        # no route to C; the display `simulate` writes at the end
        (UNREACHABLE, 1, 1),
        # the route to D at t=2000, the display of the clear at t=9000, the
        # display at the end
        ((NETWORK, FUZZ_SCENARIO), 0, 3),
    ], ids=["unreachable", "route-then-clear"])
    def test_server_counts_the_sessions_queries(self, tmp_path, inputs, failed, answered):
        net, scen = write_inputs(tmp_path, *inputs)
        network = load_network(net)
        sim = Simulation(network, load_scenario(scen, network))
        world = sim.run()
        assert type(world.vehicles["v1"].session.display()) is float
        unreachable = [line for line in sim.trace
                       if " DEST_CHANGE " in line and line.endswith(" unreachable")]
        assert world.server.stats.queries_failed == len(unreachable) == failed
        assert world.server.stats.queries_answered == answered

    def test_infinite_arc_weight_at_a_dest_change_exits_one_naming_the_arc(self, tmp_path,
                                                                             capsys):
        # a 1e306 mm pit near the start of a 1000 m arc: uplinked, its report
        # would make ab weigh inf, which the DEST_CHANGE at t=8000 would route
        # over, so the scenario reader refuses the pit
        network = {
            "nodes": [{"id": n, "x": x, "y": 0.0}
                      for n, x in (("A", 0.0), ("B", 1000.0), ("C", 1010.0))],
            "arcs": [{"id": "ab", "tail": "A", "head": "B", "length_m": 1000.0},
                     {"id": "bc", "tail": "B", "head": "C", "length_m": 10.0}],
        }
        scenario = {
            "duration_ms": 20_000, "seed": 1,
            "vehicles": [{"id": "v1", "start_arc": "ab", "start_offset_m": 0.0,
                          "speed_mps": 5.0, "waypoints": ["B", "C"]}],
            "pits": [{"arc": "ab", "center_m": 1.5, "half_length_m": 1.0,
                      "depth_mm": 1e306, "reflectivity": 0.5}],
            "access_points": [{"id": "ap", "x": 5.0, "y": 0.0, "range_m": 200.0,
                               "open": True}],
            "events": [{"t_ms": 1000, "kind": "DETECT", "vehicle": "v1"},
                       {"t_ms": 8000, "kind": "DEST_CHANGE", "vehicle": "v1", "dest": "C"}],
        }
        net, scen = write_inputs(tmp_path, network, scenario)
        rc = main(["simulate", "--network", str(net), "--scenario", str(scen),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: pits[0].depth_mm must be small enough that the summed pit depths of "
            "arc 'ab', doubled and then multiplied by its length_m, stay finite, got 1e+306\n")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def deep_pit_inputs(depth_mm, half_length_m):
        """Two vehicles parked in an open access point's range: v1 on the
        10 m arc ab, with one pit at 5 m that it sweeps at t=1000, and v2 on
        the way back, which routes over ab at t=3000."""
        network = {
            "nodes": [{"id": "A", "x": 0.0, "y": 0.0}, {"id": "B", "x": 10.0, "y": 0.0}],
            "arcs": [{"id": "ab", "tail": "A", "head": "B", "length_m": 10.0},
                     {"id": "ba", "tail": "B", "head": "A", "length_m": 10.0}],
        }
        scenario = {
            "duration_ms": 4000, "seed": 1,
            "vehicles": [{"id": "v1", "start_arc": "ab", "start_offset_m": 0.0,
                          "speed_mps": 0.0, "waypoints": ["B"]},
                         {"id": "v2", "start_arc": "ba", "start_offset_m": 0.0,
                          "speed_mps": 0.0, "waypoints": ["A"]}],
            "pits": [{"arc": "ab", "center_m": 5.0, "half_length_m": half_length_m,
                      "depth_mm": depth_mm, "reflectivity": 0.5}],
            "access_points": [{"id": "ap", "x": 0.0, "y": 0.0, "range_m": 50.0,
                               "open": True}],
            "events": [{"t_ms": 1000, "kind": "DETECT", "vehicle": "v1"},
                       {"t_ms": 3000, "kind": "DEST_CHANGE", "vehicle": "v2", "dest": "B"}],
        }
        return network, scenario

    def test_pit_whose_centroid_sum_overflowed_is_refused_by_its_weight(self, tmp_path,
                                                                         capsys):
        # 1.7e307 mm over [4, 6] m: the depth-weighted moment of its four
        # cells overflows, and 1.7e307 x 2 x 10 m overflows too
        net, scen = write_inputs(tmp_path, *self.deep_pit_inputs(1.7e307, 1.0))
        rc = main(["simulate", "--network", str(net), "--scenario", str(scen),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: pits[0].depth_mm must be small enough that the summed pit depths of "
            "arc 'ab', doubled and then multiplied by its length_m, stay finite, got 1.7e+307\n")

    def test_pit_whose_centroid_sum_overflows_reports_its_centre(self, tmp_path, capsys):
        # 8e306 mm over [1, 9] m passes the weight rule (8e306 x 2 x 10 is
        # finite), but the moment of its sixteen cells, 8e306 x 80, overflows:
        # the report still lies at 5 m, and ab weighs 8e307 on v2's route
        net, scen = write_inputs(tmp_path, *self.deep_pit_inputs(8e306, 4.0))
        out = tmp_path / "out"
        rc = main(["simulate", "--network", str(net), "--scenario", str(scen),
                   "--out-dir", str(out)])
        assert rc == 0 and "Traceback" not in capsys.readouterr().err
        trace = (out / "trace.txt").read_text().splitlines()
        assert "t=1000 DETECT vehicle=v1 arc=ab reports=1 new=1" in trace
        assert "t=1000 P2P_BROADCAST vehicle=v1 pothole=ab:5 receivers=v2" in trace
        assert "t=1000 UPLINK vehicle=v1 delivered=1 queued=0" in trace
        assert "t=3000 DEST_CHANGE vehicle=v2 dest=B" in trace
        registry = (out / "registry.csv").read_text().splitlines()
        assert registry[1:] == ["1,ab,5.0,8e+306,0.5,1000,1000"]
        weights = (out / "weighted_network.csv").read_text().splitlines()
        assert "ab,A,B,10.0,1,8e+306,8e+307" in weights
        # fmt_num writes an integral weight in full
        assert (out / "route_v2.txt").read_text().splitlines()[0] == f"ab A B {int(8e307)} 10"

    def test_detect_on_sub_cell_arc(self, tmp_path):
        # a 0.4 m arc holds no whole 0.5 m scanner cell: nothing to sense
        network = {
            "nodes": [{"id": "A", "x": 0.0, "y": 0.0}, {"id": "B", "x": 0.4, "y": 0.0}],
            "arcs": [{"id": "ab", "tail": "A", "head": "B", "length_m": 0.4}],
        }
        scenario = {
            "duration_ms": 1000, "seed": 1,
            "vehicles": [{"id": "v1", "start_arc": "ab", "start_offset_m": 0.0,
                          "speed_mps": 0.0, "waypoints": ["B"]}],
            "pits": [{"arc": "ab", "center_m": 0.2, "half_length_m": 0.1,
                      "depth_mm": 40.0, "reflectivity": 0.5}],
            "events": [{"t_ms": 100, "kind": "DETECT", "vehicle": "v1"}],
        }
        net, scen = write_inputs(tmp_path, network, scenario)
        out = tmp_path / "out"
        assert main(["simulate", "--network", str(net), "--scenario", str(scen),
                     "--out-dir", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == self.OUTPUTS
        assert "t=100 DETECT vehicle=v1 arc=ab reports=0 new=0" \
            in (out / "trace.txt").read_text().splitlines()


class TestRouteOnce:
    def test_source_equals_dest(self, files, capsys):
        net, _, _ = files
        assert main(["route", "--network", str(net),
                     "--source", "A", "--dest", "A"]) == 0
        assert capsys.readouterr().out == "TOTAL 0 0\n"

    def test_matches_enumeration_oracle(self, files, capsys, tmp_path):
        net, scen, tmp = files
        out = tmp / "sim"
        main(["simulate", "--network", str(net), "--scenario", str(scen),
              "--out-dir", str(out)])
        assert main(["route", "--network", str(net),
                     "--registry", str(out / "registry.csv"),
                     "--source", "A", "--dest", "D"]) == 0
        lines = capsys.readouterr().out.splitlines()
        arcs = tuple(line.split()[0] for line in lines[:-1])

        from potholesim.network import load_network
        from potholesim.registry import PotholeRegistry
        from potholesim.weighting import preprocess
        loaded = load_network(net)
        wnet = preprocess(loaded, PotholeRegistry.read_csv(out / "registry.csv", loaded))
        assert arcs == enumerate_best_route(wnet, "A", "D")[2] == ("ac", "cd")

    def test_unknown_node_exit_code(self, files, capsys):
        net, _, _ = files
        assert main(["route", "--network", str(net),
                     "--source", "A", "--dest", "ZZ"]) == 1

    @pytest.mark.parametrize("source, dest, named", [
        ("ZZ", "D", "--source: unknown node 'ZZ'"),
        ("A", "ZZ", "--dest: unknown node 'ZZ'"),
    ], ids=["source", "dest"])
    def test_unknown_node_names_the_option(self, files, capsys, source, dest, named):
        net, _, _ = files
        assert main(["route", "--network", str(net),
                     "--source", source, "--dest", dest]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {named}\n"

    def test_unreachable_exit_code(self, files, capsys):
        net, _, _ = files
        assert main(["route", "--network", str(net),
                     "--source", "D", "--dest", "A"]) == 2


class TestReport:
    def test_report_from_sim_outputs(self, files, capsys):
        net, scen, tmp = files
        out = tmp / "sim"
        main(["simulate", "--network", str(net), "--scenario", str(scen),
              "--out-dir", str(out)])
        assert main(["report", "--registry", str(out / "registry.csv"),
                     "--events", str(out / "events.csv"), "--at", "14000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank,pothole_id,arc_id,offset_m,depth_mm,intensity_per_min"
        assert lines[1].startswith("1,1,ab,")

    def test_round_trip_in_an_ascii_locale(self, tmp_path):
        # a vehicle id outside ASCII, in a process whose locale encoding is
        # ASCII: every output file is UTF-8, byte for byte what a UTF-8
        # process writes, and `report` reads the CSVs back
        network, scenario = grid_inputs()
        old = scenario["vehicles"][0]["id"]
        scenario["vehicles"][0]["id"] = "vé"
        for event in scenario["events"]:
            if event["vehicle"] == old:
                event["vehicle"] = "vé"
        net, scen = write_inputs(tmp_path, network, scenario)
        sim = cli_in_an_ascii_locale("simulate", "--network", str(net), "--scenario", str(scen),
                  "--out-dir", str(tmp_path / "ascii"))
        assert (sim.returncode, sim.stderr) == (0, b"")
        assert main(["simulate", "--network", str(net), "--scenario", str(scen),
                     "--out-dir", str(tmp_path / "utf8")]) == 0
        written = {p.name: p.read_bytes() for p in (tmp_path / "ascii").iterdir()}
        assert written == {p.name: p.read_bytes() for p in (tmp_path / "utf8").iterdir()}
        assert "route_vé.txt" in written
        assert "vehicle=vé" in written["trace.txt"].decode("utf-8")
        assert ",vé," in written["events.csv"].decode("utf-8")
        out = tmp_path / "ascii"
        report = cli_in_an_ascii_locale("report", "--registry", str(out / "registry.csv"),
                                        "--events", str(out / "events.csv"),
                                        "--at", str(scenario["duration_ms"]))
        assert (report.returncode, report.stderr) == (0, b"")
        assert report.stdout == written["maintenance_report.csv"]

    def test_commands_print_utf8_in_an_ascii_locale(self, tmp_path, capsys):
        # route, preprocess and report print UTF-8 whatever the locale, like
        # the files simulate writes, on a network whose only arc is `abé`
        net = tmp_path / "net.json"
        net.write_text(json.dumps({
            "nodes": [{"id": "A", "x": 0.0, "y": 0.0}, {"id": "B", "x": 10.0, "y": 0.0}],
            "arcs": [{"id": "abé", "tail": "A", "head": "B", "length_m": 10.0}]}))
        registry, events = tmp_path / "registry.csv", tmp_path / "events.csv"
        registry.write_text("pothole_id,arc_id,offset_m,depth_mm,intensity,first_seen_ms,"
                            "last_seen_ms\n1,abé,5.0,30.0,0.5,0,0\n", encoding="utf-8")
        events.write_text("pothole_id,vehicle_id,timestamp_ms\n1,vé,0\n", encoding="utf-8")
        for args in (["route", "--network", str(net), "--source", "A", "--dest", "B"],
                     ["preprocess", "--network", str(net), "--registry", str(registry)],
                     ["report", "--registry", str(registry), "--events", str(events),
                      "--at", "0"]):
            assert main(args) == 0
            printed = capsys.readouterr().out
            assert "abé" in printed
            run = cli_in_an_ascii_locale(*args)
            assert (run.returncode, run.stderr) == (0, b"")
            assert run.stdout == printed.encode("utf-8")

    def test_missing_file_exits_one(self, files, capsys):
        assert main(["report", "--registry", "/nonexistent.csv",
                     "--events", "/nonexistent2.csv", "--at", "0"]) == 1


class TestPreprocess:
    def test_clean_network_dump(self, files, capsys):
        net, _, _ = files
        assert main(["preprocess", "--network", str(net)]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert {r["arc_id"] for r in rows} == {"ab", "bd", "ac", "cd"}
        assert all(float(r["weight"]) == 0.0 for r in rows)


class TestCsvInputs:
    ROW = {"pothole_id": "1", "arc_id": "ab", "offset_m": "50.0", "depth_mm": "40.0",
           "intensity": "0.5", "first_seen_ms": "1000", "last_seen_ms": "1000"}

    def run(self, files, command, registry_row, event_row="1,v1,1000"):
        net, _, tmp = files
        registry = tmp / "registry.csv"
        registry.write_text(",".join(self.ROW) + "\n" + ",".join(registry_row.values()) + "\n")
        events = tmp / "events.csv"
        events.write_text("pothole_id,vehicle_id,timestamp_ms\n" + event_row + "\n")
        args = {"route": ["--network", str(net), "--registry", str(registry),
                          "--source", "A", "--dest", "D"],
                "preprocess": ["--network", str(net), "--registry", str(registry)],
                "report": ["--registry", str(registry), "--events", str(events),
                           "--at", "2000"]}[command]
        return main([command, *args]), registry, events

    @pytest.mark.parametrize("command", ["route", "preprocess", "report"])
    def test_valid_row_accepted(self, files, capsys, command):
        rc, _, _ = self.run(files, command, self.ROW)
        assert rc == 0 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, field, value, named", [
        ("route", "depth_mm", "inf", "depth_mm must be a finite number, got 'inf'"),
        ("report", "pothole_id", "p1", "pothole_id must be a decimal integer, got 'p1'"),
        ("preprocess", "offset_m", "nan", "offset_m must be a finite number, got 'nan'"),
        ("preprocess", "depth_mm", "nan", "depth_mm must be a finite number, got 'nan'"),
        ("report", "offset_m", "nan", "offset_m must be a finite number, got 'nan'"),
        ("report", "depth_mm", "nan", "depth_mm must be a finite number, got 'nan'"),
        ("route", "offset_m", "120", "offset_m must be a finite number in [0, 100.0] "
                                     "on arc 'ab', got 120.0"),
        ("route", "arc_id", "zz", "arc_id: unknown arc 'zz'"),
        ("report", "last_seen_ms", "1.5", "last_seen_ms must be an integer, got '1.5'"),
        ("report", "last_seen_ms", "50", "last_seen_ms must be >= first_seen_ms (1000), "
                                         "got '50'"),
        ("report", "first_seen_ms", "9" * 5000,
         f"first_seen_ms must be an integer of at most {sys.get_int_max_str_digits()} "
         f"digits, got '{'9' * 5000}'"),
    ], ids=["route-inf-depth", "report-id", "preprocess-nan-offset", "preprocess-nan-depth",
            "report-nan-offset", "report-nan-depth", "route-offset-past-arc",
            "route-unknown-arc", "report-float-ms", "report-seen-backwards",
            "report-5000-digit-ms"])
    def test_bad_registry_row_exits_one_naming_the_field(self, files, capsys,
                                                          command, field, value, named):
        rc, registry, _ = self.run(files, command, dict(self.ROW, **{field: value}))
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert err == f"error: {registry}, line 2: {named}\n"

    def test_infinite_arc_weight_exits_one_naming_the_arc(self, files, capsys):
        # a finite depth whose weight, depth x length, overflows to inf
        rc, _, _ = self.run(files, "route", dict(self.ROW, depth_mm="1e308"))
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and "Traceback" not in captured.err
        assert captured.err == "error: weight inf on arc 'ab' is not a finite number >= 0\n"

    @pytest.mark.parametrize("row, named", [
        ("p1,v1,1000", "pothole_id must be a decimal integer, got 'p1'"),
        ("1,v1,soon", "timestamp_ms must be an integer, got 'soon'"),
        ("99,v1,100", "pothole_id: unknown pothole '99'"),
    ], ids=["id", "time", "unknown-pothole"])
    def test_bad_events_row_exits_one_naming_the_field(self, files, capsys, row, named):
        rc, _, events = self.run(files, "report", self.ROW, row)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {events}, line 2: {named}\n"


# -- fuzzing ---------------------------------------------------------------
# One field of valid network, scenario, registry and events inputs is
# mutated; the command line must still end in exit 0, 1 or 2 with one
# `error: ...` line and no traceback.  `duration_ms` is never raised, since
# a long valid run is not malformed.

FUZZ_JSON = {"network": NETWORK, "scenario": FUZZ_SCENARIO}
FUZZ_CSV = {
    "registry": [list(TestCsvInputs.ROW), list(TestCsvInputs.ROW.values())],
    "events": [["pothole_id", "vehicle_id", "timestamp_ms"], ["1", "v1", "1000"]],
}
COMMANDS = {"network": ["simulate", "route", "preprocess"], "scenario": ["simulate"],
            "registry": ["route", "preprocess", "report"], "events": ["report"]}
BIG = 10**400
JSON_VALUES = [None, True, False, "", [], ["B"], {}, {"k": 1}, -1, BIG,
               math.nan, math.inf, -math.inf, 1e-320]
CSV_VALUES = ["", "nan", "1e400", "-1", "x"]


def json_paths(doc, path=()):
    """The path of every value inside `doc`, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutations(draw):
    """(input, command, path, operation, value): `path` is a JSON path, or
    (row, column) in a CSV file."""
    name = draw(st.sampled_from(list(COMMANDS)))
    command = draw(st.sampled_from(COMMANDS[name]))
    if name in FUZZ_CSV:
        op = draw(st.sampled_from(["set", "extra", "missing"]))
        column = draw(st.integers(0, len(FUZZ_CSV[name][0]) - 1))
        return name, command, (1, column), op, draw(st.sampled_from(CSV_VALUES))
    doc = FUZZ_JSON[name]
    op = draw(st.sampled_from(["set", "delete", "add"]))
    if op == "add":
        objects = [()] + [p for p in json_paths(doc) if isinstance(at(doc, p), dict)]
        return name, command, draw(st.sampled_from(objects)), op, None
    path = draw(st.sampled_from(list(json_paths(doc))))
    values = [v for v in JSON_VALUES if path != ("duration_ms",) or v is not BIG]
    return name, command, path, op, draw(st.sampled_from(values))


def mutated(name, path, op, value):
    if name in FUZZ_CSV:
        rows = copy.deepcopy(FUZZ_CSV[name])
        row, column = path
        if op == "set":
            rows[row][column] = value
        elif op == "extra":
            rows[row].append(value)
        else:
            del rows[row][column]
        return "".join(",".join(r) + "\n" for r in rows)
    doc = copy.deepcopy(FUZZ_JSON[name])
    if op == "add":
        at(doc, path)["unexpected"] = 1
    elif op == "delete":
        del at(doc, path[:-1])[path[-1]]
    else:
        at(doc, path[:-1])[path[-1]] = value
    return json.dumps(doc)


def run_mutated(name, command, path, op, value):
    """`main` on the inputs with one mutated: (exit code, standard error)."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for other, ext in (("network", "json"), ("scenario", "json"),
                           ("registry", "csv"), ("events", "csv")):
            files[other] = Path(tmp) / f"{other}.{ext}"
            if other == name:
                files[other].write_text(mutated(name, path, op, value))
            elif other in FUZZ_JSON:
                files[other].write_text(json.dumps(FUZZ_JSON[other]))
            else:
                files[other].write_text(mutated(other, (1, 0), "set", "1"))
        args = {
            "simulate": ["--network", files["network"], "--scenario", files["scenario"],
                         "--out-dir", Path(tmp) / "out"],
            "route": ["--network", files["network"], "--registry", files["registry"],
                      "--source", "A", "--dest", "D"],
            "preprocess": ["--network", files["network"], "--registry", files["registry"]],
            "report": ["--registry", files["registry"], "--events", files["events"],
                       "--at", "2000"],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, *map(str, args)])
    # a CSV refusal names its file: keep the temporary directory out of it
    return rc, err.getvalue().replace(tmp, "<tmp>")


@settings(max_examples=200, deadline=None)
@given(mutations())
@example(("network", "simulate", ("nodes", 1, "x"), "set", BIG))
@example(("scenario", "simulate", ("vehicles", 0, "speed_mps"), "set", BIG))
@example(("scenario", "simulate", ("vehicles", 0, "speed_mps"), "set", 1e-320))
def test_one_mutated_field_never_ends_in_a_traceback(mutation):
    rc, err = run_mutated(*mutation)
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def every_mutation():
    """Every single-field mutation of the four inputs, in a fixed order.  In
    the network and scenario documents each object gains an unknown key, and
    each value is deleted or set to each of JSON_VALUES.  In the registry and
    events CSVs each cell of the data row is set to each of CSV_VALUES or
    deleted, and the row gains an extra cell holding each of CSV_VALUES."""
    for name, doc in FUZZ_JSON.items():
        for path in [()] + [p for p in json_paths(doc) if isinstance(at(doc, p), dict)]:
            yield name, path, "add", None
        for path in json_paths(doc):
            yield name, path, "delete", None
            for value in JSON_VALUES:
                if path != ("duration_ms",) or value is not BIG:
                    yield name, path, "set", value
    for name, rows in FUZZ_CSV.items():
        width = len(rows[1])
        for column in range(width):
            yield name, (1, column), "missing", None
            for value in CSV_VALUES:
                yield name, (1, column), "set", value
        for value in CSV_VALUES:
            yield name, (1, width), "extra", value


# recorded once, before the loaders were reworked for speed; a changed
# exit code or message for any one mutation changes it
REFUSALS_DIGEST = "bf29647e427e5cb9891a283e58a752ef1b987758c309205b0dc2d7517e62eb4b"


def test_every_mutated_field_keeps_its_exit_code_and_message():
    digest = hashlib.sha256()
    count = 0
    for name, path, op, value in every_mutation():
        if name not in FUZZ_JSON:
            continue
        rc, err = run_mutated(name, "simulate", path, op, value)
        digest.update(f"{name} {path!r} {op} {value!r} {rc} {err!r}\n".encode())
        count += 1
    assert count == 1185
    assert digest.hexdigest() == REFUSALS_DIGEST


# recorded before the simulated vehicles' queries moved onto `Server.query`;
# a changed exit code or message for any one mutation changes it
CSV_REFUSALS_DIGEST = "df383b6ab48d1845af0f24d6560ed7ed2a5b5f2f09d4eb11ffd037f6183e37e9"


def test_every_mutated_csv_cell_keeps_its_exit_code_and_message():
    digest = hashlib.sha256()
    count = 0
    for name, path, op, value in every_mutation():
        if name not in FUZZ_CSV:
            continue
        for command in COMMANDS[name]:
            rc, err = run_mutated(name, command, path, op, value)
            digest.update(f"{name} {command} {path!r} {op} {value!r} {rc} {err!r}\n".encode())
            count += 1
    assert count == 47 * 3 + 23
    assert digest.hexdigest() == CSV_REFUSALS_DIGEST
