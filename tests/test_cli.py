import csv
import json

import pytest

from helpers import enumerate_best_route, write_inputs
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


@pytest.fixture
def files(tmp_path):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(NETWORK))
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(SCENARIO))
    return net, scen, tmp_path


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
         "access_points[0].range_m"),
        ("access_points", [dict(SCENARIO["access_points"][0], x=float("inf"))],
         "access_points[0].x"),
        ("vehicles", [dict(SCENARIO["vehicles"][0], speed_mps=float("nan"))],
         "vehicles[0].speed_mps"),
        ("vehicles", [1], "vehicles[0]"),
        ("events", None, "'events'"),
    ], ids=["nan-ap-range", "inf-ap-x", "nan-speed", "non-object-vehicle", "null-events"])
    def test_malformed_scenario_exits_one_naming_the_field(self, files, capsys,
                                                            section, value, named):
        net, _, tmp = files
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(dict(SCENARIO, **{section: value})))
        rc = main(["simulate", "--network", str(net), "--scenario", str(bad),
                   "--out-dir", str(tmp / "nope")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert not (tmp / "nope").exists()

    OUTPUTS = {"trace.txt", "registry.csv", "events.csv", "weighted_network.csv",
               "maintenance_report.csv", "route_v1.txt"}

    def test_unreachable_dest_change_keeps_running(self, tmp_path):
        # only A->B and C->B: from the vehicle's anchor B nothing reaches C
        network = {
            "nodes": [{"id": n, "x": x, "y": 0.0}
                      for n, x in (("A", 0.0), ("B", 100.0), ("C", 200.0))],
            "arcs": [{"id": "ab", "tail": "A", "head": "B", "length_m": 100.0},
                     {"id": "cb", "tail": "C", "head": "B", "length_m": 100.0}],
        }
        scenario = {
            "duration_ms": 15_000, "seed": 1,
            "vehicles": [{"id": "v1", "start_arc": "ab", "start_offset_m": 0.0,
                          "speed_mps": 10.0, "waypoints": ["B"]}],
            "events": [{"t_ms": 1000, "kind": "DEST_CHANGE", "vehicle": "v1",
                        "dest": "C"}],
        }
        net, scen = write_inputs(tmp_path, network, scenario)
        out = tmp_path / "out"
        assert main(["simulate", "--network", str(net), "--scenario", str(scen),
                     "--out-dir", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == self.OUTPUTS
        assert (out / "route_v1.txt").read_text() == "DISPLAY ab 0\n"
        trace = (out / "trace.txt").read_text().splitlines()
        assert "t=1000 DEST_CHANGE vehicle=v1 dest=C unreachable" in trace
        assert "t=10000 MOVE vehicle=v1 node=B arc=-" in trace

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
