"""Golden outputs: SHA-256 of every file `potholesim simulate` writes.

Refactors must leave these digests unchanged; a change of behaviour shows
up here as a digest mismatch on the file whose content moved.  The
digests were recorded once and are never regenerated to make a refactor
pass.
"""

import csv
import hashlib
import math

import pytest

from helpers import (EXACT_AP, ap_grid_inputs, write_ap_grid, write_demo, write_end_to_end,
                     write_grid, write_handover)
from potholesim.cli import main

GOLDEN = {
    "ap_grid": (write_ap_grid, {
        "events.csv": "5599a885cd2f32327ce760cd2890e6c1f2c7e4c27a02062fdb844b30a985e5a8",
        "maintenance_report.csv": "7daf8bc632bb93d657496c47b5aae7efaf8842eaa269a55172c5ea57364291a4",
        "registry.csv": "e2bf20b7973b3761ddba0589add67818cf8a3440a30e452746ee8edf04c4fae1",
        "route_v1.txt": "980323ae884bf22a7f98b07a4f5560b7056637f50d6f88265d571a531cd563b4",
        "route_v2.txt": "b435ee11d20cab8673c882e1853a787d73676779d62b687df0f3321761597d8c",
        "route_v3.txt": "b35fe22d39ed9c1a7805d8d948771a1d70d29d5e4b8b2726b188b7c9fe4612f2",
        "route_v4.txt": "0b1a8b66c524abdfb935ac2d9d57b91018b2abd6feeb387d73979c09f3c65149",
        "route_v5.txt": "fb122d60dfc152b4a70df361656c4d250c5de26781c26dc282cbd5da7cd3f89e",
        "route_v6.txt": "6c88295e518f238bac79d385bfa2948d6eece7ba220995732ffb2e82ad6a4c8f",
        "route_v7.txt": "c4b7808040b9bd645939d5ca0f5ad8c7383b64d06a2ebafd95ac9b8675a5da5d",
        "route_v8.txt": "b364f7a2c28ea845f0a74df0368282e0bd3d3ac3fb9a71d83a85296637f9a106",
        "route_v9.txt": "0b1a8b66c524abdfb935ac2d9d57b91018b2abd6feeb387d73979c09f3c65149",
        "trace.txt": "3db9db18ee2b80b884f4262f5efcb9b6250048445bde45b5b88704f746e96bc6",
        "weighted_network.csv": "e24a6e9162091f99892cd07dc7c8dd9d4b0edf326fe869a2bd920199586a2897",
    }),
    # the demo's inputs equal the end-to-end scenario's today; this case
    # keeps pinning the demo if the two ever part
    "demo": (write_demo, {
        "events.csv": "2f4d5ff53ffdbdc800cedcb5d3e61bb8ed0818d9f42ec8dbdcd79b8699595b1a",
        "maintenance_report.csv": "0aa8d2b42daf4a5e673f314749accd69ddcb0412bfd6316b8421c8038aef0c7e",
        "registry.csv": "c7b3ce041f7881c50540c6c51759f55b144370521aa391d1d3fa819dd918cda7",
        "route_v1.txt": "7dfcc8761cf5536db4fccac655e71c8a3416eb7071bfec40bd36ae8f09292428",
        "route_v2.txt": "7dfcc8761cf5536db4fccac655e71c8a3416eb7071bfec40bd36ae8f09292428",
        "route_v3.txt": "43bd80e924f7d0501de1e3776413ca016c48cfaba395263fe732929149f386c8",
        "trace.txt": "5fe79a26007982275740466afdc1eadc91781700677ac9b0475bac8296aaa091",
        "weighted_network.csv": "abd8f5be81a58e8c65d01858ba1306328fc32d628e5cb78cffcb49b99a2710be",
    }),
    "end_to_end": (write_end_to_end, {
        "events.csv": "2f4d5ff53ffdbdc800cedcb5d3e61bb8ed0818d9f42ec8dbdcd79b8699595b1a",
        "maintenance_report.csv": "0aa8d2b42daf4a5e673f314749accd69ddcb0412bfd6316b8421c8038aef0c7e",
        "registry.csv": "c7b3ce041f7881c50540c6c51759f55b144370521aa391d1d3fa819dd918cda7",
        "route_v1.txt": "7dfcc8761cf5536db4fccac655e71c8a3416eb7071bfec40bd36ae8f09292428",
        "route_v2.txt": "7dfcc8761cf5536db4fccac655e71c8a3416eb7071bfec40bd36ae8f09292428",
        "route_v3.txt": "43bd80e924f7d0501de1e3776413ca016c48cfaba395263fe732929149f386c8",
        "trace.txt": "5fe79a26007982275740466afdc1eadc91781700677ac9b0475bac8296aaa091",
        "weighted_network.csv": "abd8f5be81a58e8c65d01858ba1306328fc32d628e5cb78cffcb49b99a2710be",
    }),
    "grid": (write_grid, {
        "events.csv": "c014e185608b2fbd709afc48773d3c0af9b68206c7c4f33c73585cf94836c278",
        "maintenance_report.csv": "8b5dc58076147ccca09e74efefc240b061aa7b8bd1c05ef695706d9785f0f5a1",
        "registry.csv": "7b8b506db0d3b38941ebf3e789e19018aa910811f9ab119afe3c8d8693850ee2",
        "route_v1.txt": "b9f225489a9dcfd76e69181a3b556576ce3075f99a6c46c5bbf3efccd7e77653",
        "route_v2.txt": "67eeb46955583ed3eed0e80c05cfb0158b649e0ea054c91489ee9e735dad7c30",
        "route_v3.txt": "5353b0d90477cce10ee6a0f5f98028934f28f2a10ec20ed088aa6631d57b1e4e",
        "route_v4.txt": "15ff8797471faabccdbc9271ec6b70207af9bb75078e8b94438e0c96533be1b2",
        "route_v5.txt": "b5b80e4ebcb8ee9ce650e07b40d72fb07a0ef71710958a619057e59d2d3c1638",
        "route_v6.txt": "58241b4188f3d81882ac03eb4a202d671808b182967ac657795c3475de457807",
        "trace.txt": "6a0279d8ac0e95c86cf0cc01c773724c189929ef7978bb8b9200917f323414c4",
        "weighted_network.csv": "60b5b133cb52801bb3a59988da3709ffd71f6b89afccef7faec41ba6a7b5ab25",
    }),
    "handover": (write_handover, {
        "events.csv": "aee2bbda406a24bdace7202f3d9d95ad88cfd5cf9cc3a436ccbf0dd858f5c6c6",
        "maintenance_report.csv": "34ff0a24c27b533989ef11b05763f812f64a6026e2b72783b3c32589ed49ae12",
        "registry.csv": "0e6cb7e4d37feeffe367b772a3eac32323e55e3396308fb275e284d167369e8d",
        "route_v1.txt": "b79936cc259560e6a85291b39355c8da0e50e4abbb74f6b7f99bc26be2f0f839",
        "route_v2.txt": "c830b91c2a90e8d0e282c3775028a1bbabbe6e29459b75ae5a0edad91a91a36a",
        "route_v3.txt": "69b6727b0ea61905146176334955453c706351157e06022121848587fbe2fc5c",
        "trace.txt": "82facbf15ceaf8c1e1e8713ad4e445e4b3dbb3fedf6e7dc5e4c77b1e68699f0b",
        "weighted_network.csv": "add7d1b953927c3787f1d41875419122d964a4c3f5465ff6320bdde791c067ba",
    }),
}


def simulate(tmp_path, write):
    net_file, scen_file = write(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--network", str(net_file),
                 "--scenario", str(scen_file), "--out-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_outputs_match_golden_digests(tmp_path, name):
    write, expected = GOLDEN[name]
    out = simulate(tmp_path, write)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == expected


def test_grid_scenario_exercises_arc_id_tie_break(tmp_path):
    # the grid golden only guards the tie-break if some vehicle ends with a
    # route, and that route takes a clean arc over a clean, equally long
    # parallel arc with a larger id (records are never removed, so an arc
    # clean at the end was clean when the route was computed)
    out = simulate(tmp_path, write_grid)
    with open(out / "weighted_network.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    pair_arcs = {}
    for r in rows:
        pair_arcs.setdefault((r["tail"], r["head"]), []).append(r)
    routed = []
    for path in sorted(out.glob("route_*.txt")):
        lines = path.read_text().splitlines()
        if not lines[0].startswith("DISPLAY "):
            routed.extend(line.split() for line in lines[:-1])
    assert routed, "no vehicle ends with a destination set"
    tie_broken = [
        arc_id for arc_id, tail, head, weight, length in routed
        if weight == "0" and any(
            r["arc_id"] > arc_id and float(r["weight"]) == 0.0
            and float(r["length_m"]) == float(length)
            for r in pair_arcs[(tail, head)])]
    assert tie_broken


def test_ap_grid_scenario_exercises_the_closed_range_bound(tmp_path):
    # the ap_grid golden only guards the closed `<=` test if v1, parked
    # exactly EXACT_AP's range away from it, connects through EXACT_AP
    # alone and uplinks its reports there
    network, scenario = ap_grid_inputs()
    node = next(n for n in network["nodes"] if n["id"] == "n22")
    ap = next(a for a in scenario["access_points"] if a["id"] == EXACT_AP)
    assert math.hypot(ap["x"] - node["x"], ap["y"] - node["y"]) == ap["range_m"]
    assert scenario["vehicles"][0]["waypoints"][-1] == "n22"
    assert min(n["x"] for n in network["nodes"]) < 0 < max(n["x"] for n in network["nodes"])
    out = simulate(tmp_path, write_ap_grid)
    trace = (out / "trace.txt").read_text().splitlines()
    assert f"t=10000 PHASE_TIMEOUT vehicle=v1 phase=ASSOCIATING ap={EXACT_AP}" in trace
    assert any(line.startswith("t=10200 UPLINK vehicle=v1 delivered=")
               and " delivered=0 " not in line for line in trace)


def test_handover_scenario_loses_and_regains_the_link(tmp_path):
    # the handover golden only guards the connection's timeout if a vehicle
    # goes from CONNECTED to LOST and later connects again, and if reports
    # queued out of range reach the server over the second link
    out = simulate(tmp_path, write_handover)
    trace = (out / "trace.txt").read_text().splitlines()
    phases = []
    for line in trace:
        if " PHASE_TIMEOUT vehicle=v1 " in line:
            phase = line.split(" phase=")[1]
            if not phases or phases[-1] != phase:
                phases.append(phase)
    assert phases == ["ASSOCIATING ap=ap1", "AUTHENTICATING ap=ap1", "CONNECTED ap=ap1",
                      "LOST ap=ap1", "SCANNING ap=-", "ASSOCIATING ap=ap2",
                      "AUTHENTICATING ap=ap2", "CONNECTED ap=ap2", "LOST ap=ap2",
                      "SCANNING ap=-"]
    # v1's report from bc, swept while out of range, rides the ap2 link
    assert "t=18000 DETECT vehicle=v1 arc=bc reports=1 new=1" in trace
    assert "t=25400 UPLINK vehicle=v1 delivered=1 queued=0" in trace
    # v2, parked in ap1's range, stays CONNECTED from t=300 to the end
    v2 = [line for line in trace if " PHASE_TIMEOUT vehicle=v2 " in line]
    assert all(line.endswith("phase=CONNECTED ap=ap1") for line in v2[2:])
