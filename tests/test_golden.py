"""Golden outputs: SHA-256 of every file `potholesim simulate` writes.

Refactors must leave these digests unchanged; a change of behaviour shows
up here as a digest mismatch on the file whose content moved.  The
digests were recorded once and are never regenerated to make a refactor
pass.
"""

import csv
import hashlib

import pytest

from helpers import write_end_to_end, write_grid
from potholesim.cli import main

GOLDEN = {
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
