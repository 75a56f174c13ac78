import json
import re

import pytest

from potholesim.inputs import InputError
from potholesim.network import UnknownNodeError, load_network


def write_net(tmp_path, payload):
    p = tmp_path / "net.json"
    p.write_text(json.dumps(payload))
    return p


MINIMAL = {
    "nodes": [{"id": "u", "x": 0.0, "y": 0.0}, {"id": "v", "x": 10.0, "y": 0.0}],
    "arcs": [{"id": "a1", "tail": "u", "head": "v", "length_m": 10.0}],
}


class TestLoadNetwork:
    def test_minimal_valid_file(self, tmp_path):
        net = load_network(write_net(tmp_path, MINIMAL))
        assert len(net.nodes) == 2
        assert len(net.arcs) == 1
        assert net.arc("a1").length_m == 10.0

    def test_dangling_node_reference(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["arcs"][0]["head"] = "ghost"
        with pytest.raises(InputError, match=r"^arc 'a1' references missing node 'ghost'$"):
            load_network(write_net(tmp_path, bad))

    def test_parallel_arcs_admitted(self, tmp_path):
        two = json.loads(json.dumps(MINIMAL))
        two["arcs"].append({"id": "a2", "tail": "u", "head": "v", "length_m": 5.0})
        net = load_network(write_net(tmp_path, two))
        assert [a.id for a in net.arcs_between("u", "v")] == ["a1", "a2"]

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "net.json"
        p.write_text("{nope")
        with pytest.raises(InputError, match=rf"^{re.escape(str(p))}: invalid JSON: "):
            load_network(p)

    def test_unknown_key_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["arcs"][0]["speed_limit"] = 50
        with pytest.raises(InputError, match=r"^unknown keys \['speed_limit'\] in arcs\[0\]$"):
            load_network(write_net(tmp_path, bad))

    @pytest.mark.parametrize("length", [0.0, -3.0])
    def test_non_positive_length(self, tmp_path, length):
        bad = json.loads(json.dumps(MINIMAL))
        bad["arcs"][0]["length_m"] = length
        with pytest.raises(InputError, match=r"^arc 'a1' has non-positive length"):
            load_network(write_net(tmp_path, bad))

    def test_duplicate_ids(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["nodes"].append({"id": "u", "x": 1.0, "y": 1.0})
        with pytest.raises(InputError, match=r"^duplicate node id 'u'$"):
            load_network(write_net(tmp_path, bad))

    def test_self_loop_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["arcs"][0]["head"] = "u"
        with pytest.raises(InputError, match=r"^arc 'a1' is a self-loop at 'u'$"):
            load_network(write_net(tmp_path, bad))

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_overflowing_coordinate_difference_rejected(self, tmp_path, axis):
        # both coordinates are finite, but head - tail overflows to inf
        bad = json.loads(json.dumps(MINIMAL))
        bad["nodes"][0][axis] = -1.7e308
        bad["nodes"][1][axis] = 1.7e308
        with pytest.raises(InputError) as err:
            load_network(write_net(tmp_path, bad))
        assert str(err.value) == ("arc 'a1' from 'u' to 'v' has a coordinate difference "
                                  "too large for a float")

    @pytest.mark.parametrize("section, index, key, value, message", [
        ("nodes", 1, "x", 10**400, "nodes[1].x must be a finite number, got 1" + "0" * 400),
        ("nodes", 1, "x", float("nan"), "nodes[1].x must be a finite number, got nan"),
        ("nodes", 0, "y", "0", "nodes[0].y must be a finite number, got '0'"),
        ("nodes", 0, "y", True, "nodes[0].y must be a finite number, got True"),
        ("nodes", 0, "id", "", "nodes[0].id must be a non-empty string, got ''"),
        ("arcs", 0, "id", "", "arcs[0].id must be a non-empty string, got ''"),
        ("arcs", 0, "tail", None, "arcs[0].tail must be a non-empty string, got None"),
        ("arcs", 0, "id", "a\rb", "arcs[0].id must be printable text, got 'a\\rb'"),
        ("nodes", 0, "id", "u\ud800", "nodes[0].id must be printable text, got 'u\\ud800'"),
        ("arcs", 0, "length_m", -float("inf"), "arcs[0].length_m must be a finite number, "
                                               "got -inf"),
    ], ids=["huge-x", "nan-x", "string-y", "bool-y", "empty-node-id", "empty-arc-id",
            "null-tail", "carriage-return-arc-id", "surrogate-node-id", "minus-inf-length"])
    def test_bad_field_named(self, tmp_path, section, index, key, value, message):
        bad = json.loads(json.dumps(MINIMAL))
        bad[section][index][key] = value
        with pytest.raises(InputError) as err:
            load_network(write_net(tmp_path, bad))
        assert str(err.value) == message

    @pytest.mark.parametrize("payload, message", [
        ([], "network file must be an object, got []"),
        ({"nodes": 5, "arcs": []}, "'nodes' must be a list, got 5"),
        ({"nodes": [1], "arcs": []}, "nodes[0] must be an object, got 1"),
        ({"nodes": []}, "missing keys ['arcs'] in network file"),
    ], ids=["list", "number-nodes", "number-node", "no-arcs"])
    def test_bad_shape_named(self, tmp_path, payload, message):
        with pytest.raises(InputError) as err:
            load_network(write_net(tmp_path, payload))
        assert str(err.value) == message

    def test_round_trip(self, tmp_path):
        net = load_network(write_net(tmp_path, MINIMAL))
        assert [n._asdict() for n in net.nodes.values()] == MINIMAL["nodes"]
        assert [a._asdict() for a in net.arcs.values()] == MINIMAL["arcs"]


class TestArcsBetween:
    def test_no_arcs_between(self, parallel_net):
        assert parallel_net.arcs_between("u", "u") == []

    def test_parallel_arcs_in_id_order(self, parallel_net):
        assert [a.id for a in parallel_net.arcs_between("u", "v")] == ["a1", "a2"]

    def test_directedness(self, parallel_net):
        assert [a.id for a in parallel_net.arcs_between("v", "u")] == ["r1"]

    def test_unknown_node(self, parallel_net):
        with pytest.raises(UnknownNodeError):
            parallel_net.arcs_between("u", "ghost")


def test_predecessors_sorted_and_directed(triangle_net):
    assert triangle_net.predecessors("d") == ["m", "s"]
    assert triangle_net.predecessors("s") == []
    with pytest.raises(UnknownNodeError):
        triangle_net.predecessors("ghost")


def test_out_arcs_sorted(parallel_net):
    assert [a.id for a in parallel_net.out_arcs("u")] == ["a1", "a2"]
