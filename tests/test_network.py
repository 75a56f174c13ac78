import json

import pytest

from potholesim.network import (NetworkFormatError, NetworkValidationError,
                                UnknownNodeError, load_network)


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
        with pytest.raises(NetworkValidationError):
            load_network(write_net(tmp_path, bad))

    def test_parallel_arcs_admitted(self, tmp_path):
        two = json.loads(json.dumps(MINIMAL))
        two["arcs"].append({"id": "a2", "tail": "u", "head": "v", "length_m": 5.0})
        net = load_network(write_net(tmp_path, two))
        assert [a.id for a in net.arcs_between("u", "v")] == ["a1", "a2"]

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "net.json"
        p.write_text("{nope")
        with pytest.raises(NetworkFormatError):
            load_network(p)

    def test_unknown_key_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["arcs"][0]["speed_limit"] = 50
        with pytest.raises(NetworkFormatError):
            load_network(write_net(tmp_path, bad))

    @pytest.mark.parametrize("length", [0.0, -3.0])
    def test_non_positive_length(self, tmp_path, length):
        bad = json.loads(json.dumps(MINIMAL))
        bad["arcs"][0]["length_m"] = length
        with pytest.raises(NetworkValidationError):
            load_network(write_net(tmp_path, bad))

    def test_duplicate_ids(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["nodes"].append({"id": "u", "x": 1.0, "y": 1.0})
        with pytest.raises(NetworkValidationError):
            load_network(write_net(tmp_path, bad))

    def test_self_loop_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["arcs"][0]["head"] = "u"
        with pytest.raises(NetworkValidationError):
            load_network(write_net(tmp_path, bad))

    def test_round_trip(self, tmp_path):
        net = load_network(write_net(tmp_path, MINIMAL))
        assert [vars(n) for n in net.nodes.values()] == MINIMAL["nodes"]
        assert [vars(a) for a in net.arcs.values()] == MINIMAL["arcs"]


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
