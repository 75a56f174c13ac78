import json
import math
import re

import pytest

from potholesim.inputs import InputError
from potholesim.network import Arc, Node, StreetNetwork, UnknownNodeError, load_network


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
        with pytest.raises(InputError, match=r"^arcs\[0\]\.head: unknown node 'ghost'$"):
            load_network(write_net(tmp_path, bad))

    def test_parallel_arcs_admitted(self, tmp_path):
        two = json.loads(json.dumps(MINIMAL))
        two["arcs"].append({"id": "a2", "tail": "u", "head": "v", "length_m": 5.0})
        net = load_network(write_net(tmp_path, two))
        assert net.pairs == {("u", "v"): ["a1", "a2"]}

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
        with pytest.raises(InputError) as err:
            load_network(write_net(tmp_path, bad))
        assert str(err.value) == f"arcs[0].length_m must be > 0, got {length!r}"

    def test_duplicate_ids(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["nodes"].append({"id": "u", "x": 1.0, "y": 1.0})
        with pytest.raises(InputError, match=r"^nodes\[2\]\.id: duplicate node id 'u'$"):
            load_network(write_net(tmp_path, bad))

    def test_self_loop_rejected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["arcs"][0]["head"] = "u"
        with pytest.raises(InputError) as err:
            load_network(write_net(tmp_path, bad))
        assert str(err.value) == ("arcs[0].head must differ from its tail (no self-loops), "
                                  "got 'u'")

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_overflowing_coordinate_difference_rejected(self, tmp_path, axis):
        # both coordinates are finite, but head - tail overflows to inf
        bad = json.loads(json.dumps(MINIMAL))
        bad["nodes"][0][axis] = -1.7e308
        bad["nodes"][1][axis] = 1.7e308
        with pytest.raises(InputError) as err:
            load_network(write_net(tmp_path, bad))
        assert str(err.value) == ("arcs[0].head must lie within a float's range of tail 'u' "
                                  "on both axes, got 'v'")

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


@pytest.mark.parametrize("nodes, arcs, message", [
    ([Node("u", 0.0, 0.0), Node("v", math.nan, 0.0)], [],
     "nodes[1].x must be a finite number, got nan"),
    ([Node("u", 0.0, -math.inf)], [], "nodes[0].y must be a finite number, got -inf"),
    ([Node("u", 0.0, 0.0), Node("v", 1.0, 0.0)], [Arc("a1", "u", "v", math.inf)],
     "arcs[0].length_m must be a finite number, got inf"),
], ids=["nan-x", "inf-y", "inf-length"])
def test_constructor_names_a_non_finite_field(nodes, arcs, message):
    # the loader refuses these first; a network built in code reaches this check
    with pytest.raises(InputError) as err:
        StreetNetwork(nodes, arcs)
    assert str(err.value) == message


class TestArcsBetween:
    """`pairs` lists the arcs between an ordered node pair."""

    def test_no_arcs_between(self, parallel_net):
        assert ("u", "u") not in parallel_net.pairs
        assert sorted(parallel_net.pairs) == [("u", "v"), ("v", "u")]

    def test_parallel_arcs_in_id_order(self, parallel_net):
        assert parallel_net.pairs[("u", "v")] == ["a1", "a2"]

    def test_directedness(self, parallel_net):
        assert parallel_net.pairs[("v", "u")] == ["r1"]

    def test_unknown_node(self, parallel_net):
        # the indexes hold only known nodes; `node()` checks an id from outside
        assert "ghost" not in parallel_net.heads and "ghost" not in parallel_net.tails
        with pytest.raises(UnknownNodeError):
            parallel_net.node("ghost")


def test_predecessors_sorted_and_directed(triangle_net):
    assert triangle_net.tails == {"s": [], "m": ["s"], "d": ["m", "s"]}


def test_successors_sorted_and_directed(triangle_net):
    assert triangle_net.heads == {"s": ["d", "m"], "m": ["d"], "d": []}


def test_parallel_arcs_make_one_neighbour(parallel_net):
    assert parallel_net.heads == {"u": ["v"], "v": ["u"]}
    assert parallel_net.tails == {"u": ["v"], "v": ["u"]}


def test_isolated_node_has_empty_lists():
    net = StreetNetwork([Node("u", 0.0, 0.0), Node("v", 1.0, 0.0), Node("w", 2.0, 0.0)],
                        [Arc("a1", "u", "v", 1.0)])
    assert net.heads["w"] == [] and net.tails["w"] == []
    assert list(net.heads) == list(net.tails) == ["u", "v", "w"]
