import json
import math
import re

import pytest

from potholesim.inputs import InputError
from potholesim.network import (Arc, Node, StreetNetwork, UnknownNodeError, load_network,
                                network_from_dict)


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
    # a network built in code is held to the rules of a network file
    with pytest.raises(InputError) as err:
        StreetNetwork(nodes, arcs)
    assert str(err.value) == message


@pytest.mark.parametrize("nodes, arcs, message", [
    ([Node(1, 0.0, 0.0)], [], "nodes[0].id must be a non-empty string, got 1"),
    ([Node("u", "0", 0.0)], [], "nodes[0].x must be a finite number, got '0'"),
    ([Node("u", 0.0, 0.0), Node("v", 1.0, 0.0)], [Arc("a1", ["u"], "v", 1.0)],
     "arcs[0].tail must be a non-empty string, got ['u']"),
    ([Node("u", 0.0, 0.0), Node("v", 1.0, 0.0)], [Arc("a1", "u", "v", True)],
     "arcs[0].length_m must be a finite number, got True"),
], ids=["int-id", "string-x", "list-tail", "bool-length"])
def test_constructor_names_a_mistyped_field(nodes, arcs, message):
    with pytest.raises(InputError) as err:
        StreetNetwork(nodes, arcs)
    assert str(err.value) == message


def test_constructor_stores_integer_coordinates_and_lengths_as_floats():
    net = StreetNetwork([Node("u", 0, 0), Node("v", 3, 4)], [Arc("a1", "u", "v", 5)])
    assert net.nodes["v"] == Node("v", 3.0, 4.0) and type(net.nodes["v"].x) is float
    assert type(net.arcs["a1"].length_m) is float


# arcs out of id order, a parallel pair whose larger id comes first, and an
# isolated node: the indexes' insertion order and sorting both show
INDEX_NODES = [("w", 2.0, 1.0), ("u", 0.0, 0.0), ("v", 1.0, 0.0), ("z", 5.0, 5.0)]
INDEX_ARCS = [("b2", "u", "v", 2.0), ("a9", "v", "w", 1.5), ("b1", "u", "v", 3.0),
              ("c0", "w", "u", 2.5), ("a1", "u", "w", 2.0), ("d4", "v", "u", 1.0)]


def test_loaded_records_are_named_tuples_indexed_as_built_directly():
    raw = {"nodes": [dict(zip(Node._fields, n)) for n in INDEX_NODES],
           "arcs": [dict(zip(Arc._fields, a)) for a in INDEX_ARCS]}
    loaded = network_from_dict(raw)
    built = StreetNetwork([Node(*n) for n in INDEX_NODES], [Arc(*a) for a in INDEX_ARCS])
    for net in (loaded, built):
        assert all(type(n) is Node for n in net.nodes.values())
        assert all(type(a) is Arc for a in net.arcs.values())
        assert [n._asdict() for n in net.nodes.values()] == raw["nodes"]
        assert [a._asdict() for a in net.arcs.values()] == raw["arcs"]
        assert net.arcs["b1"].length_m == 3.0 and net.nodes["w"].y == 1.0
    # the pairs in the order of their first arc, each pair's ids sorted; every
    # node with its sorted heads and tails, in node order
    pairs = [(("u", "v"), ["b1", "b2"]), (("v", "w"), ["a9"]), (("w", "u"), ["c0"]),
             (("u", "w"), ["a1"]), (("v", "u"), ["d4"])]
    heads = [("w", ["u"]), ("u", ["v", "w"]), ("v", ["u", "w"]), ("z", [])]
    tails = [("w", ["u", "v"]), ("u", ["v", "w"]), ("v", ["u"]), ("z", [])]
    for net in (loaded, built):
        assert list(net.pairs.items()) == pairs
        assert list(net.heads.items()) == heads
        assert list(net.tails.items()) == tails
        assert list(net.nodes) == ["w", "u", "v", "z"]
        assert list(net.arcs) == [a[0] for a in INDEX_ARCS]


@pytest.mark.parametrize("edit, message", [
    # a later record's field fault is not reached: the duplicate node comes first
    (lambda raw: (raw["nodes"].append({"id": "u", "x": 1.0, "y": 1.0}),
                  raw["arcs"][0].update(tail=["u"])),
     "nodes[2].id: duplicate node id 'u'"),
    # within an arc, the id (and whether it is a duplicate) comes before its tail
    (lambda raw: raw["arcs"].append({"id": "a1", "tail": "ghost", "head": "v",
                                     "length_m": -1.0}),
     "arcs[1].id: duplicate arc id 'a1'"),
    (lambda raw: raw["arcs"].append({"id": "a2", "tail": "ghost", "head": [],
                                     "length_m": -1.0}),
     "arcs[1].tail: unknown node 'ghost'"),
    (lambda raw: raw["arcs"].append({"id": "a2", "tail": "u", "head": "u",
                                     "length_m": "x"}),
     "arcs[1].head must differ from its tail (no self-loops), got 'u'"),
], ids=["node-before-arc", "duplicate-id-first", "tail-before-head", "self-loop-before-length"])
def test_several_faults_name_the_first_faulty_record(edit, message):
    raw = json.loads(json.dumps(MINIMAL))
    edit(raw)
    with pytest.raises(InputError) as err:
        network_from_dict(raw)
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
