"""Street networks as directed multigraphs.

A street network is a set of nodes (intersections, with planar coordinates
in meters) joined by directed arcs (street segments / lanes) that carry an
explicit physical length.  Parallel arcs between the same ordered node pair
are first-class.  Three public indexes, which the other modules read
directly, map (tail, head) to its arc ids in id order (`pairs`) and each
node to its sorted heads (`heads`) and tails (`tails`); `node()` and
`arc()` check ids that come from outside.

Networks are immutable after load: nodes and arcs are NamedTuples, so a
record is a plain tuple that unpacks in field order.  Anything that changes
arc weights lives in the weighting module; this module only knows topology
and lengths.

File format (JSON, strict -- unknown keys are rejected), read by
`load_network`; the package never writes one.  Ids are non-empty strings and
coordinates and lengths finite numbers; every rejection raises InputError
naming the field, e.g. `nodes[1].x must be a finite number, got nan`,
`nodes[2].id: duplicate node id 'u'` or `arcs[0].head: unknown node 'ghost'`.
The records are read in one pass, nodes before arcs and each in file order,
and each record is checked in full before the next: a node's id, x, y and
then whether its id is a duplicate; an arc's id, whether that id is a
duplicate, tail, head, the self-loop, length_m and the coordinate range.  So
an input with several faults is refused for its first faulty record.
`StreetNetwork(nodes, arcs)` holds its records to the same rules.

    {
      "nodes": [{"id": "A", "x": 0.0, "y": 0.0}, ...],
      "arcs":  [{"id": "ab", "tail": "A", "head": "B", "length_m": 100.0}, ...]
    }
"""

from __future__ import annotations

import math
from bisect import insort
from pathlib import Path
from typing import NamedTuple

from .inputs import NO_KEYS, InputError, finite, keys, lookup, read_json, section, string


class UnknownNodeError(LookupError):
    pass


class UnknownArcError(LookupError):
    pass


class Node(NamedTuple):
    id: str
    x: float
    y: float


class Arc(NamedTuple):
    id: str
    tail: str
    head: str
    length_m: float


class StreetNetwork:
    """Directed multigraph of nodes and length-carrying arcs.

    Node and arc ids are opaque strings; every deterministic tie-break in
    this package orders them by lexicographic byte order.  Self-loops are
    rejected: a street segment from a point back to itself has no routing
    meaning and would create zero-progress cycles.
    """

    def __init__(self, nodes: list[Node], arcs: list[Arc]):
        """The network of `nodes` and `arcs`, held to every rule of a network
        file: InputError names a record's position and field as
        `load_network` would."""
        self._load({"nodes": [n._asdict() for n in nodes],
                    "arcs": [a._asdict() for a in arcs]})

    def _load(self, raw) -> None:
        """Check the network document `raw` and fill the indexes in one pass
        over its records (see `load_network`)."""
        keys(raw, NETWORK_KEYS, NO_KEYS, "network file")
        # a record is built as the tuple it is, without the NamedTuple's
        # Python-level __new__; and a record with exactly the keys its kind
        # takes passes `keys` without the call
        new, isfinite = tuple.__new__, math.isfinite
        self.nodes: dict[str, Node] = {}
        nodes = self.nodes
        for i, item in enumerate(section(raw, "nodes")):
            where = ("nodes", i)
            if type(item) is not dict or item.keys() != NODE_KEYS:
                keys(item, NODE_KEYS, NO_KEYS, where)
            node_id = string(item, "id", where)
            node = new(Node, (node_id, finite(item, "x", where), finite(item, "y", where)))
            if node_id in nodes:
                raise InputError(f"nodes[{i}].id: duplicate node id {node_id!r}")
            nodes[node_id] = node

        self.arcs: dict[str, Arc] = {}
        # (tail, head) -> its arc ids, sorted
        self.pairs: dict[tuple[str, str], list[str]] = {}
        # tail node -> its sorted heads and head node -> its sorted tails,
        # for deterministic adjacency walks in either direction
        self.heads: dict[str, list[str]] = {n: [] for n in nodes}
        self.tails: dict[str, list[str]] = {n: [] for n in nodes}
        arcs, pairs, heads, tails = self.arcs, self.pairs, self.heads, self.tails
        for i, item in enumerate(section(raw, "arcs")):
            where = ("arcs", i)
            if type(item) is not dict or item.keys() != ARC_KEYS:
                keys(item, ARC_KEYS, NO_KEYS, where)
            arc_id = string(item, "id", where)
            if arc_id in arcs:
                raise InputError(f"arcs[{i}].id: duplicate arc id {arc_id!r}")
            # every node id passed the string rule when its node was read, so
            # a known id needs no second check; `lookup` names any other value
            tail, head = item["tail"], item["head"]
            tail_node = nodes.get(tail) if type(tail) is str else None
            if tail_node is None:
                tail_node = lookup(nodes.__getitem__, item, "tail", where, "node")
            head_node = nodes.get(head) if type(head) is str else None
            if head_node is None:
                head_node = lookup(nodes.__getitem__, item, "head", where, "node")
            if tail == head:
                raise InputError(f"arcs[{i}].head must differ from its tail "
                                 f"(no self-loops), got {head!r}")
            length = finite(item, "length_m", where)
            if not length > 0:
                raise InputError(f"arcs[{i}].length_m must be > 0, got {length!r}")
            _, tail_x, tail_y = tail_node
            _, head_x, head_y = head_node
            if not (isfinite(head_x - tail_x) and isfinite(head_y - tail_y)):
                raise InputError(f"arcs[{i}].head must lie within a float's range of "
                                 f"tail {tail!r} on both axes, got {head!r}")
            arcs[arc_id] = new(Arc, (arc_id, tail, head, length))
            pair = (tail, head)
            ids = pairs.get(pair)
            if ids is None:
                pairs[pair] = [arc_id]
                heads[tail].append(head)
                tails[head].append(tail)
            else:
                insort(ids, arc_id)
        for adjacent in (heads, tails):
            for ends in adjacent.values():
                ends.sort()

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def arc(self, arc_id: str) -> Arc:
        try:
            return self.arcs[arc_id]
        except KeyError:
            raise UnknownArcError(arc_id) from None


def load_network(path: str | Path) -> StreetNetwork:
    """Load and validate a network file: InputError names a malformed field,
    a duplicate id, an unknown node, a self-loop, a length <= 0 or an arc
    whose head minus tail coordinates overflow a float."""
    return network_from_dict(read_json(path))


NETWORK_KEYS = frozenset({"nodes", "arcs"})
NODE_KEYS = frozenset({"id", "x", "y"})
ARC_KEYS = frozenset({"id", "tail", "head", "length_m"})


def network_from_dict(raw) -> StreetNetwork:
    net = StreetNetwork.__new__(StreetNetwork)
    net._load(raw)
    return net
