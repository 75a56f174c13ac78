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

    {
      "nodes": [{"id": "A", "x": 0.0, "y": 0.0}, ...],
      "arcs":  [{"id": "ab", "tail": "A", "head": "B", "length_m": 100.0}, ...]
    }
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .inputs import NO_KEYS, InputError, finite, keys, read_json, section, string


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
        isfinite = math.isfinite
        # every earlier record is stored, so a refused record's position in
        # its list is the count stored so far (cheaper than enumerate)
        self.nodes: dict[str, Node] = {}
        by_id = self.nodes
        for n in nodes:
            node_id, x, y = n
            if node_id in by_id:
                raise InputError(f"nodes[{len(by_id)}].id: duplicate node id {node_id!r}")
            if not (isfinite(x) and isfinite(y)):
                axis, value = ("x", x) if not isfinite(x) else ("y", y)
                raise InputError(f"nodes[{len(by_id)}].{axis} must be a finite number, "
                                 f"got {value!r}")
            by_id[node_id] = n

        self.arcs: dict[str, Arc] = {}
        # (tail, head) -> its arc ids, sorted
        self.pairs: dict[tuple[str, str], list[str]] = {}
        arcs_by_id, pairs = self.arcs, self.pairs
        for a in arcs:
            arc_id, tail, head, length = a
            if arc_id in arcs_by_id:
                raise InputError(f"arcs[{len(arcs_by_id)}].id: duplicate arc id {arc_id!r}")
            tail_node = by_id.get(tail)
            if tail_node is None:
                raise InputError(f"arcs[{len(arcs_by_id)}].tail: unknown node {tail!r}")
            head_node = by_id.get(head)
            if head_node is None:
                raise InputError(f"arcs[{len(arcs_by_id)}].head: unknown node {head!r}")
            if tail == head:
                raise InputError(f"arcs[{len(arcs_by_id)}].head must differ from its tail "
                                 f"(no self-loops), got {head!r}")
            if not (isfinite(length) and length > 0):
                rule = "> 0" if isfinite(length) else "a finite number"
                raise InputError(f"arcs[{len(arcs_by_id)}].length_m must be {rule}, "
                                 f"got {length!r}")
            if not (isfinite(head_node.x - tail_node.x)
                    and isfinite(head_node.y - tail_node.y)):
                raise InputError(f"arcs[{len(arcs_by_id)}].head must lie within a float's "
                                 f"range of tail {tail!r} on both axes, got {head!r}")
            arcs_by_id[arc_id] = a
            ids = pairs.get((tail, head))
            if ids is None:
                pairs[tail, head] = [arc_id]
            else:
                ids.append(arc_id)
        for ids in pairs.values():
            ids.sort()

        # tail node -> its sorted heads and head node -> its sorted tails,
        # for deterministic adjacency walks in either direction
        self.heads: dict[str, list[str]] = {n: [] for n in by_id}
        self.tails: dict[str, list[str]] = {n: [] for n in by_id}
        for (u, v) in sorted(pairs):
            self.heads[u].append(v)
            self.tails[v].append(u)

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
    keys(raw, NETWORK_KEYS, NO_KEYS, "network file")
    nodes = []
    for i, item in enumerate(section(raw, "nodes")):
        where = f"nodes[{i}]"
        keys(item, NODE_KEYS, NO_KEYS, where)
        nodes.append(Node(string(item, "id", where), finite(item, "x", where),
                          finite(item, "y", where)))
    arcs = []
    for i, item in enumerate(section(raw, "arcs")):
        where = f"arcs[{i}]"
        keys(item, ARC_KEYS, NO_KEYS, where)
        arcs.append(Arc(string(item, "id", where), string(item, "tail", where),
                        string(item, "head", where), finite(item, "length_m", where)))
    return StreetNetwork(nodes, arcs)
