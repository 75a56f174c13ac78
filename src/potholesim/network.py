"""Street networks as directed multigraphs.

A street network is a set of nodes (intersections, with planar coordinates
in meters) joined by directed arcs (street segments / lanes) that carry an
explicit physical length.  Parallel arcs between the same ordered node pair
are first-class: the network keeps a pair index mapping (tail, head) to the
list of parallel arcs, and the weighting layer keeps, per pair, the least
arc the router relaxes over.

Networks are immutable after load: nodes and arcs are NamedTuples, so a
record is a plain tuple that unpacks in field order.  Anything that changes
arc weights lives in the weighting module; this module only knows topology
and lengths.

File format (JSON, strict -- unknown keys are rejected), read by
`load_network`; the package never writes one.  Ids are non-empty strings and
coordinates and lengths finite numbers; every rejection raises InputError
naming the field, e.g. `nodes[1].x must be a finite number, got nan`.

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
        self.nodes: dict[str, Node] = {}
        by_id = self.nodes
        for n in nodes:
            node_id, x, y = n
            if node_id in by_id:
                raise InputError(f"duplicate node id {node_id!r}")
            if not (isfinite(x) and isfinite(y)):
                raise InputError(f"node {node_id!r} has non-finite coordinates")
            by_id[node_id] = n

        self.arcs: dict[str, Arc] = {}
        # (tail, head) -> its arc ids, sorted; weighting reads it too
        self._pairs: dict[tuple[str, str], list[str]] = {}
        arcs_by_id, pairs = self.arcs, self._pairs
        for a in arcs:
            arc_id, tail, head, length = a
            if arc_id in arcs_by_id:
                raise InputError(f"duplicate arc id {arc_id!r}")
            tail_node = by_id.get(tail)
            if tail_node is None:
                raise InputError(f"arc {arc_id!r} references missing node {tail!r}")
            head_node = by_id.get(head)
            if head_node is None:
                raise InputError(f"arc {arc_id!r} references missing node {head!r}")
            if tail == head:
                raise InputError(f"arc {arc_id!r} is a self-loop at {tail!r}")
            if not (isfinite(length) and length > 0):
                raise InputError(f"arc {arc_id!r} has non-positive length {length!r}")
            if not (isfinite(head_node.x - tail_node.x)
                    and isfinite(head_node.y - tail_node.y)):
                raise InputError(f"arc {arc_id!r} from {tail!r} to {head!r} has a "
                                 f"coordinate difference too large for a float")
            arcs_by_id[arc_id] = a
            ids = pairs.get((tail, head))
            if ids is None:
                pairs[tail, head] = [arc_id]
            else:
                ids.append(arc_id)
        for ids in pairs.values():
            ids.sort()

        # tail node -> sorted head list and head node -> sorted tail list,
        # for deterministic adjacency walks in either direction
        self._out: dict[str, list[str]] = {n: [] for n in by_id}
        self._in: dict[str, list[str]] = {n: [] for n in by_id}
        for (u, v) in sorted(pairs):
            self._out[u].append(v)
            self._in[v].append(u)

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

    def arcs_between(self, u: str, v: str) -> list[Arc]:
        """All arcs with tail u and head v, in arc-id order (empty if none)."""
        if u not in self.nodes:
            raise UnknownNodeError(u)
        if v not in self.nodes:
            raise UnknownNodeError(v)
        return [self.arcs[a] for a in self._pairs.get((u, v), [])]

    def successors(self, u: str) -> list[str]:
        """Head nodes reachable from u over a single arc, sorted."""
        if u not in self.nodes:
            raise UnknownNodeError(u)
        return self._out[u]

    def predecessors(self, v: str) -> list[str]:
        """Tail nodes that reach v over a single arc, sorted."""
        if v not in self.nodes:
            raise UnknownNodeError(v)
        return self._in[v]

    def out_arcs(self, u: str) -> list[Arc]:
        """All arcs with tail u, in arc-id order."""
        arcs = []
        for v in self.successors(u):
            arcs.extend(self.arcs[a] for a in self._pairs[(u, v)])
        arcs.sort(key=lambda a: a.id)
        return arcs


def load_network(path: str | Path) -> StreetNetwork:
    """Load and validate a network file.

    Raises InputError on malformed input and on semantic problems (dangling
    node references, non-positive lengths, duplicate ids, self-loops, and
    arcs whose head minus tail coordinates overflow a float).
    """
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
