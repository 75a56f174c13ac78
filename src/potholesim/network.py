"""Street networks as directed multigraphs.

A street network is a set of nodes (intersections, with planar coordinates
in meters) joined by directed arcs (street segments / lanes) that carry an
explicit physical length.  Parallel arcs between the same ordered node pair
are first-class: the network keeps a pair index mapping (tail, head) to the
list of parallel arcs, and the weighting layer keeps, per pair, the least
arc the router relaxes over.

Networks are immutable after load.  Anything that changes arc weights lives
in the weighting module; this module only knows topology and lengths.

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
from dataclasses import dataclass
from pathlib import Path

from .inputs import InputError, finite, keys, read_json, section, string


class UnknownNodeError(LookupError):
    pass


class UnknownArcError(LookupError):
    pass


@dataclass(frozen=True)
class Node:
    id: str
    x: float
    y: float


@dataclass(frozen=True)
class Arc:
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
        self.nodes: dict[str, Node] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise InputError(f"duplicate node id {n.id!r}")
            if not (math.isfinite(n.x) and math.isfinite(n.y)):
                raise InputError(f"node {n.id!r} has non-finite coordinates")
            self.nodes[n.id] = n

        self.arcs: dict[str, Arc] = {}
        # (tail, head) -> its arc ids, sorted; weighting reads it too
        self._pairs: dict[tuple[str, str], list[str]] = {}
        for a in arcs:
            if a.id in self.arcs:
                raise InputError(f"duplicate arc id {a.id!r}")
            if a.tail not in self.nodes:
                raise InputError(f"arc {a.id!r} references missing node {a.tail!r}")
            if a.head not in self.nodes:
                raise InputError(f"arc {a.id!r} references missing node {a.head!r}")
            if a.tail == a.head:
                raise InputError(f"arc {a.id!r} is a self-loop at {a.tail!r}")
            if not (math.isfinite(a.length_m) and a.length_m > 0):
                raise InputError(f"arc {a.id!r} has non-positive length {a.length_m!r}")
            tail, head = self.nodes[a.tail], self.nodes[a.head]
            if not (math.isfinite(head.x - tail.x) and math.isfinite(head.y - tail.y)):
                raise InputError(f"arc {a.id!r} from {a.tail!r} to {a.head!r} has a "
                                 f"coordinate difference too large for a float")
            self.arcs[a.id] = a
            self._pairs.setdefault((a.tail, a.head), []).append(a.id)
        for ids in self._pairs.values():
            ids.sort()

        # tail node -> sorted head list and head node -> sorted tail list,
        # for deterministic adjacency walks in either direction
        self._out: dict[str, list[str]] = {n: [] for n in self.nodes}
        self._in: dict[str, list[str]] = {n: [] for n in self.nodes}
        for (u, v) in sorted(self._pairs):
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


def network_from_dict(raw) -> StreetNetwork:
    keys(raw, {"nodes", "arcs"}, set(), "network file")
    nodes = []
    for i, item in enumerate(section(raw, "nodes")):
        where = f"nodes[{i}]"
        keys(item, {"id", "x", "y"}, set(), where)
        nodes.append(Node(string(item, "id", where), finite(item, "x", where),
                          finite(item, "y", where)))
    arcs = []
    for i, item in enumerate(section(raw, "arcs")):
        where = f"arcs[{i}]"
        keys(item, {"id", "tail", "head", "length_m"}, set(), where)
        arcs.append(Arc(string(item, "id", where), string(item, "tail", where),
                        string(item, "head", where), finite(item, "length_m", where)))
    return StreetNetwork(nodes, arcs)
