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
`load_network`; the package never writes one:

    {
      "nodes": [{"id": "A", "x": 0.0, "y": 0.0}, ...],
      "arcs":  [{"id": "ab", "tail": "A", "head": "B", "length_m": 100.0}, ...]
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path


class NetworkError(ValueError):
    """Base class for network file problems."""


class NetworkFormatError(NetworkError):
    """The file is not structurally valid (bad JSON, wrong shape, unknown keys)."""


class NetworkValidationError(NetworkError):
    """The file parsed but violates a semantic rule (dangling ref, bad length...)."""


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
                raise NetworkValidationError(f"duplicate node id {n.id!r}")
            if not (math.isfinite(n.x) and math.isfinite(n.y)):
                raise NetworkValidationError(f"node {n.id!r} has non-finite coordinates")
            self.nodes[n.id] = n

        self.arcs: dict[str, Arc] = {}
        self._pairs: dict[tuple[str, str], list[str]] = {}
        for a in arcs:
            if a.id in self.arcs:
                raise NetworkValidationError(f"duplicate arc id {a.id!r}")
            if a.tail not in self.nodes:
                raise NetworkValidationError(f"arc {a.id!r} references missing node {a.tail!r}")
            if a.head not in self.nodes:
                raise NetworkValidationError(f"arc {a.id!r} references missing node {a.head!r}")
            if a.tail == a.head:
                raise NetworkValidationError(f"arc {a.id!r} is a self-loop at {a.tail!r}")
            if not (math.isfinite(a.length_m) and a.length_m > 0):
                raise NetworkValidationError(f"arc {a.id!r} has non-positive length {a.length_m!r}")
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

    def pairs(self) -> list[tuple[str, str]]:
        """All ordered node pairs that have at least one arc, sorted."""
        return sorted(self._pairs)

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


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise NetworkFormatError(f"unknown keys {sorted(unknown)} in {where}")
    missing = allowed - set(obj)
    if missing:
        raise NetworkFormatError(f"missing keys {sorted(missing)} in {where}")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NetworkFormatError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise NetworkFormatError(f"{where} must be a non-empty string, got {value!r}")
    return value


def load_network(path: str | Path) -> StreetNetwork:
    """Load and validate a network file.

    Raises NetworkFormatError on malformed input and NetworkValidationError
    on semantic problems (dangling node references, non-positive lengths,
    duplicate ids, self-loops).
    """
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"{path}: invalid JSON: {exc}") from exc
    return network_from_dict(raw)


def network_from_dict(raw) -> StreetNetwork:
    if not isinstance(raw, dict):
        raise NetworkFormatError("network file must contain a JSON object")
    _require_keys(raw, {"nodes", "arcs"}, "network file")
    if not isinstance(raw["nodes"], list) or not isinstance(raw["arcs"], list):
        raise NetworkFormatError("'nodes' and 'arcs' must be lists")

    nodes = []
    for i, item in enumerate(raw["nodes"]):
        if not isinstance(item, dict):
            raise NetworkFormatError(f"nodes[{i}] must be an object")
        _require_keys(item, {"id", "x", "y"}, f"nodes[{i}]")
        nodes.append(Node(_as_str(item["id"], f"nodes[{i}].id"),
                          _as_number(item["x"], f"nodes[{i}].x"),
                          _as_number(item["y"], f"nodes[{i}].y")))
    arcs = []
    for i, item in enumerate(raw["arcs"]):
        if not isinstance(item, dict):
            raise NetworkFormatError(f"arcs[{i}] must be an object")
        _require_keys(item, {"id", "tail", "head", "length_m"}, f"arcs[{i}]")
        arcs.append(Arc(_as_str(item["id"], f"arcs[{i}].id"),
                        _as_str(item["tail"], f"arcs[{i}].tail"),
                        _as_str(item["head"], f"arcs[{i}].head"),
                        _as_number(item["length_m"], f"arcs[{i}].length_m")))
    return StreetNetwork(nodes, arcs)

