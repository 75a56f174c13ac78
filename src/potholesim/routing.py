"""Minimum-damage routing over the weighted multigraph.

`route` is the package's one shortest-path search: Dijkstra generalized to
multigraphs.  Instead of relaxing every parallel arc between an ordered
node pair, it relaxes once per pair using the pair's least arc from
`WeightedNetwork.min_weights`.  That collapse is sound because any path
through a non-minimal parallel arc is dominated by the same path through
the minimal one.

`route` also pins down ties, which matter because clean arcs weigh
exactly zero: among weight-equal paths it returns the one with minimum
total physical length, and among those the lexicographically smallest
arc-id sequence.  Its searches run on exact rational arithmetic, so tie
detection never depends on float rounding; the reported totals are plain
float sums over the chosen arcs.  The path is rebuilt from the pair minima
alone, keeping at each node the least id among those on an optimal path.

Route trace format: one line `arc_id tail head weight length` per arc,
then `TOTAL weight length`.  Vehicles ask for routes through `Server.query`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .weighting import WeightedNetwork


class UnreachableError(Exception):
    """No directed path exists from the source to the requested destination."""


@dataclass(frozen=True)
class Route:
    source: str
    dest: str
    arcs: tuple[str, ...]
    total_weight: float
    total_length_m: float


LexDist = tuple[Fraction, Fraction]  # (total weight, total length)


def _lex_dijkstra(wnet: WeightedNetwork, start: str, forward: bool) -> dict[str, LexDist]:
    """Exact (weight, length)-lexicographic distances from/to `start`.

    With forward=False the multigraph is traversed against arc direction,
    giving distances *to* `start`.  Per ordered pair only the pair minimum
    is relaxed; parallel arcs worse on (weight, length) cannot appear on
    any (weight, length)-optimal path.
    """
    net = wnet.base
    neighbours = net.heads if forward else net.tails

    zero = Fraction(0)
    dist: dict[str, LexDist] = {start: (zero, zero)}
    settled: set[str] = set()
    heap: list[tuple[Fraction, Fraction, str]] = [(zero, zero, start)]
    while heap:
        dw, dl, u = heapq.heappop(heap)
        if u in settled or (dw, dl) > dist[u]:
            continue
        settled.add(u)
        for v in neighbours[u]:
            w, l, _ = wnet.min_weights[(u, v) if forward else (v, u)]
            cand = (dw + Fraction(w), dl + Fraction(l))
            if v not in dist or cand < dist[v]:
                dist[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], v))
    return dist


def route(wnet: WeightedNetwork, source: str, dest: str) -> Route:
    """Optimal route from source to dest under the tie-break hierarchy
    (total weight, then total length, then lexicographic arc-id sequence).

    Raises UnreachableError when no directed path exists, and ValueError
    when an arc's weight is not a finite number >= 0.
    """
    net = wnet.base
    net.node(source)
    net.node(dest)
    for arc_id, w in wnet.arc_weights.items():
        if not 0.0 <= w < math.inf:  # also refuses NaN
            raise ValueError(f"weight {w} on arc {arc_id!r} is not a finite number >= 0")
    if source == dest:
        return Route(source, dest, (), 0.0, 0.0)

    dist = _lex_dijkstra(wnet, source, forward=True)
    if dest not in dist:
        raise UnreachableError(f"no path from {source!r} to {dest!r}")
    rdist = _lex_dijkstra(wnet, dest, forward=False)
    target = dist[dest]

    # Every prefix of an optimal path is itself (weight, length)-optimal, so
    # standing at u the accumulated cost equals dist[u]; an arc e=(u,v) lies
    # on some optimal path iff dist[u] + cost(e) + rdist[v] hits the target.
    # Only a pair's minimum can (a worse parallel arc overshoots, and among
    # tied ones the minimum has the least id).  Taking the smallest feasible
    # arc id at each step yields the lexicographically least optimal sequence.
    arcs: list[str] = []
    u = source
    while u != dest:
        du = dist[u]
        chosen = head = None
        for v in net.heads[u]:
            r = rdist.get(v)
            w, l, arc_id = wnet.min_weights[u, v]
            if r is not None and (chosen is None or arc_id < chosen) and (
                    du[0] + Fraction(w) + r[0], du[1] + Fraction(l) + r[1]) == target:
                chosen, head = arc_id, v
        if chosen is None or len(arcs) > len(net.arcs):
            raise AssertionError("optimal-path reconstruction lost the target")
        arcs.append(chosen)
        u = head

    total_w = 0.0
    total_l = 0.0
    for arc_id in arcs:
        total_w += wnet.arc_weights[arc_id]
        total_l += net.arcs[arc_id].length_m
    return Route(source, dest, tuple(arcs), total_w, total_l)


def fmt_num(x: float) -> str:
    """Render integral floats without a trailing .0 (route traces, CLI)."""
    if math.isfinite(x) and x == int(x):
        return str(int(x))
    return repr(x)


def format_route_trace(wnet: WeightedNetwork, rt: Route) -> str:
    lines = []
    for arc_id in rt.arcs:
        arc = wnet.base.arcs[arc_id]
        lines.append(f"{arc.id} {arc.tail} {arc.head} "
                     f"{fmt_num(wnet.arc_weights[arc.id])} {fmt_num(arc.length_m)}")
    lines.append(f"TOTAL {fmt_num(rt.total_weight)} {fmt_num(rt.total_length_m)}")
    return "\n".join(lines) + "\n"
