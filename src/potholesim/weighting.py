"""Damage-based arc weighting.

Every arc e carries the weight

    w(e) = d(e) * l(e)

where l(e) is the arc's physical length in meters and d(e) is its average
pothole depth in millimeters: d(e) = (sum of depths on e) / a for a > 0
potholes, and 0 for a clean arc (the formula's division is undefined at
a = 0; defining d = 0 there gives clean arcs weight 0 and leaves the
zero-weight tie-breaking to the routing layer).  Weights are therefore in
mm*m and are recomputed per arc whenever the registry ingests a report for
that arc, which keeps the incremental state identical to a full rebuild.

Dump format (CSV): arc_id, tail, head, length_m, pothole_count,
avg_damage_mm, weight.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .network import StreetNetwork
from .registry import PotholeRegistry


class ArcDamage(NamedTuple):
    damage_sum: float
    count: int
    average: float


def arc_damage(arc_id: str, registry: PotholeRegistry) -> ArcDamage:
    """Sum, count and average of pothole depths on one arc (0 when clean)."""
    records = registry.potholes_on_arc(arc_id)
    total = 0.0
    for rec in records:
        total += rec.depth_mm
    count = len(records)
    return ArcDamage(total, count, total / count if count else 0.0)


@dataclass
class WeightedNetwork:
    """A street network annotated with current per-arc weights.

    `min_weights` maps every ordered pair with at least one arc to that
    pair's least arc under (weight, length, arc id), as the tuple
    (weight, length_m, arc_id): the one arc per pair the router relaxes.
    preprocess/apply_update keep it consistent with `arc_weights`.
    """

    base: StreetNetwork
    arc_weights: dict[str, float]
    min_weights: dict[tuple[str, str], tuple[float, float, str]]

    def weight(self, arc_id: str) -> float:
        self.base.arc(arc_id)
        return self.arc_weights[arc_id]


def _set_pair_min(wnet: WeightedNetwork, u: str, v: str) -> None:
    wnet.min_weights[(u, v)] = min((wnet.arc_weights[a.id], a.length_m, a.id)
                                   for a in wnet.base.arcs_between(u, v))


def preprocess(net: StreetNetwork, registry: PotholeRegistry) -> WeightedNetwork:
    """Weight every arc from the current registry and set each pair minimum."""
    wnet = WeightedNetwork(net, {}, {})
    for arc_id in net.arcs:
        arc = net.arcs[arc_id]
        wnet.arc_weights[arc_id] = arc_damage(arc_id, registry).average * arc.length_m
    for u, v in net.pairs():
        _set_pair_min(wnet, u, v)
    return wnet


def apply_update(wnet: WeightedNetwork, arc_id: str, registry: PotholeRegistry) -> WeightedNetwork:
    """Recompute one arc's weight and its pair's minimum.

    Leaves the WeightedNetwork state-identical to a full preprocess over
    the same registry.
    """
    arc = wnet.base.arc(arc_id)
    wnet.arc_weights[arc_id] = arc_damage(arc_id, registry).average * arc.length_m
    _set_pair_min(wnet, arc.tail, arc.head)
    return wnet


CSV_FIELDS = ["arc_id", "tail", "head", "length_m", "pothole_count",
              "avg_damage_mm", "weight"]


def csv_rows(wnet: WeightedNetwork, registry: PotholeRegistry) -> list[list]:
    rows = [CSV_FIELDS]
    for arc_id in sorted(wnet.base.arcs):
        arc = wnet.base.arcs[arc_id]
        dmg = arc_damage(arc_id, registry)
        rows.append([arc.id, arc.tail, arc.head, arc.length_m,
                     dmg.count, dmg.average, wnet.arc_weights[arc_id]])
    return rows


def write_csv(wnet: WeightedNetwork, registry: PotholeRegistry, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(csv_rows(wnet, registry))
