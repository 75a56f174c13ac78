"""Damage-based arc weighting.

Every arc e carries the weight

    w(e) = d(e) * l(e)

where l(e) is the arc's physical length in meters and d(e) is its average
pothole depth in millimeters: d(e) = (sum of depths on e) / a for a > 0
potholes, and 0 for a clean arc (the formula's division is undefined at
a = 0; defining d = 0 there gives clean arcs weight 0 and leaves the
zero-weight tie-breaking to the routing layer).  Weights are therefore in
mm*m and are recomputed per arc whenever the registry ingests a report for
that arc, which keeps the incremental state identical to a full rebuild:
`preprocess` re-weights every arc through the same per-arc step as
`apply_update`.  That step sums the arc's depths in minting order from the
registry's per-arc index and takes its pair's minimum from the network's
pair index, looking the arc up once.

Dump format (CSV): arc_id, tail, head, length_m, pothole_count,
avg_damage_mm, weight.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .network import Arc, StreetNetwork
from .registry import PotholeRegistry


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


def _damage(arc_id: str, registry: PotholeRegistry) -> tuple[int, float]:
    """Count and mean depth of the potholes on one arc (0, 0.0 when clean),
    summed in minting order straight from the registry's per-arc index."""
    pids = registry._by_arc.get(arc_id, ())
    records = registry.records
    total = 0.0
    for pid in pids:
        total += records[pid].depth_mm
    count = len(pids)
    return count, (total / count if count else 0.0)


def _reweigh(wnet: WeightedNetwork, arc: Arc, registry: PotholeRegistry) -> None:
    """Set one arc's weight, then its pair's least (weight, length, arc id)
    from the network's pair index."""
    weights, arcs = wnet.arc_weights, wnet.base.arcs
    weights[arc.id] = _damage(arc.id, registry)[1] * arc.length_m
    pair = (arc.tail, arc.head)
    wnet.min_weights[pair] = min((weights[a], arcs[a].length_m, a)
                                 for a in wnet.base._pairs[pair])


def preprocess(net: StreetNetwork, registry: PotholeRegistry) -> WeightedNetwork:
    """Weight every arc from the current registry and set each pair minimum.

    Each arc is re-weighted as `apply_update` does it.  The last arc of a
    pair to be re-weighted sees every weight of that pair final, so the
    pair minima come out as if they were taken after all the weights.
    """
    wnet = WeightedNetwork(net, dict.fromkeys(net.arcs, 0.0), {})
    for arc in net.arcs.values():
        _reweigh(wnet, arc, registry)
    return wnet


def apply_update(wnet: WeightedNetwork, arc_id: str, registry: PotholeRegistry) -> WeightedNetwork:
    """Recompute one arc's weight and its pair's minimum.

    Leaves the WeightedNetwork state-identical to a full preprocess over
    the same registry.
    """
    _reweigh(wnet, wnet.base.arc(arc_id), registry)
    return wnet


CSV_FIELDS = ["arc_id", "tail", "head", "length_m", "pothole_count",
              "avg_damage_mm", "weight"]


def csv_rows(wnet: WeightedNetwork, registry: PotholeRegistry) -> list[list]:
    rows = [CSV_FIELDS]
    for arc_id in sorted(wnet.base.arcs):
        arc = wnet.base.arcs[arc_id]
        count, average = _damage(arc_id, registry)
        rows.append([arc.id, arc.tail, arc.head, arc.length_m,
                     count, average, wnet.arc_weights[arc_id]])
    return rows


def write_csv(wnet: WeightedNetwork, registry: PotholeRegistry, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(csv_rows(wnet, registry))
