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
Both paths share two steps: the arc weight, which sums the arc's depths in
minting order from the registry's per-arc index, and the pair minimum over
the arcs the network's pair index lists.  `preprocess` weighs the arcs the
registry lists (every other arc is clean) and then takes each pair's
minimum once; `apply_update` weighs one arc and retakes its pair's minimum.

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


def _mean_depth(pids: list[str], registry: PotholeRegistry) -> float:
    """The mean depth of the potholes `pids` (at least one), summed in
    minting order."""
    records = registry.records
    total = 0.0
    for pid in pids:
        total += records[pid].depth_mm
    return total / len(pids)


def _arc_weight(arc: Arc, registry: PotholeRegistry) -> float:
    """w(e) = d(e) * l(e) from the registry's current potholes on `arc`;
    0.0 for a clean arc, as d(e) = 0 times a finite length gives.  The
    registry lists an arc only once it has a pothole."""
    pids = registry.by_arc.get(arc.id)
    if pids is None:
        return 0.0
    return _mean_depth(pids, registry) * arc.length_m


def _pair_minimum(wnet: WeightedNetwork, ids: list[str]) -> tuple[float, float, str]:
    """The least (weight, length, arc id) over one pair's arcs `ids`."""
    weights, arcs = wnet.arc_weights, wnet.base.arcs
    if len(ids) == 1:
        arc_id = ids[0]
        return weights[arc_id], arcs[arc_id].length_m, arc_id
    return min((weights[a], arcs[a].length_m, a) for a in ids)


def preprocess(net: StreetNetwork, registry: PotholeRegistry) -> WeightedNetwork:
    """Weight every arc from the current registry and set each pair minimum.

    Every arc starts at the clean weight 0.0, and only the arcs the
    registry lists are weighed; then each pair's minimum is taken once.
    Both go through the same two steps as `apply_update`, so the state
    comes out identical to re-weighting every arc with `apply_update`.
    """
    arcs = net.arcs
    weights = dict.fromkeys(arcs, 0.0)  # in the network's arc order
    for arc_id in registry.by_arc:
        if arc_id in weights:
            weights[arc_id] = _arc_weight(arcs[arc_id], registry)
    wnet = WeightedNetwork(net, weights, {})
    min_weights = wnet.min_weights
    for pair, ids in net.pairs.items():
        min_weights[pair] = _pair_minimum(wnet, ids)
    return wnet


def apply_update(wnet: WeightedNetwork, arc_id: str, registry: PotholeRegistry) -> WeightedNetwork:
    """Recompute one arc's weight and its pair's minimum.

    Leaves the WeightedNetwork state-identical to a full preprocess over
    the same registry.
    """
    arc = wnet.base.arc(arc_id)
    wnet.arc_weights[arc_id] = _arc_weight(arc, registry)
    pair = (arc.tail, arc.head)
    wnet.min_weights[pair] = _pair_minimum(wnet, wnet.base.pairs[pair])
    return wnet


CSV_FIELDS = ["arc_id", "tail", "head", "length_m", "pothole_count",
              "avg_damage_mm", "weight"]


def csv_rows(wnet: WeightedNetwork, registry: PotholeRegistry) -> list[list]:
    rows = [CSV_FIELDS]
    for arc_id in sorted(wnet.base.arcs):
        arc = wnet.base.arcs[arc_id]
        pids = registry.by_arc.get(arc_id, ())
        rows.append([arc.id, arc.tail, arc.head, arc.length_m, len(pids),
                     _mean_depth(pids, registry) if pids else 0.0, wnet.arc_weights[arc_id]])
    return rows


def write_csv(wnet: WeightedNetwork, registry: PotholeRegistry, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(csv_rows(wnet, registry))
