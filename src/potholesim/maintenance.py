"""Repair prioritization from update traffic.

Traffic intensity for a pothole is the number of update events it received
in the trailing minute -- the half-open window (at - 60 000 ms, at], so an
event landing exactly on the window's trailing edge counts once and never
twice across back-to-back evaluations.  `window_counts` counts every
pothole in one pass over the update log.  The priority report ranks every
registered pothole by intensity descending, ties by depth descending, then
by pothole id ascending as an integer (a registry read back from a CSV
keeps file order), with three stable sorts on one key each, least
significant first.

Report format (CSV): rank, pothole_id, arc_id, offset_m, depth_mm,
intensity_per_min.
"""

from __future__ import annotations

import csv
from collections import Counter
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .registry import PotholeRegistry, UpdateEvent

WINDOW_MS = 60_000


def window_counts(events: list[UpdateEvent], at_ms: int) -> Counter[str]:
    """Update events per pothole id in the trailing window ending at `at_ms`."""
    lo = at_ms - WINDOW_MS
    return Counter([e.pothole_id for e in events if lo < e.timestamp_ms <= at_ms])


class PriorityEntry(NamedTuple):
    rank: int
    pothole_id: str
    arc: str
    offset_m: float
    depth_mm: float
    intensity_per_min: int


def priority_report(registry: PotholeRegistry, events: list[UpdateEvent],
                    at_ms: int) -> list[PriorityEntry]:
    """All registered potholes, ranked for repair."""
    count = window_counts(events, at_ms).get
    ranked = sorted(registry.records.values(), key=lambda rec: int(rec.id))
    ranked.sort(key=attrgetter("depth_mm"), reverse=True)
    ranked.sort(key=lambda rec: count(rec.id, 0), reverse=True)
    return [PriorityEntry(rank, rec.id, rec.arc, rec.offset_m, rec.depth_mm, count(rec.id, 0))
            for rank, rec in enumerate(ranked, start=1)]


CSV_FIELDS = ["rank", "pothole_id", "arc_id", "offset_m", "depth_mm", "intensity_per_min"]


def report_rows(entries: list[PriorityEntry]) -> list:
    """The header, then one row per entry: its fields are in column order."""
    return [CSV_FIELDS, *entries]


def write_csv(entries: list[PriorityEntry], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(report_rows(entries))
