"""Repair prioritization from update traffic.

Traffic intensity for a pothole is the number of update events it received
in the trailing minute -- the half-open window (at - 60 000 ms, at], so an
event landing exactly on the window's trailing edge counts once and never
twice across back-to-back evaluations.  The priority report ranks every
registered pothole by intensity descending, ties by depth descending, then
by pothole id ascending (ids are minted as increasing integers).

Report format (CSV): rank, pothole_id, arc_id, offset_m, depth_mm,
intensity_per_min.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .registry import PotholeRegistry, UnknownPotholeError, UpdateEvent

WINDOW_MS = 60_000


@dataclass
class IntensityWindow:
    """Per-pothole update counts in the trailing window ending at `at_ms`."""

    at_ms: int
    window_ms: int = WINDOW_MS
    counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(cls, events: list[UpdateEvent], at_ms: int,
              window_ms: int = WINDOW_MS) -> "IntensityWindow":
        win = cls(at_ms, window_ms)
        lo = at_ms - window_ms
        for e in events:
            if lo < e.timestamp_ms <= at_ms:
                win.counts[e.pothole_id] = win.counts.get(e.pothole_id, 0) + 1
        return win


def traffic_intensity(events: list[UpdateEvent], pothole_id: str, at_ms: int) -> int:
    """Updates per minute for one pothole at the evaluation instant."""
    if not any(e.pothole_id == pothole_id for e in events):
        raise UnknownPotholeError(pothole_id)
    return IntensityWindow.build(events, at_ms).counts.get(pothole_id, 0)


@dataclass(frozen=True)
class PriorityEntry:
    rank: int
    pothole_id: str
    arc: str
    offset_m: float
    depth_mm: float
    intensity_per_min: int


def priority_report(registry: PotholeRegistry, events: list[UpdateEvent],
                    at_ms: int) -> list[PriorityEntry]:
    """All registered potholes, ranked for repair."""
    window = IntensityWindow.build(events, at_ms)
    keyed = []
    for rec in registry.records.values():
        intensity = window.counts.get(rec.id, 0)
        keyed.append(((-intensity, -rec.depth_mm, int(rec.id)), rec, intensity))
    keyed.sort(key=lambda item: item[0])
    return [PriorityEntry(rank, rec.id, rec.arc, rec.offset_m, rec.depth_mm, intensity)
            for rank, (_, rec, intensity) in enumerate(keyed, start=1)]


CSV_FIELDS = ["rank", "pothole_id", "arc_id", "offset_m", "depth_mm", "intensity_per_min"]


def report_rows(entries: list[PriorityEntry]) -> list[list]:
    rows = [CSV_FIELDS]
    for e in entries:
        rows.append([e.rank, e.pothole_id, e.arc, e.offset_m, e.depth_mm,
                     e.intensity_per_min])
    return rows


def write_csv(entries: list[PriorityEntry], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(report_rows(entries))
