"""Repair prioritization from update traffic.

Traffic intensity for a pothole is the number of update events it received
in the trailing minute -- the half-open window (at - 60 000 ms, at], so an
event landing exactly on the window's trailing edge counts once and never
twice across back-to-back evaluations.  `window_counts` counts every
pothole in one pass over the update log.  The priority report ranks every
registered pothole by intensity descending, ties by depth descending, then
by pothole id ascending as an integer (a registry read back from a CSV
keeps file order).  After that pass it reads each record's fields and
count into one row, sorts the rows three times, stably and on one column
each (integer id, then depth, then count), and builds one entry per row.

Report format (CSV): rank, pothole_id, arc_id, offset_m, depth_mm,
intensity_per_min.
"""

from __future__ import annotations

import csv
from collections import Counter
from itertools import repeat
from operator import attrgetter, itemgetter
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
    # the registry keys each record by its id
    ids = list(registry.records)
    records = registry.records.values()
    # rows of (integer id, id, arc, offset, depth, count), each column read
    # by C-level calls and each record's count looked up once
    rows = list(zip(map(int, ids), ids, map(attrgetter("arc"), records),
                    map(attrgetter("offset_m"), records), map(attrgetter("depth_mm"), records),
                    map(window_counts(events, at_ms).get, ids, repeat(0))))
    rows.sort(key=itemgetter(0))
    rows.sort(key=itemgetter(4), reverse=True)
    rows.sort(key=itemgetter(5), reverse=True)
    # an entry is built as the tuple it is, without the NamedTuple's
    # Python-level __new__
    new = tuple.__new__
    return [new(PriorityEntry, (rank, pid, arc, offset_m, depth_mm, count))
            for rank, (_, pid, arc, offset_m, depth_mm, count) in enumerate(rows, start=1)]


CSV_FIELDS = ["rank", "pothole_id", "arc_id", "offset_m", "depth_mm", "intensity_per_min"]


def report_rows(entries: list[PriorityEntry]) -> list:
    """The header, then one row per entry: its fields are in column order."""
    return [CSV_FIELDS, *entries]


def write_csv(entries: list[PriorityEntry], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(report_rows(entries))
