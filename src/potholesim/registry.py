"""Central pothole registry.

Stores one record per physical pothole, keyed by a unique identification
number minted here and nowhere else.  Every transaction for a pothole goes
through that id.  Repeat reports of the same hole (same arc, offsets within
the dedup radius) merge into the existing record: the stored depth becomes
the maximum ever reported, and every report -- new or repeat -- appends an
UpdateEvent, which is the raw material for traffic-intensity ranking.

Dump format (CSV): pothole_id, arc_id, offset_m, depth_mm, intensity,
first_seen_ms, last_seen_ms.  Update events: pothole_id, vehicle_id,
timestamp_ms.  The readers refuse a row that breaks the rules an ingested
report keeps (`check_record`), a pothole id that is not a decimal integer
without a leading zero, a `*_ms` field that is not an integer, a number
that is not finite, an empty id, a `last_seen_ms` before `first_seen_ms` and
an update event whose pothole the registry lacks, raising InputError that
names the file, the line and the field.  `ingest_report` refuses a report
that breaks `check_record` with RecordError and one on an arc the network
lacks with UnknownArcError, before it changes anything.
"""

from __future__ import annotations

import csv
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .config import SimConfig
from .detection import PotholeDetection
from .inputs import InputError, fail, finite_text, integer_text, lookup, string
from .network import Arc, StreetNetwork


_FLOAT_MAX = sys.float_info.max


class UnknownPotholeError(LookupError):
    pass


class RecordError(ValueError):
    """A pothole breaks the rules every stored record keeps (`check_record`)."""


@dataclass
class PotholeRecord:
    id: str
    arc: str
    offset_m: float
    depth_mm: float
    intensity: float
    first_seen_ms: int
    last_seen_ms: int


@dataclass(frozen=True)
class UpdateEvent:
    pothole_id: str
    vehicle_id: str
    timestamp_ms: int


class PotholeRegistry:
    """Deduplicating pothole store plus append-only update-event log.

    Constructed with the street network it validates against; a registry
    rebuilt from a CSV dump without a network is read-only (lookups work,
    ingest does not).
    """

    def __init__(self, net: StreetNetwork | None,
                 dedup_radius_m: float = SimConfig.dedup_radius_m):
        self.net = net
        self.dedup_radius_m = dedup_radius_m
        self.records: dict[str, PotholeRecord] = {}
        self.events: list[UpdateEvent] = []
        # arc id -> its pothole ids in minting order, a tuple that a mint
        # replaces rather than changes; an arc without potholes has no entry.
        # Weighting and the server's condition replies read it too
        self.by_arc: dict[str, tuple[str, ...]] = {}
        self._next_id = 1

    def __len__(self) -> int:
        return len(self.records)

    def _mint_id(self) -> str:
        pid = str(self._next_id)
        self._next_id += 1
        return pid

    def ingest_report(self, report: PotholeDetection, vehicle_id: str, now_ms: int) -> tuple[str, bool]:
        """Store one decrypted detection report.

        Returns (pothole id, is_new).  A report within the dedup radius of
        an existing record on the same arc merges into it (depth = max of
        old and new; first_seen and last_seen widen to take in now, which
        may lie before first_seen); otherwise a fresh id is minted.  Either
        way an UpdateEvent is appended.
        """
        if self.net is None:
            raise ValueError("registry loaded without a network is read-only")
        check_record(report.offset_m, report.depth_mm,
                     self.net.arc(report.arc))  # raises UnknownArcError

        match: PotholeRecord | None = None
        best = self.dedup_radius_m
        for pid in self.by_arc.get(report.arc, ()):
            rec = self.records[pid]
            dist = abs(rec.offset_m - report.offset_m)
            if dist <= best:
                # nearest wins; exact ties resolve to the earliest-minted record
                if match is None or dist < best:
                    match, best = rec, dist

        if match is not None:
            match.depth_mm = max(match.depth_mm, report.depth_mm)
            # min and max without the cost of two builtin calls on the intake path
            if now_ms < match.first_seen_ms:
                match.first_seen_ms = now_ms
            if now_ms > match.last_seen_ms:
                match.last_seen_ms = now_ms
            self.events.append(UpdateEvent(match.id, vehicle_id, now_ms))
            return match.id, False

        pid = self._mint_id()
        self.records[pid] = PotholeRecord(
            id=pid, arc=report.arc, offset_m=report.offset_m,
            depth_mm=report.depth_mm, intensity=report.intensity,
            first_seen_ms=now_ms, last_seen_ms=now_ms)
        self.by_arc[report.arc] = self.by_arc.get(report.arc, ()) + (pid,)
        self.events.append(UpdateEvent(pid, vehicle_id, now_ms))
        return pid, True

    def lookup(self, pothole_id: str) -> PotholeRecord:
        try:
            return self.records[pothole_id]
        except KeyError:
            raise UnknownPotholeError(pothole_id) from None

    # -- persistence ------------------------------------------------------

    RECORD_FIELDS = ["pothole_id", "arc_id", "offset_m", "depth_mm", "intensity",
                     "first_seen_ms", "last_seen_ms"]
    EVENT_FIELDS = ["pothole_id", "vehicle_id", "timestamp_ms"]

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(self.RECORD_FIELDS)
            for pid in sorted(self.records, key=int):
                r = self.records[pid]
                w.writerow([r.id, r.arc, r.offset_m, r.depth_mm, r.intensity,
                            r.first_seen_ms, r.last_seen_ms])

    def write_events_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(self.EVENT_FIELDS)
            for e in self.events:
                w.writerow([e.pothole_id, e.vehicle_id, e.timestamp_ms])

    @classmethod
    def read_csv(cls, path: str | Path, net: StreetNetwork | None = None) -> "PotholeRegistry":
        reg = cls(net)

        def add(row: dict[str, str]) -> None:
            rec = PotholeRecord(
                id=_pothole_id(row), arc=string(row, "arc_id", ""),
                offset_m=finite_text(row, "offset_m"), depth_mm=finite_text(row, "depth_mm"),
                intensity=finite_text(row, "intensity"),
                first_seen_ms=integer_text(row, "first_seen_ms"),
                last_seen_ms=integer_text(row, "last_seen_ms"))
            if rec.last_seen_ms < rec.first_seen_ms:
                fail(row, "last_seen_ms", "", f">= first_seen_ms ({rec.first_seen_ms})")
            check_record(rec.offset_m, rec.depth_mm,
                         None if net is None else lookup(net.arc, row, "arc_id", "", "arc"))
            if rec.id in reg.records:
                raise InputError(f"duplicate pothole id {rec.id!r}")
            reg.records[rec.id] = rec
            reg.by_arc.setdefault(rec.arc, []).append(rec.id)
            reg._next_id = max(reg._next_id, int(rec.id) + 1)

        _read_rows(path, cls.RECORD_FIELDS, add)
        # each arc's ids as a tuple in minting order, regardless of row order
        reg.by_arc = {arc: tuple(sorted(ids, key=int)) for arc, ids in reg.by_arc.items()}
        return reg


def check_record(offset_m: float, depth_mm: float, arc: Arc | None) -> None:
    """The rules every stored pothole keeps: a finite offset >= 0 that lies
    on its arc when the arc is known, and a finite depth >= 0.  An arc's
    length is finite, so each rule is one chained comparison, which NaN
    fails; the messages are built only for a refusal."""
    if not 0.0 <= offset_m <= (_FLOAT_MAX if arc is None else arc.length_m):
        rule = ">= 0" if arc is None else f"in [0, {arc.length_m!r}] on arc {arc.id!r}"
        raise RecordError(f"offset_m must be a finite number {rule}, got {offset_m!r}")
    if not 0.0 <= depth_mm <= _FLOAT_MAX:
        raise RecordError(f"depth_mm must be a finite number >= 0, got {depth_mm!r}")


def _read_rows(path: str | Path, fields: list[str],
               parse: Callable[[dict[str, str]], object]) -> list:
    """`parse(row)` for each data row of a CSV file whose header is exactly
    `fields`.  A ValueError from a row, or text the file cannot decode, is
    raised again as InputError naming the file and the line on which the
    failing record starts."""
    out = []
    start = 1
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != fields:
                raise InputError(f"expected columns {fields}, got {header}")
            # `line_num` is exact only between records (a record that fails
            # midway has not advanced it), so note where each record starts
            start = reader.line_num + 1
            for row in reader:
                if row:  # not a blank line
                    if len(row) != len(fields):
                        raise InputError(f"expected {len(fields)} fields")
                    out.append(parse(dict(zip(fields, row))))
                start = reader.line_num + 1
        except (ValueError, csv.Error) as exc:
            raise InputError(f"{path}, line {start}: {exc}") from None
    return out


def _pothole_id(row: dict[str, str]) -> str:
    if not re.fullmatch(r"0|[1-9][0-9]*", row["pothole_id"]):
        fail(row, "pothole_id", "", "a decimal integer")
    return row["pothole_id"]


def read_events_csv(path: str | Path, registry: PotholeRegistry) -> list[UpdateEvent]:
    """The update events of an events CSV, each naming a pothole of `registry`."""
    def parse(row: dict[str, str]) -> UpdateEvent:
        _pothole_id(row)
        lookup(registry.lookup, row, "pothole_id", "", "pothole")
        return UpdateEvent(row["pothole_id"], string(row, "vehicle_id", ""),
                           integer_text(row, "timestamp_ms"))

    return _read_rows(path, PotholeRegistry.EVENT_FIELDS, parse)
