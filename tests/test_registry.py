import math
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import build_net, ingest
from potholesim.inputs import InputError
from potholesim.network import UnknownArcError
from potholesim.registry import (PotholeRegistry, RecordError, UnknownPotholeError, check_record,
                                 read_events_csv)


@pytest.fixture
def reg(line_net):
    return PotholeRegistry(line_net)


class TestIngest:
    def test_first_report_is_new(self, reg):
        pid, is_new = ingest(reg, "a1", 2.0, 20.0)
        assert is_new and pid == "1"
        assert len(reg) == 1

    def test_report_within_radius_merges(self, reg):
        pid1, _ = ingest(reg, "a1", 2.0, 20.0)
        pid2, is_new = ingest(reg, "a1", 2.5, 15.0, now=5)
        assert pid2 == pid1 and not is_new
        assert len(reg) == 1

    def test_exactly_radius_apart_still_merges(self, reg):
        # the dedup radius is the maximum separation treated as the same hole
        pid1, _ = ingest(reg, "a1", 2.0, 20.0)
        pid2, is_new = ingest(reg, "a1", 3.0, 25.0, now=4)
        assert pid2 == pid1 and not is_new

    def test_reports_beyond_radius_stay_distinct(self, reg):
        # brute-force distance check: |0 - 5| exceeds the 1.0 m radius
        assert abs(0.0 - 5.0) > reg.dedup_radius_m
        pid1, _ = ingest(reg, "a1", 0.0, 20.0)
        pid2, _ = ingest(reg, "a1", 5.0, 30.0)
        assert pid1 != pid2
        assert len(reg) == 2

    def test_merge_keeps_max_depth_and_updates_last_seen(self, reg):
        pid, _ = ingest(reg, "a1", 2.0, 20.0, now=1)
        ingest(reg, "a1", 2.2, 35.0, now=9)
        ingest(reg, "a1", 2.4, 5.0, now=12)
        rec = reg.lookup(pid)
        assert rec.depth_mm == 35.0
        assert rec.first_seen_ms == 1
        assert rec.last_seen_ms == 12

    def test_every_ingest_appends_update_event(self, reg):
        ingest(reg, "a1", 2.0, 20.0, vid="x", now=1)
        ingest(reg, "a1", 2.1, 25.0, vid="y", now=2)
        assert [(e.pothole_id, e.vehicle_id, e.timestamp_ms) for e in reg.events] \
            == [("1", "x", 1), ("1", "y", 2)]

    def test_unknown_arc(self, reg):
        with pytest.raises(UnknownArcError):
            ingest(reg, "nope", 1.0, 10.0)

    @pytest.mark.parametrize("offset", [-0.1, 10.5])
    def test_offset_out_of_range(self, reg, offset):
        with pytest.raises(ValueError):
            ingest(reg, "a1", offset, 10.0)

    def test_negative_depth(self, reg):
        with pytest.raises(ValueError):
            ingest(reg, "a1", 1.0, -1.0)


class TestQueries:
    def test_potholes_on_empty_arc(self, reg):
        assert reg.pothole_ids("a1") == ()

    def test_potholes_on_arc_counts(self, reg):
        ingest(reg, "a1", 0.0, 10.0)
        ingest(reg, "a1", 5.0, 10.0)
        assert len(reg.pothole_ids("a1")) == 2

    def test_three_reports_merge_to_one(self, reg):
        # replay through ingest and count: all offsets fall in one cluster
        for offset, now in [(4.0, 0), (4.4, 1), (3.8, 2)]:
            ingest(reg, "a1", offset, 12.0, now=now)
        assert len(reg.pothole_ids("a1")) == 1

    def test_lookup_round_trips_fields(self, reg):
        pid, _ = ingest(reg, "a1", 2.0, 20.0, vid="v9", now=7, intensity=0.3)
        rec = reg.lookup(pid)
        assert (rec.arc, rec.offset_m, rec.depth_mm, rec.intensity) == ("a1", 2.0, 20.0, 0.3)

    def test_lookup_unknown(self, reg):
        with pytest.raises(UnknownPotholeError):
            reg.lookup("404")

    def test_lookup_reflects_depth_update(self, reg):
        pid, _ = ingest(reg, "a1", 2.0, 20.0)
        ingest(reg, "a1", 2.1, 44.0, now=3)
        assert reg.lookup(pid).depth_mm == 44.0


def test_records_never_closer_than_radius(line_net):
    reg = PotholeRegistry(line_net)
    for i in range(40):
        ingest(reg, "a1", (i * 0.37) % 10.0, 10.0 + i, now=i)
    recs = list(reg.records.values())
    for a in recs:
        for b in recs:
            if a.id != b.id:
                assert abs(a.offset_m - b.offset_m) > reg.dedup_radius_m


def test_every_event_resolves_via_lookup(line_net):
    reg = PotholeRegistry(line_net)
    for i in range(25):
        ingest(reg, "a1", (i * 1.7) % 10.0, 12.0, now=i)
    for event in reg.events:
        assert reg.lookup(event.pothole_id).id == event.pothole_id


@given(st.permutations(range(6)))
def test_clustered_ingest_order_invariant(order):
    # constructed clusters: members within radius/2 of a center, centers 3
    # radii apart, so every report is within the radius of exactly one
    # cluster regardless of which member arrived first
    net = build_net([("u", 0.0, 0.0), ("v", 30.0, 0.0)], [("a1", "u", "v", 30.0)])
    centers = [5.0, 8.0]
    reports = []
    for ci, center in enumerate(centers):
        for k, delta in enumerate([-0.4, 0.0, 0.4]):
            reports.append((center + delta, 10.0 * (ci + 1) + k))
    reg = PotholeRegistry(net)
    for idx in order:
        offset, depth = reports[idx]
        ingest(reg, "a1", offset, depth, now=idx)
    recs = sorted(reg.records.values(), key=lambda r: r.offset_m)
    assert len(recs) == 2
    # per-cluster depth is the max of its members, whatever the order
    assert [r.depth_mm for r in recs] == [12.0, 22.0]


def test_csv_round_trip(tmp_path, line_net):
    reg = PotholeRegistry(line_net)
    ingest(reg, "a1", 2.25, 20.5, vid="v1", now=100)
    ingest(reg, "a1", 7.0, 31.0, vid="v2", now=200)
    path = tmp_path / "registry.csv"
    reg.write_csv(path)
    again = PotholeRegistry.read_csv(path, line_net)
    assert {pid: (r.arc, r.offset_m, r.depth_mm, r.intensity, r.first_seen_ms, r.last_seen_ms)
            for pid, r in again.records.items()} \
        == {pid: (r.arc, r.offset_m, r.depth_mm, r.intensity, r.first_seen_ms, r.last_seen_ms)
            for pid, r in reg.records.items()}
    # detached load works without a network and refuses ingest
    detached = PotholeRegistry.read_csv(path)
    assert len(detached) == 2
    with pytest.raises(ValueError):
        ingest(detached, "a1", 1.0, 1.0)


def test_merge_reported_earlier_widens_the_seen_span_and_reads_back(tmp_path, line_net):
    # a merge whose clock lies before the record's first sighting
    reg = PotholeRegistry(line_net)
    pid, _ = ingest(reg, "a1", 2.0, 20.0, now=200)
    ingest(reg, "a1", 2.1, 20.0, now=100)
    rec = reg.lookup(pid)
    assert (rec.first_seen_ms, rec.last_seen_ms) == (100, 200)
    path = tmp_path / "registry.csv"
    reg.write_csv(path)
    assert PotholeRegistry.read_csv(path, line_net).records == reg.records


GOOD_ROW = {"pothole_id": "1", "arc_id": "a1", "offset_m": "2.5", "depth_mm": "20.0",
            "intensity": "0.5", "first_seen_ms": "100", "last_seen_ms": "200"}


def write_rows(path, rows, fields=PotholeRegistry.RECORD_FIELDS):
    """A CSV file: the header, then one line per row (a dict or a raw line)."""
    lines = [",".join(fields)]
    lines += [row if isinstance(row, str) else ",".join(row[f] for f in fields)
              for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


BAD_FIELDS = [
    ("depth_mm", "inf", "depth_mm must be a finite number, got 'inf'"),
    ("depth_mm", "nan", "depth_mm must be a finite number, got 'nan'"),
    ("depth_mm", "-1", "depth_mm must be a finite number >= 0, got -1.0"),
    ("depth_mm", "", "depth_mm must be a finite number, got ''"),
    ("offset_m", "nan", "offset_m must be a finite number, got 'nan'"),
    ("offset_m", "10.5", "offset_m must be a finite number in [0, 10.0] on arc 'a1', got 10.5"),
    ("offset_m", "-0.5", "offset_m must be a finite number in [0, 10.0] on arc 'a1', got -0.5"),
    ("intensity", "ab", "intensity must be a finite number, got 'ab'"),
    ("pothole_id", "p1", "pothole_id must be a decimal integer, got 'p1'"),
    ("pothole_id", "-1", "pothole_id must be a decimal integer, got '-1'"),
    ("pothole_id", "01", "pothole_id must be a decimal integer, got '01'"),
    ("pothole_id", "1.0", "pothole_id must be a decimal integer, got '1.0'"),
    ("first_seen_ms", "1.5", "first_seen_ms must be an integer, got '1.5'"),
    ("last_seen_ms", "1e3", "last_seen_ms must be an integer, got '1e3'"),
    ("arc_id", "zz", "arc_id: unknown arc 'zz'"),
    ("arc_id", "", "arc_id must be a non-empty string, got ''"),
    ("last_seen_ms", "99", "last_seen_ms must be >= first_seen_ms (100), got '99'"),
]


@pytest.mark.parametrize("field, value, message", BAD_FIELDS,
                         ids=[f"{field}={value}" for field, value, _ in BAD_FIELDS])
def test_read_csv_names_file_line_and_field(tmp_path, line_net, field, value, message):
    path = write_rows(tmp_path / "registry.csv",
                      [dict(GOOD_ROW, pothole_id="2", offset_m="7.0"),
                       dict(GOOD_ROW, **{field: value})])
    with pytest.raises(InputError) as err:
        PotholeRegistry.read_csv(path, line_net)
    assert str(err.value) == f"{path}, line 3: {message}"


@pytest.mark.parametrize("row, message", [
    ("1,a1,2.5,20.0,0.5,100", "expected 7 fields"),
    ("1,a1,2.5,20.0,0.5,100,200,9", "expected 7 fields"),
    ("2,a1,7.0,20.0,0.5,100,200", "duplicate pothole id '2'"),
], ids=["short", "long", "duplicate"])
def test_read_csv_refuses_ragged_and_duplicate_rows(tmp_path, line_net, row, message):
    path = write_rows(tmp_path / "registry.csv", [dict(GOOD_ROW, pothole_id="2"), row])
    with pytest.raises(InputError) as err:
        PotholeRegistry.read_csv(path, line_net)
    assert str(err.value) == f"{path}, line 3: {message}"


def test_read_csv_refuses_an_oversized_field(tmp_path, line_net):
    path = write_rows(tmp_path / "registry.csv", [dict(GOOD_ROW, arc_id="a" * 200_000)])
    with pytest.raises(InputError, match=r"field larger than field limit") as err:
        PotholeRegistry.read_csv(path, line_net)
    assert str(err.value).startswith(f"{path}, line 2: ")


@pytest.mark.parametrize("rows, line", [
    ([dict(GOOD_ROW, pothole_id="2"), dict(GOOD_ROW, arc_id="a" * 200_000)], 3),
    (["", dict(GOOD_ROW, arc_id="a" * 200_000)], 3),
    ([dict(GOOD_ROW, pothole_id="2"), '3,"a\nb' + "a" * 200_000 + '",2.5,20.0,0.5,100,200'], 3),
], ids=["after-a-row", "after-a-blank-line", "quoted-over-two-lines"])
def test_read_csv_names_the_line_an_oversized_record_starts_on(tmp_path, line_net,
                                                                rows, line):
    path = write_rows(tmp_path / "registry.csv", rows)
    with pytest.raises(InputError, match=r"field larger than field limit") as err:
        PotholeRegistry.read_csv(path, line_net)
    assert str(err.value).startswith(f"{path}, line {line}: ")


def test_read_csv_without_network_checks_offsets_and_depths(tmp_path):
    # no arc length to check against: any finite offset >= 0 is on the arc
    path = write_rows(tmp_path / "registry.csv", [dict(GOOD_ROW, offset_m="1e6")])
    assert PotholeRegistry.read_csv(path).lookup("1").offset_m == 1e6
    for field, value, message in [
            ("offset_m", "-1", "offset_m must be a finite number >= 0, got -1.0"),
            ("offset_m", "nan", "offset_m must be a finite number, got 'nan'"),
            ("depth_mm", "-inf", "depth_mm must be a finite number, got '-inf'")]:
        write_rows(path, [dict(GOOD_ROW, **{field: value})])
        with pytest.raises(InputError) as err:
            PotholeRegistry.read_csv(path)
        assert str(err.value) == f"{path}, line 2: {message}"


def test_ingest_and_read_csv_share_the_record_rules(tmp_path, line_net):
    # an offset at the arc's end and a zero depth are accepted by both
    reg = PotholeRegistry(line_net)
    ingest(reg, "a1", 10.0, 0.0)
    path = tmp_path / "registry.csv"
    reg.write_csv(path)
    assert PotholeRegistry.read_csv(path, line_net).lookup("1").offset_m == 10.0
    with pytest.raises(ValueError, match=r"^depth_mm must be a finite number >= 0, got nan$"):
        ingest(reg, "a1", 1.0, float("nan"))


@pytest.mark.parametrize("depth", [0.0, -0.0, 5e-324, sys.float_info.max, -5e-324, -1.0,
                                   math.inf, math.nan])
@pytest.mark.parametrize("offset", [0.0, -0.0, 10.0, -5e-324, math.nextafter(10.0, math.inf),
                                    sys.float_info.max, math.inf, -math.inf, math.nan])
def test_ingest_refuses_exactly_what_check_record_refuses(line_net, offset, depth):
    # check_record's chained bounds against the rules its docstring states,
    # with the 10 m arc and without an arc
    finite_depth = math.isfinite(depth) and depth >= 0.0
    for arc, length in ((line_net.arc("a1"), 10.0), (None, math.inf)):
        accepts = math.isfinite(offset) and 0.0 <= offset <= length and finite_depth
        try:
            check_record(offset, depth, arc)
        except RecordError:
            assert not accepts
        else:
            assert accepts
    reg = PotholeRegistry(line_net)
    try:
        check_record(offset, depth, line_net.arc("a1"))
    except RecordError as exc:
        with pytest.raises(RecordError, match=f"^{re.escape(str(exc))}$"):
            ingest(reg, "a1", offset, depth)
        assert len(reg) == 0 and reg.events == []
    else:
        assert ingest(reg, "a1", offset, depth) == ("1", True)
    with pytest.raises(UnknownArcError):
        ingest(reg, "zz", offset, depth)


@pytest.mark.parametrize("row, message", [
    ("p1,v1,100", "pothole_id must be a decimal integer, got 'p1'"),
    ("1,v1,1e3", "timestamp_ms must be an integer, got '1e3'"),
    ("1,v1,", "timestamp_ms must be an integer, got ''"),
    ("1,v1", "expected 3 fields"),
    ("99,v1,100", "pothole_id: unknown pothole '99'"),
    ("1,,100", "vehicle_id must be a non-empty string, got ''"),
], ids=["id", "float-time", "empty-time", "short", "unknown-pothole", "empty-vehicle"])
def test_read_events_csv_names_file_line_and_field(tmp_path, reg, row, message):
    ingest(reg, "a1", 2.0, 20.0)
    path = write_rows(tmp_path / "events.csv", ["1,v1,50", row], PotholeRegistry.EVENT_FIELDS)
    with pytest.raises(InputError) as err:
        read_events_csv(path, reg)
    assert str(err.value) == f"{path}, line 3: {message}"


def test_read_events_csv_round_trip(tmp_path, line_net):
    reg = PotholeRegistry(line_net)
    ingest(reg, "a1", 2.0, 20.0, vid="x", now=1)
    ingest(reg, "a1", 2.1, 25.0, vid="y", now=2)
    path = tmp_path / "events.csv"
    reg.write_events_csv(path)
    assert read_events_csv(path, reg) == reg.events
