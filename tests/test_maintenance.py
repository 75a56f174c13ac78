import hashlib
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_net, ingest
from potholesim.maintenance import priority_report, window_counts
from potholesim.registry import PotholeRecord, PotholeRegistry, UpdateEvent


def ev(pid, t, vid="v"):
    return UpdateEvent(pid, vid, t)


class TestTrafficIntensity:
    def test_three_updates_in_window(self):
        events = [ev("1", 10_000), ev("1", 30_000), ev("1", 59_000)]
        assert window_counts(events, 60_000)["1"] == 3

    def test_update_outside_window(self):
        events = [ev("1", 0)]
        assert window_counts(events, 61_000)["1"] == 0

    def test_boundary_exactly_window_ago_excluded(self):
        events = [ev("1", 1_000)]
        assert window_counts(events, 61_000)["1"] == 0

    def test_boundary_at_instant_included(self):
        events = [ev("1", 61_000)]
        assert window_counts(events, 61_000)["1"] == 1


class TestPriorityReport:
    def make_registry(self, line_net, spec):
        """spec: list of (offset, depth); returns registry with one record each."""
        reg = PotholeRegistry(line_net)
        for i, (offset, depth) in enumerate(spec):
            ingest(reg, "a1", offset, depth, now=i)
        return reg

    def test_empty_registry(self, line_net):
        assert priority_report(PotholeRegistry(line_net), [], 60_000) == []

    def test_primary_key_is_intensity(self, line_net):
        reg = self.make_registry(line_net, [(0.0, 10.0), (5.0, 10.0)])
        events = [ev("1", t) for t in (100, 200, 300, 400, 500)] + \
                 [ev("2", t) for t in (100, 200)]
        entries = priority_report(reg, events, 1_000)
        assert [(e.rank, e.pothole_id, e.intensity_per_min) for e in entries] \
            == [(1, "1", 5), (2, "2", 2)]

    def test_intensity_tie_broken_by_depth(self, line_net):
        reg = self.make_registry(line_net, [(0.0, 10.0), (5.0, 20.0)])
        events = [ev("1", 100), ev("1", 200), ev("2", 100), ev("2", 200)]
        entries = priority_report(reg, events, 1_000)
        assert [e.pothole_id for e in entries] == ["2", "1"]

    def test_remaining_tie_by_numeric_id(self, line_net):
        reg = self.make_registry(
            line_net, [(i * 1.1, 10.0) for i in range(10)])  # ids 1..10
        entries = priority_report(reg, [ev(str(i), 100) for i in range(1, 11)], 1_000)
        assert [e.pothole_id for e in entries] == [str(i) for i in range(1, 11)]

    def test_entries_are_immutable_hashable_and_named(self, line_net):
        entry, = priority_report(self.make_registry(line_net, [(2.0, 10.0)]),
                                 [ev("1", 500)], 1_000)
        assert repr(entry) == ("PriorityEntry(rank=1, pothole_id='1', arc='a1', "
                               "offset_m=2.0, depth_mm=10.0, intensity_per_min=1)")
        with pytest.raises(AttributeError):
            entry.rank = 2
        assert len({entry, entry._replace()}) == 1


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 200_000)), max_size=60),
       st.integers(0, 200_000))
def test_window_counts_match_brute_force(raw, at):
    events = [ev(str(pid), t) for pid, t in raw]
    counts = window_counts(events, at)
    for pid in {e.pothole_id for e in events}:
        brute = sum(1 for e in events
                    if e.pothole_id == pid and at - 60_000 < e.timestamp_ms <= at)
        assert counts[pid] == brute


def test_ranks_form_permutation_and_repeat_identically(line_net):
    rng = random.Random(5)
    reg = PotholeRegistry(line_net)
    for i in range(8):
        ingest(reg, "a1", i * 1.2, rng.choice([10.0, 20.0, 30.0]), now=i)
    events = [ev(str(rng.randint(1, 8)), rng.randint(0, 90_000)) for _ in range(50)]
    first = priority_report(reg, events, 90_000)
    assert sorted(e.rank for e in first) == list(range(1, len(reg.records) + 1))
    assert priority_report(reg, events, 90_000) == first


def test_extra_update_never_lowers_rank(line_net):
    rng = random.Random(9)
    reg = PotholeRegistry(line_net)
    for i in range(6):
        ingest(reg, "a1", i * 1.3, 10.0 + i, now=i)
    events = [ev(str(rng.randint(1, 6)), rng.randint(0, 50_000)) for _ in range(30)]
    before = {e.pothole_id: e.rank for e in priority_report(reg, events, 50_000)}
    for pid in map(str, range(1, 7)):
        boosted = events + [ev(pid, 49_999)]
        after = {e.pothole_id: e.rank
                 for e in priority_report(reg, boosted, 50_000)}
        assert after[pid] <= before[pid]


def pairwise_ranking(records, events, at):
    """The report's rows by brute force: each record's rank is one more than
    the number of records that must come before it, decided pair by pair."""
    count = {r.id: sum(1 for e in events
                       if e.pothole_id == r.id and at - 60_000 < e.timestamp_ms <= at)
             for r in records}

    def before(s, r):
        if count[s.id] != count[r.id]:
            return count[s.id] > count[r.id]
        if s.depth_mm != r.depth_mm:
            return s.depth_mm > r.depth_mm
        return int(s.id) < int(r.id)

    return sorted((1 + sum(before(s, r) for s in records), r.id, r.arc, r.offset_m,
                   r.depth_mm, count[r.id]) for r in records)


def entry_fields(entries):
    return [(e.rank, e.pothole_id, e.arc, e.offset_m, e.depth_mm, e.intensity_per_min)
            for e in entries]


@st.composite
def report_inputs(draw):
    """Records with ids up to 40 (so string order is not id order), few
    distinct depths, and events on few instants that include both edges of
    the window (at - 60 000, at]."""
    at = draw(st.integers(60_000, 200_000))
    ids = draw(st.lists(st.integers(0, 40), unique=True, max_size=14))
    records = [PotholeRecord(str(i), draw(st.sampled_from(["a1", "a2"])), float(k),
                             draw(st.sampled_from([0.0, 10.0, 12.5, 40.0])), 0.5, k, k + 1)
               for k, i in enumerate(ids)]
    instants = st.sampled_from([at - 60_001, at - 60_000, at - 59_999, at - 30_000,
                                at - 1, at, at + 1])
    events = [] if not ids else [
        UpdateEvent(str(draw(st.sampled_from(ids))), "v", draw(instants))
        for _ in range(draw(st.integers(0, 40)))]
    return records, events, at


@settings(max_examples=200, deadline=None)
@given(report_inputs(), st.randoms(use_true_random=False))
def test_report_matches_a_pairwise_ranking(inputs, rnd):
    records, events, at = inputs
    reg = PotholeRegistry(None)
    for rec in records:  # drawn order, not id order
        reg.records[rec.id] = rec
    want = pairwise_ranking(records, events, at)
    assert entry_fields(priority_report(reg, events, at)) == want
    # `potholesim report` reads the registry back in file order
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "registry.csv"
        reg.write_csv(path)
        header, *body = path.read_text().splitlines()
        rnd.shuffle(body)
        path.write_text("\n".join([header, *body]) + "\n")
        again = PotholeRegistry.read_csv(path)
    assert list(again.records) == [line.split(",")[0] for line in body]
    assert entry_fields(priority_report(again, events, at)) == want


def ranking_registry():
    """A seeded registry of 400+ potholes on three 500 m arcs, built from
    2 000 reports 50 ms apart: ids run past 100, so string order is not id
    order, and three depths make depth ties common."""
    rng = random.Random(23)
    net = build_net([("u", 0.0, 0.0), ("v", 500.0, 0.0)],
                    [("a1", "u", "v", 500.0), ("a2", "v", "u", 500.0),
                     ("a3", "u", "v", 500.0)])
    reg = PotholeRegistry(net)
    for i in range(2_000):
        slot = rng.randrange(600)  # 200 slots 2.5 m apart per arc
        offset = round(1.0 + slot % 200 * 2.5 + rng.uniform(-0.3, 0.3), 3)
        ingest(reg, f"a{slot // 200 + 1}", offset, rng.choice([10.0, 22.5, 40.0]),
               vid=f"v{i % 7}", now=50 * i)
    return reg


# recorded before the ranking was rebuilt for speed; a changed rank, field or
# float for any one entry at any one instant changes it
RANKING_DIGEST = "c3aedf1fa8cd304f281518a4082cfda570c4c722399a0a646a98eb348de9d551"


def test_ranking_keeps_every_entry_field(tmp_path):
    reg = ranking_registry()
    events = reg.events
    assert len(reg.records) >= 400 and len(events) == 2_000
    path = tmp_path / "registry.csv"
    reg.write_csv(path)
    header, *body = path.read_text().splitlines()
    random.Random(5).shuffle(body)
    path.write_text("\n".join([header, *body]) + "\n")
    again = PotholeRegistry.read_csv(path)
    assert list(again.records) != sorted(again.records, key=int)
    digest = hashlib.sha256()
    count = 0
    # 61 250 lies exactly 60 000 ms after the event at 1 250
    for at in (20_000, 61_250, 99_950, 120_000, 200_000):
        for name, registry in (("ingested", reg), ("read back", again)):
            for entry in priority_report(registry, events, at):
                digest.update(f"{name} {at} {tuple(entry)!r}\n".encode())
                count += 1
    assert count == 10 * len(reg.records)
    assert digest.hexdigest() == RANKING_DIGEST
