import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (OracleIntake, close, enumerate_min_weight, oracle_encrypt, random_network,
                     unchecked_grids)
from potholesim.detection import DepthMap, IntensityImage
from potholesim.geocrypto import PlainReport, ReportEnvelope, encrypt
from potholesim.registry import PotholeRegistry, read_events_csv
from potholesim.server import (ConditionRequest, ConditionResponse, ErrorResponse,
                               RouteRequest, RouteResponse, Server, ServerStats)
from potholesim.weighting import preprocess

KEY = bytes(range(32))


@pytest.fixture
def server(diamond_net):
    registry = PotholeRegistry(diamond_net)
    wnet = preprocess(diamond_net, registry)
    return Server(diamond_net, registry, wnet, KEY)


def sealed_report(arc, offset, depth, vid="v1", ts=100, key=KEY, rng=None,
                  depths=None, intensities=(0.4, 0.6)):
    """An envelope of depth cells `[depth, depth / 2]` (or `depths`), sealed
    whatever its cells hold, and the location it claims."""
    rng = rng or random.Random(1)
    grids = unchecked_grids([depth, depth / 2] if depths is None else depths, intensities)
    report = PlainReport(*grids, arc, offset, vid, ts)
    return encrypt(report, key, rng), (arc, offset)


class TestReceiveEnvelope:
    def test_new_pothole_raises_arc_weight(self, server):
        before = server.wnet.weight("ab")
        env, loc = sealed_report("ab", 20.0, 30.0)
        outcome = server.receive_envelope(env, loc, "v1", 100)
        assert outcome == ("1", True)
        # Arc damage by hand: one pothole, avg 30 mm, length 100 m
        assert before == 0.0
        assert server.wnet.weight("ab") == 30.0 * 100.0
        assert server.stats.envelopes_accepted == 1
        assert server.snapshot_seq == 1

    def test_tampered_envelope_dropped(self, server):
        env, loc = sealed_report("ab", 20.0, 30.0)
        bad = ReportEnvelope(env.nonce, env.location_tag,
                             bytes([env.ciphertext[0] ^ 1]) + env.ciphertext[1:],
                             env.integrity_tag)
        assert server.receive_envelope(bad, loc, "v1", 100) is None
        assert len(server.registry) == 0
        assert server.stats.envelopes_rejected == 1
        assert server.snapshot_seq == 0

    def test_duplicate_report_hits_same_id(self, server):
        rng = random.Random(2)
        env1, loc1 = sealed_report("ab", 20.0, 30.0, rng=rng)
        env2, loc2 = sealed_report("ab", 20.4, 28.0, vid="v2", ts=200, rng=rng)
        assert server.receive_envelope(env1, loc1, "v1", 100) == ("1", True)
        assert server.receive_envelope(env2, loc2, "v2", 200) == ("1", False)
        assert len(server.registry) == 1
        assert len(server.registry.events) == 2  # conservation: accepted == events

    def test_wrong_location_claim_dropped(self, server):
        env, _ = sealed_report("ab", 20.0, 30.0)
        assert server.receive_envelope(env, ("ab", 21.0), "v1", 100) is None
        assert server.stats.envelopes_rejected == 1


def assert_refused_report(server, env, loc):
    weights = dict(server.wnet.arc_weights)
    assert server.receive_envelope(env, loc, "v1", 100) is None
    assert len(server.registry) == 0 and server.registry.events == []
    assert server.wnet.arc_weights == weights
    assert server.snapshot_seq == 0
    assert server.stats == ServerStats(envelopes_rejected=1, rejected_report=1)


class TestReportRules:
    """An authentic envelope whose report the registry may not store is
    refused like one that fails decryption."""

    def test_unknown_arc_refused(self, server):
        assert_refused_report(server, *sealed_report("zz", 20.0, 30.0))

    def test_offset_past_arc_end_refused(self, server):
        assert_refused_report(server, *sealed_report("ab", 150.0, 30.0))

    @pytest.mark.parametrize("depth", [math.nan, math.inf])
    def test_non_finite_depth_refused(self, server, depth):
        assert_refused_report(server, *sealed_report("ab", 20.0, depth))

    def test_nan_offset_refused(self, server):
        assert_refused_report(server, *sealed_report("ab", math.nan, 30.0))

    @pytest.mark.parametrize("at", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_depth_cell_refused_wherever_it_sits(self, server, bad, at):
        depths = [20.0, 20.0]
        depths[at] = bad
        assert_refused_report(server, *sealed_report("ab", 20.0, 0.0, depths=depths))

    @pytest.mark.parametrize("at", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, 1.5])
    def test_bad_intensity_cell_refused_wherever_it_sits(self, server, bad, at):
        intensities = [0.5, 0.5]
        intensities[at] = bad
        assert_refused_report(server, *sealed_report("ab", 20.0, 30.0,
                                                     intensities=intensities))


class TestRejectionReasons:
    def refuse(self, server, fault):
        env, loc = sealed_report("ab", 20.0, 30.0)
        if fault == "format":
            env = ReportEnvelope(env.nonce[:-1], env.location_tag, env.ciphertext,
                                 env.integrity_tag)
        elif fault == "location":
            loc = ("ab", 21.0)
        elif fault == "integrity":
            env = ReportEnvelope(env.nonce, env.location_tag, env.ciphertext,
                                 bytes(32))
        else:
            env, loc = sealed_report("ab", 150.0, 30.0)
        assert server.receive_envelope(env, loc, "v1", 100) is None

    @pytest.mark.parametrize("reason", ["format", "location", "integrity", "report"])
    def test_each_reason_counts_alone(self, server, reason):
        self.refuse(server, reason)
        assert server.stats == ServerStats(envelopes_rejected=1,
                                           **{f"rejected_{reason}": 1})

    def test_reasons_sum_to_the_total(self, server):
        for reason, times in [("format", 1), ("location", 2), ("integrity", 3), ("report", 4)]:
            for _ in range(times):
                self.refuse(server, reason)
        server.receive_envelope(*sealed_report("ab", 20.0, 30.0), "v1", 100)
        stats = server.stats
        assert (stats.rejected_format, stats.rejected_location, stats.rejected_integrity,
                stats.rejected_report) == (1, 2, 3, 4)
        assert stats.envelopes_rejected == 10 and stats.envelopes_accepted == 1


class TestQuery:
    def test_condition_on_clean_arc(self, server):
        resp = server.query(ConditionRequest("ab"))
        assert isinstance(resp, ConditionResponse)
        assert resp.weight == 0.0 and resp.potholes == ()

    def test_condition_after_ingest(self, server):
        env, loc = sealed_report("ab", 20.0, 30.0)
        server.receive_envelope(env, loc, "v1", 100)
        resp = server.query(ConditionRequest("ab"))
        assert resp.weight == 3000.0 and resp.potholes == ("1",)
        assert resp.snapshot_seq == 1

    def test_route_reflects_ingest(self, server):
        first = server.query(RouteRequest("A", "D"))
        assert isinstance(first, RouteResponse)
        # clean network: both A->D paths weigh 0; ties favor shorter length
        assert first.route.total_weight == 0.0

        rng = random.Random(3)
        for arc, offset, depth in [("ab", 20.0, 50.0), ("ab", 50.0, 60.0),
                                   ("bd", 30.0, 30.0)]:
            env, loc = sealed_report(arc, offset, depth, rng=rng)
            server.receive_envelope(env, loc, "v1", 100)
        second = server.query(RouteRequest("A", "D"))
        oracle = enumerate_min_weight(server.wnet, "A", "D")
        assert close(second.route.total_weight, oracle)
        assert "ab" not in second.route.arcs
        assert second.snapshot_seq == 3

    def test_malformed_request_counted(self, server):
        resp = server.query(ConditionRequest("ghost-arc"))
        assert isinstance(resp, ErrorResponse)
        assert server.stats.queries_failed == 1
        resp = server.query(RouteRequest("A", "ghost"))
        assert isinstance(resp, ErrorResponse)
        assert server.stats.queries_failed == 2

    def test_unreachable_destination(self, diamond_net):
        registry = PotholeRegistry(diamond_net)
        wnet = preprocess(diamond_net, registry)
        server = Server(diamond_net, registry, wnet, KEY)
        resp = server.query(RouteRequest("D", "A"))  # diamond arcs all point away from A
        assert isinstance(resp, ErrorResponse)


# -- against the reference intake --------------------------------------------

def intake_stream(rng: random.Random, net, n: int):
    """`n` receive_envelope argument tuples: mostly intact reports, some of
    them near an earlier one so that they merge, the rest tampered with (a
    flipped byte or a truncated field), claiming another location, or
    sealed intact around a report that breaks the sensor's or the
    registry's rules (a bad cell may sit at any position)."""
    arcs = sorted(net.arcs)
    for now in range(0, 10 * n, 10):
        arc = rng.choice(arcs)
        length = net.arcs[arc].length_m
        offset = min(length, rng.choice([0.0, 0.6, 1.0, 2.1, round(rng.uniform(0, length), 2)]))
        cols = rng.randint(1, 4)
        depths = [round(rng.uniform(0, 80), 2) for _ in range(cols)]
        intensities = [round(rng.random(), 3) for _ in range(cols)]
        fault = rng.choice(["intact"] * 5 + ["flipped", "truncated", "misplaced", "rule"])
        if fault == "rule":
            broken = rng.choice(["arc", "offset", "depth", "intensity"])
            if broken == "arc":
                arc = "zz"
            elif broken == "offset":
                offset = rng.choice([length + 50.0, -1.0, math.nan, math.inf])
            elif broken == "depth":
                depths[rng.randrange(cols)] = rng.choice([math.nan, math.inf, -math.inf])
            else:
                intensities[rng.randrange(cols)] = rng.choice(
                    [math.nan, math.inf, -math.inf, 1.5])
        report = PlainReport(*unchecked_grids(depths, intensities),
                             arc, offset, f"v{rng.randrange(3)}", now)
        env = oracle_encrypt(report, KEY, rng)
        claimed = report.location
        fields = [env.nonce, env.location_tag, env.ciphertext, env.integrity_tag]
        i = rng.randrange(4)
        if fault == "flipped":
            at = rng.randrange(len(fields[i]))
            fields[i] = fields[i][:at] + bytes([fields[i][at] ^ 0x10]) + fields[i][at + 1:]
        elif fault == "truncated":
            fields[i] = fields[i][:-1]
        elif fault == "misplaced":
            claimed = rng.choice([(arc, offset + 2.5), (rng.choice(arcs) + "x", offset)])
        yield ReportEnvelope(*fields), claimed, report.vehicle_id, now


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_intake_matches_the_reference_after_every_envelope(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=5)
    registry = PotholeRegistry(net)
    server = Server(net, registry, preprocess(net, registry), KEY)
    reference = OracleIntake(net, KEY)
    for args in intake_stream(rng, net, rng.randint(1, 30)):
        assert server.receive_envelope(*args) == reference.receive(*args)
        assert registry.records == reference.registry.records
        assert registry.events == reference.registry.events
        assert server.wnet.arc_weights == reference.wnet.arc_weights
        assert server.wnet.min_weights == reference.wnet.min_weights
        assert server.stats == reference.stats
        assert server.snapshot_seq == reference.snapshot_seq


# -- every accepted report can be read back ------------------------------------

# the ids `inputs.string` accepts from a scenario
vehicle_ids = st.text(min_size=1, max_size=6).filter(str.isprintable)
sensed_reports = st.lists(st.tuples(
    st.integers(0, 99),                                    # arc, by index
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),  # along the arc
    st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1.0)), min_size=1, max_size=4),
    vehicle_ids,
    st.integers(0, 10**6)), max_size=20)                   # ms, in any order


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), sensed_reports)
def test_accepted_reports_read_back_from_csv(seed, reports):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=5)
    arcs = sorted(net.arcs)
    registry = PotholeRegistry(net)
    server = Server(net, registry, preprocess(net, registry), KEY)
    stream = list(intake_stream(rng, net, rng.randint(0, 10)))  # refusals among them
    for arc_at, along, cells, vid, now in reports:
        arc = arcs[arc_at % len(arcs)]
        depths, intensities = zip(*cells)
        report = PlainReport(DepthMap(1, len(cells), 0.5, list(depths)),
                             IntensityImage(1, len(cells), list(intensities)),
                             arc, along * net.arcs[arc].length_m, vid, now)
        stream.append((encrypt(report, KEY, rng), report.location, vid, now))
    for args in stream:
        server.receive_envelope(*args)
    with tempfile.TemporaryDirectory() as tmp:
        records, events = Path(tmp) / "registry.csv", Path(tmp) / "events.csv"
        registry.write_csv(records)
        registry.write_events_csv(events)
        again = PotholeRegistry.read_csv(records, net)
        assert again.records == registry.records
        assert read_events_csv(events, again) == registry.events
