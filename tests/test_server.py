import copy
import hashlib
import inspect
import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (OracleIntake, close, enumerate_min_weight, ingest, oracle_encrypt,
                     oracle_seal, random_network, unchecked_grids)
from test_cli import JSON_VALUES, at, json_paths
from potholesim.detection import DepthMap, IntensityImage
from potholesim.geocrypto import (IntegrityError, PlainReport, ReportEnvelope, _grid_to_dict,
                                  decrypt, encrypt)
from potholesim.network import UnknownArcError
from potholesim.registry import PotholeRegistry, read_events_csv
from potholesim.server import (ConditionRequest, ConditionResponse, ErrorResponse,
                               RouteRequest, RouteResponse, Server, ServerStats)
from potholesim.weighting import preprocess

KEY = bytes(range(32))
# JSON numbers that overflow a conversion: infinite floats, and integers too
# large for a float
INFINITIES = ["Infinity", "-Infinity", "1e999", "-1e999"]
HUGE_INTS = ["1" + "0" * 399, "-" + "9" * 400]


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
        before = server.wnet.arc_weights["ab"]
        env, loc = sealed_report("ab", 20.0, 30.0)
        outcome = server.receive_envelope(env, loc, "v1", 100)
        assert outcome == ("1", True)
        # Arc damage by hand: one pothole, avg 30 mm, length 100 m
        assert before == 0.0
        assert server.wnet.arc_weights["ab"] == 30.0 * 100.0
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


def sealed_payload(arc, offset, field, literal):
    """An authentic envelope whose payload, a sealed 1x2 report, holds the
    JSON text `literal` as `field`, and the location it claims.  `field` is
    a dotted path from the top level: `offset_m`, `depth_map.rows` or
    `intensity_image.values.1`, the second intensity cell; a key the report
    lacks is added."""
    raw = _grid_to_dict(PlainReport(*unchecked_grids([30.0, 15.0], [0.4, 0.6]),
                                    arc, offset, "v1", 100))
    *owners, key = field.split(".")
    owner = raw
    for name in owners:
        owner = owner[name]
    owner[int(key) if key.isdigit() else key] = "@"
    payload = json.dumps(raw, sort_keys=True, separators=(",", ":")).replace('"@"', literal)
    return oracle_seal(payload.encode(), KEY, (arc, offset), random.Random(1)), (arc, offset)


class TestOverflowingPayload:
    """An authentic payload whose number overflows a conversion is refused
    like one that does not decode."""

    @pytest.mark.parametrize("field, literal", [
        ("timestamp_ms", "Infinity"), ("timestamp_ms", "-1e999"),
        ("offset_m", HUGE_INTS[0]), ("depth_map.depths.0", HUGE_INTS[0])],
        ids=["infinite-timestamp", "negative-infinite-timestamp", "huge-offset",
             "huge-depth-cell"])
    def test_refused_for_integrity(self, server, field, literal):
        assert server.receive_envelope(*sealed_payload("ab", 20.0, field, literal),
                                       "v1", 100) is None
        assert len(server.registry) == 0 and server.snapshot_seq == 0
        assert server.stats == ServerStats(envelopes_rejected=1, rejected_integrity=1)


class TestMistypedPayload:
    """An authentic payload whose field has the wrong JSON type is refused
    like one that does not decode, never read as another type."""

    @pytest.mark.parametrize("field, literal", [
        ("offset_m", '"1.0"'), ("offset_m", "true"), ("timestamp_ms", '"7"'),
        ("timestamp_ms", "7.9"), ("vehicle_id", "7"), ("vehicle_id", '["v1"]'),
        ("depth_map.depths.0", '"30"'), ("intensity_image.values.1", "true"),
        ("depth_map.rows", "true"), ("intensity_image.cols", "2.0"),
        ("depth_map.cell_m", '"0.5"'), ("depth_map.depths", '{"30":1,"15":1}')],
        ids=["string-offset", "bool-offset", "string-timestamp", "fractional-timestamp",
             "number-vehicle", "list-vehicle", "string-depth-cell", "bool-intensity-cell",
             "bool-rows", "float-cols", "string-cell-m", "object-depths"])
    def test_refused_for_integrity(self, server, field, literal):
        assert server.receive_envelope(*sealed_payload("ab", 20.0, field, literal),
                                       "v1", 100) is None
        assert len(server.registry) == 0 and server.snapshot_seq == 0
        assert server.stats == ServerStats(envelopes_rejected=1, rejected_integrity=1)

    @pytest.mark.parametrize("literal", ["20", "2e1"], ids=["integer", "exponent"])
    def test_offset_that_is_any_json_number_accepted(self, server, literal):
        assert server.receive_envelope(*sealed_payload("ab", 20.0, "offset_m", literal),
                                       "v1", 100) == ("1", True)
        assert server.registry.records["1"].offset_m == 20.0

    def test_integer_cell_read_as_a_float(self, server):
        env, loc = sealed_payload("ab", 20.0, "depth_map.depths.0", "30")
        depths = decrypt(env, KEY, loc).depth_map.depths
        assert depths == [30.0, 15.0] and type(depths[0]) is float
        assert server.receive_envelope(env, loc, "v1", 100) == ("1", True)

    def test_integer_cell_size_read_as_a_float(self, server):
        env, loc = sealed_payload("ab", 20.0, "depth_map.cell_m", "1")
        cell_m = decrypt(env, KEY, loc).depth_map.cell_m
        assert cell_m == 1.0 and type(cell_m) is float


class TestCellSize:
    """An authentic payload's `cell_m` must be a finite number no finer than
    the finest scanner cell, `config.MIN_CELL_M`."""

    @pytest.mark.parametrize("literal", ["NaN", "-1.0", "0", "0.0009"],
                             ids=["nan", "negative", "zero", "below-least"])
    def test_refused_for_integrity(self, server, literal):
        env, loc = sealed_payload("ab", 20.0, "depth_map.cell_m", literal)
        assert server.receive_envelope(env, loc, "v1", 100) is None
        assert len(server.registry) == 0 and server.snapshot_seq == 0
        assert server.stats == ServerStats(envelopes_rejected=1, rejected_integrity=1)

    @pytest.mark.parametrize("literal", ["0.001", "1e300"], ids=["least", "huge"])
    def test_accepted(self, server, literal):
        env, loc = sealed_payload("ab", 20.0, "depth_map.cell_m", literal)
        assert decrypt(env, KEY, loc).depth_map.cell_m == float(literal)
        assert server.receive_envelope(env, loc, "v1", 100) == ("1", True)


class TestUnknownPayloadKeys:
    """A payload or grid key that the encoder does not write is refused as
    integrity, and a payload that is not an object is too."""

    @pytest.mark.parametrize("field", ["extra", "cell_m", "depth_map.values",
                                       "intensity_image.cell_m", "intensity_image.extra"])
    def test_unknown_key_refused(self, server, field):
        assert server.receive_envelope(*sealed_payload("ab", 20.0, field, "0.5"),
                                       "v1", 100) is None
        assert len(server.registry) == 0 and server.snapshot_seq == 0
        assert server.stats == ServerStats(envelopes_rejected=1, rejected_integrity=1)

    @pytest.mark.parametrize("payload", [b"[]", b"7", b"null", b'"x"', b"[{}]"])
    def test_payload_that_is_not_an_object_refused(self, server, payload):
        env = oracle_seal(payload, KEY, ("ab", 20.0), random.Random(1))
        with pytest.raises(IntegrityError, match="payload did not decode"):
            decrypt(env, KEY, ("ab", 20.0))
        assert server.receive_envelope(env, ("ab", 20.0), "v1", 100) is None
        assert server.stats == ServerStats(envelopes_rejected=1, rejected_integrity=1)


PAYLOAD = _grid_to_dict(PlainReport(*unchecked_grids([30.0, 15.0, 0.0, 42.5],
                                                     [0.4, 0.6, 1.0, 0.25]),
                                    "ab", 20.0, "v1", 100))


def payload_mutations():
    """Every single-field mutation of PAYLOAD, a 1x4 report, in a fixed
    order: each object gains an unknown key, and each value, a grid cell
    too, is deleted or set to each of JSON_VALUES."""
    for path in [()] + [p for p in json_paths(PAYLOAD) if isinstance(at(PAYLOAD, p), dict)]:
        yield path, "add", None
    for path in json_paths(PAYLOAD):
        yield path, "delete", None
        for value in JSON_VALUES:
            yield path, "set", value


# recorded once, before the server's records were reworked for speed; a changed
# outcome or refusal reason for any one mutation changes it
PAYLOAD_OUTCOMES_DIGEST = "a225a7d8cbc26f10c9d4a82265d459fa932f8d78300047dbd9465e23256b2cf7"


def test_every_mutated_payload_field_keeps_its_outcome(diamond_net):
    digest = hashlib.sha256()
    count = 0
    for path, op, value in payload_mutations():
        doc = copy.deepcopy(PAYLOAD)
        if op == "add":
            at(doc, path)["unexpected"] = 1
        elif op == "delete":
            del at(doc, path[:-1])[path[-1]]
        else:
            at(doc, path[:-1])[path[-1]] = value
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        registry = PotholeRegistry(diamond_net)
        server = Server(diamond_net, registry, preprocess(diamond_net, registry), KEY)
        outcome = server.receive_envelope(
            oracle_seal(payload, KEY, ("ab", 20.0), random.Random(1)), ("ab", 20.0), "v1", 100)
        counters = {name: n for name, n in vars(server.stats).items() if n}
        digest.update(f"{path!r} {op} {value!r} {outcome!r} {counters!r}\n".encode())
        count += 1
    assert count == 318
    assert digest.hexdigest() == PAYLOAD_OUTCOMES_DIGEST


class TestUndecodablePayload:
    """An authentic payload that the registry or the JSON parser cannot take
    is refused as integrity, not raised out of the intake."""

    @pytest.mark.parametrize("literal", ['["ab"]', '{"ab":1}'], ids=["list", "object"])
    def test_arc_that_is_not_a_string_refused(self, server, literal):
        assert server.receive_envelope(*sealed_payload("ab", 20.0, "arc", literal),
                                       "v1", 100) is None
        assert len(server.registry) == 0 and server.snapshot_seq == 0
        assert server.stats == ServerStats(envelopes_rejected=1, rejected_integrity=1)

    def test_deeply_nested_payload_refused(self, server):
        # nesting far deeper than the JSON parser recurses
        env = oracle_seal(b"[" * 100_000 + b"]" * 100_000, KEY, ("ab", 20.0), random.Random(1))
        assert server.receive_envelope(env, ("ab", 20.0), "v1", 100) is None
        assert len(server.registry) == 0 and server.snapshot_seq == 0
        assert server.stats == ServerStats(envelopes_rejected=1, rejected_integrity=1)


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

    def test_route_over_an_infinite_weight_counted(self, server):
        server.wnet.arc_weights["ab"] = math.inf
        resp = server.query(RouteRequest("A", "D"))
        assert resp == ErrorResponse(
            "ValueError: weight inf on arc 'ab' is not a finite number >= 0", 0)
        assert server.stats.queries_failed == 1 and server.stats.queries_answered == 0

    def test_reply_reprs_and_field_names(self, server):
        server.receive_envelope(*sealed_report("ab", 20.0, 30.0), "v1", 100)
        replies = [
            (RouteRequest("A", "D"), ["source", "dest"],
             "RouteRequest(source='A', dest='D')"),
            (ConditionRequest("ab"), ["arc"], "ConditionRequest(arc='ab')"),
            (server.query(RouteRequest("A", "D")), ["route", "snapshot_seq"],
             "RouteResponse(route=Route(source='A', dest='D', arcs=('ac', 'cd'), "
             "total_weight=0.0, total_length_m=160.0), snapshot_seq=1)"),
            (server.query(ConditionRequest("ab")), ["arc", "weight", "potholes", "snapshot_seq"],
             "ConditionResponse(arc='ab', weight=3000.0, potholes=('1',), snapshot_seq=1)"),
            (server.query(ConditionRequest("zz")), ["message", "snapshot_seq"],
             "ErrorResponse(message='UnknownArcError: zz', snapshot_seq=1)")]
        for reply, fields, text in replies:
            assert list(inspect.signature(type(reply)).parameters) == fields
            assert repr(reply) == text

    def test_condition_reply_keeps_its_snapshot(self, server):
        rng = random.Random(4)
        server.receive_envelope(*sealed_report("ab", 60.0, 30.0, rng=rng), "v1", 100)
        server.receive_envelope(*sealed_report("ab", 20.0, 50.0, rng=rng), "v1", 200)
        first = server.query(ConditionRequest("ab"))
        server.receive_envelope(*sealed_report("ab", 20.3, 40.0, rng=rng), "v2", 300)  # a merge
        server.receive_envelope(*sealed_report("ab", 90.0, 10.0, rng=rng), "v2", 400)
        assert first == ConditionResponse("ab", 4000.0, ("1", "2"), 2)
        assert server.query(ConditionRequest("ab")) == ConditionResponse(
            "ab", 3000.0, ("1", "2", "3"), 4)

    def test_unreachable_destination(self, diamond_net):
        registry = PotholeRegistry(diamond_net)
        wnet = preprocess(diamond_net, registry)
        server = Server(diamond_net, registry, wnet, KEY)
        resp = server.query(RouteRequest("D", "A"))  # diamond arcs all point away from A
        assert isinstance(resp, ErrorResponse)


def test_registry_read_from_shuffled_rows_keeps_minting_order(diamond_net, tmp_path):
    registry = PotholeRegistry(diamond_net)
    for i in range(12):  # ids 1..12 alternate between two arcs
        ingest(registry, "ab" if i % 2 else "cd", 5.0 + 7.0 * i, 20.0)
    registry.write_csv(tmp_path / "registry.csv")
    header, *rows = (tmp_path / "registry.csv").read_text().splitlines(keepends=True)
    random.Random(5).shuffle(rows)
    (tmp_path / "shuffled.csv").write_text(header + "".join(rows))
    again = PotholeRegistry.read_csv(tmp_path / "shuffled.csv", diamond_net)
    assert again.by_arc == {"cd": ("1", "3", "5", "7", "9", "11"),
                            "ab": ("2", "4", "6", "8", "10", "12")}
    assert again.pothole_ids("ab") == ("2", "4", "6", "8", "10", "12")


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
        assert_same_intake(server, reference, args)


def assert_same_intake(server, reference, args):
    assert server.receive_envelope(*args) == reference.receive(*args)
    assert server.registry.records == reference.registry.records
    assert server.registry.events == reference.registry.events
    assert server.wnet.arc_weights == reference.wnet.arc_weights
    assert server.wnet.min_weights == reference.wnet.min_weights
    assert server.stats == reference.stats
    assert server.snapshot_seq == reference.snapshot_seq


# -- authentic payloads of any text ------------------------------------------
# Each envelope is sealed with the shared key at the location it claims, so
# it opens; its payload is text a faulty or forged sender could write.  The
# server must treat each one exactly as the reference intake, with its
# pinned `json.loads` decode, does.

# the last one nests deeper than the parser recurses
LITERALS = ["NaN", *INFINITIES, *HUGE_INTS, '"20"', '"x"', '""', "true", "false", "null",
            "[]", "{}", "[1]", "0", "-1", "0.5", "1.5", "2", '"1.0"', '"7"', "7.9", '"0.5"',
            "[" * 10_000 + "]" * 10_000]
# mostly numbers outside a grid's bounds, which the sensor rules refuse, and
# cells of another JSON type, which the decode refuses
CELL_LITERALS = ["NaN", *INFINITIES, "-1", "1.5", "2", "-0.5", '"x"', "null", *HUGE_INTS,
                 '"30"', "true", "1", "0"]


def raw_payload(rng: random.Random, net) -> tuple[bytes, tuple[str, float]]:
    """Payload bytes around a report on an arc of `net`, and the location
    it claims.  The decode's order decides between a sensor refusal and an
    integrity one, so each grid is changed half the time, and both may be
    at once."""
    arc = rng.choice(sorted(net.arcs))
    length = net.arcs[arc].length_m
    rows, cols = rng.randint(1, 2), rng.randint(1, 3)
    cells = rows * cols
    report = PlainReport(
        DepthMap(rows, cols, 0.5, [rng.choice([0.0, 12.5, 80.0]) for _ in range(cells)]),
        IntensityImage(rows, cols, [rng.choice([0.0, 0.25, 1.0]) for _ in range(cells)]),
        arc, rng.choice([0.0, round(length / 3, 3), length]), "v1", rng.randrange(10**6))
    raw = _grid_to_dict(report)
    literals = {}  # a placeholder string in `raw` -> the JSON text it stands for

    def put(owner, key, choices=LITERALS):
        placeholder = f"\ue000{len(literals)}"
        literals[placeholder], owner[key] = rng.choice(choices), placeholder

    for grid, cells_key in [("depth_map", "depths"), ("intensity_image", "values")]:
        change = rng.choice(["none"] * 4 + ["cell", "cell", "count", "field", "grid", "key"])
        if change == "cell":
            put(raw[grid][cells_key], rng.randrange(cells), CELL_LITERALS)
        elif change == "count":  # a cell count other than rows x cols
            grid_cells = raw[grid][cells_key]
            raw[grid][cells_key] = grid_cells[1:] if rng.random() < 0.5 else [*grid_cells, 0.5]
        elif change == "field":
            put(raw[grid], rng.choice(sorted(raw[grid])))
        elif change == "grid":
            put(raw, grid)
        elif change == "key":  # a key of the other grid, of neither, or its own
            put(raw[grid], rng.choice(["cell_m", "depths", "values", "extra"]))
    if rng.random() < 0.05:  # a key the top level does not hold
        put(raw, rng.choice(["cell_m", "rows", "extra"]))
    for key in rng.sample(["offset_m", "timestamp_ms", "arc", "vehicle_id"],
                          rng.choice([0, 0, 1, 2])):
        put(raw, key)
    text = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    for placeholder, literal in literals.items():
        text = text.replace(json.dumps(placeholder), literal)
    if rng.random() < 0.3:  # a key written twice: the later copy wins
        obj = rng.choice(["", "depth_map", "intensity_image"])
        key = rng.choice(["offset_m", "timestamp_ms", "arc"] if not obj else ["rows", "cols"])
        literal = rng.choice(LITERALS)
        start = "{" if not obj else f'"{obj}":{{'
        if obj or rng.random() < 0.5:
            text = text.replace(start, f'{start}"{key}":{literal},', 1)
        else:
            text = f'{text[:-1]},"{key}":{literal}}}'
    if rng.random() < 0.05:  # a top level that is not an object
        text = rng.choice([f"[{text}]", *LITERALS])
    payload = text.encode()
    if rng.random() < 0.15:  # text around the document
        payload = (rng.choice([" ", "\n\t\r ", "\ufeff", "\x0c", "\u00a0", ""]).encode() + payload
                   + rng.choice([" \n", "x", "}", "{}", "\x00", "\u2028", ""]).encode()
                   + rng.choice([b"", b"\xff", b"\xef\xbb\xbf"]))
    return payload, report.location


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_raw_payloads_match_the_reference_after_every_envelope(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=4)
    registry = PotholeRegistry(net)
    server = Server(net, registry, preprocess(net, registry), KEY)
    reference = OracleIntake(net, KEY)
    for now in range(0, 10 * rng.randint(1, 12), 10):
        payload, location = raw_payload(rng, net)
        assert_same_intake(server, reference,
                           (oracle_seal(payload, KEY, location, rng), location, "v1", now))


# -- condition answers ----------------------------------------------------------

def condition_by_lookups(server, arc):
    """The condition answer built from `StreetNetwork.arc`, which checks the
    arc, the arc's weight and a scan of every record, in minting order."""
    try:
        server.net.arc(arc)
    except (UnknownArcError, TypeError) as exc:
        return ErrorResponse(f"{type(exc).__name__}: {exc}", server.snapshot_seq)
    ids = tuple(rec.id for rec in server.registry.records.values() if rec.arc == arc)
    return ConditionResponse(arc, server.wnet.arc_weights[arc], ids, server.snapshot_seq)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_condition_answers_match_the_lookups(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=5)
    registry = PotholeRegistry(net)
    server = Server(net, registry, preprocess(net, registry), KEY)
    for args in intake_stream(rng, net, rng.randint(0, 30)):
        server.receive_envelope(*args)
    failed = 0
    for arc in [*sorted(net.arcs), "zz", "", 7, None, ("a0",), ["a0"]]:
        want = condition_by_lookups(server, arc)
        failed += isinstance(want, ErrorResponse)
        assert server.query(ConditionRequest(arc)) == want
    assert server.stats.queries_failed == failed == 6
    assert server.stats.queries_answered == len(net.arcs)


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
