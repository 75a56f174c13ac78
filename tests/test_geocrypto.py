import hashlib
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_decrypt, oracle_encrypt
from potholesim import geocrypto
from potholesim.detection import DepthMap, IntensityImage
from potholesim.geocrypto import (EnvelopeFormatError, GeocryptoError,
                                  IntegrityError, LocationMismatchError,
                                  PlainReport, ReportEnvelope, decrypt, encrypt)

KEY = bytes(range(32))
OTHER_KEY = bytes(range(1, 33))


def make_report(depths=(0.0, 12.5, 50.0), arc="ab", offset=5.25, vid="v1", ts=1000):
    n = len(depths)
    return PlainReport(
        depth_map=DepthMap(1, n, 0.5, list(depths)),
        intensity_image=IntensityImage(1, n, [0.4] * n),
        arc=arc, offset_m=offset, vehicle_id=vid, timestamp_ms=ts)


def test_round_trip_is_field_exact():
    rng = random.Random(1)
    report = make_report()
    env = encrypt(report, KEY, rng)
    back = decrypt(env, KEY, report.location)
    assert back == report


def test_two_encryptions_differ():
    rng = random.Random(2)
    report = make_report()
    a = encrypt(report, KEY, rng)
    b = encrypt(report, KEY, rng)
    assert a.nonce != b.nonce
    assert a.ciphertext != b.ciphertext


def test_minimal_payload_round_trips():
    rng = random.Random(3)
    report = make_report(depths=(0.0,))
    env = encrypt(report, KEY, rng)
    assert decrypt(env, KEY, report.location) == report


def test_wrong_location_rejected_before_plaintext():
    rng = random.Random(4)
    report = make_report()
    env = encrypt(report, KEY, rng)
    with pytest.raises(LocationMismatchError):
        decrypt(env, KEY, ("ab", 5.26))
    with pytest.raises(LocationMismatchError):
        decrypt(env, KEY, ("cd", 5.25))


def test_wrong_key_rejected():
    rng = random.Random(5)
    report = make_report()
    env = encrypt(report, KEY, rng)
    with pytest.raises(GeocryptoError):
        decrypt(env, OTHER_KEY, report.location)


def test_flipped_ciphertext_byte_rejected():
    rng = random.Random(6)
    report = make_report()
    env = encrypt(report, KEY, rng)
    mutated = bytearray(env.ciphertext)
    mutated[3] ^= 0x40
    bad = ReportEnvelope(env.nonce, env.location_tag, bytes(mutated), env.integrity_tag)
    with pytest.raises(IntegrityError):
        decrypt(bad, KEY, report.location)


def test_every_single_byte_flip_rejected():
    rng = random.Random(7)
    report = make_report(depths=(11.0, 22.0))
    env = encrypt(report, KEY, rng)
    wire = env.to_bytes()
    for i in range(len(wire)):
        mutated = bytearray(wire)
        mutated[i] ^= 0x01
        with pytest.raises(GeocryptoError):
            decrypt(ReportEnvelope.from_bytes(bytes(mutated)), KEY, report.location)


def test_truncated_envelope_rejected():
    rng = random.Random(8)
    env = encrypt(make_report(), KEY, rng)
    wire = env.to_bytes()
    with pytest.raises(EnvelopeFormatError):
        ReportEnvelope.from_bytes(wire[:40])
    with pytest.raises(EnvelopeFormatError):
        ReportEnvelope.from_bytes(wire[:-1])


def test_wire_layout():
    rng = random.Random(9)
    env = encrypt(make_report(), KEY, rng)
    wire = env.to_bytes()
    assert wire[:16] == env.nonce
    assert wire[16:48] == env.location_tag
    assert int.from_bytes(wire[48:52], "big") == len(env.ciphertext)
    assert wire[-32:] == env.integrity_tag
    assert ReportEnvelope.from_bytes(wire) == env


def test_nonces_distinct_and_no_leakage():
    rng = random.Random(10)
    report = make_report(depths=(15.0,))
    nonces = set()
    for _ in range(500):
        env = encrypt(report, KEY, rng)
        nonces.add(env.nonce)
        back = decrypt(env, KEY, report.location)
        assert not hasattr(back, "nonce")
    assert len(nonces) == 500


@pytest.mark.parametrize("key", [b"", bytes(31), bytes(33)])
def test_key_must_be_32_bytes(key):
    report = make_report()
    env = encrypt(report, KEY, random.Random(11))
    cached = geocrypto._keyed_states.cache_info()
    with pytest.raises(ValueError, match="32 bytes"):
        encrypt(report, key, random.Random(11))
    with pytest.raises(ValueError, match="32 bytes"):
        decrypt(env, key, report.location)
    assert geocrypto._keyed_states.cache_info() == cached  # refused before the cache


def test_switching_keys_refuses_the_wrong_key_every_time():
    report = make_report()
    env = {key: encrypt(report, key, random.Random(12)) for key in (KEY, OTHER_KEY)}
    for _ in range(3):
        for key, other in ((KEY, OTHER_KEY), (OTHER_KEY, KEY)):
            assert env[key] == oracle_encrypt(report, key, random.Random(12))
            assert decrypt(env[key], key, report.location) == report
            with pytest.raises(LocationMismatchError):
                decrypt(env[key], other, report.location)


# -- golden envelopes --------------------------------------------------------
# SHA-256 of `encrypt(...).to_bytes()` for seeded reports, recorded once from
# the byte-at-a-time construction in `helpers.oracle_encrypt` and never
# regenerated: a faster envelope must keep every wire byte.

def seeded_report(seed: int, rows: int, cols: int, arc: str = "ab",
                  offset: float = 5.25) -> PlainReport:
    rng = random.Random(seed)
    n = rows * cols
    return PlainReport(
        depth_map=DepthMap(rows, cols, 0.05, [rng.uniform(0.0, 80.0) for _ in range(n)]),
        intensity_image=IntensityImage(rows, cols, [rng.random() for _ in range(n)]),
        arc=arc, offset_m=offset, vehicle_id=f"v{seed}",
        timestamp_ms=rng.randrange(10**9))


GOLDEN_ENVELOPES = {
    "1-cell": ((21, 1, 1),
        "57ce393f17b07babb7de8aa66c1e885e487557956f90bd9ea417971c5ef9ea3b"),
    "4-cell": ((22, 1, 4),
        "78fb4d2f3eea673ee444802484d83abff62ed841a0c8ec8a921d6d0ff1282bec"),
    "400-cell": ((23, 20, 20),
        "88440bf2f25d45c95c8b7caa0f54bdd78cc2327aaee569b4a35a845f971fc5af"),
    "non-ascii-arc": ((24, 2, 3, "straße-東西-ü"),
        "02397a4055683ac7e944ef9ae09dbae74b036d79fed5b42eba1ab9a1e4c06f90"),
    "long-repr-offset": ((25, 1, 4, "ab", math.pi * 1e-6),
        "21b3fa89cb4c1e7e7fa76426563e06755d9a004672fbd0ebd2cd059278391605"),
}


@pytest.mark.parametrize("name", GOLDEN_ENVELOPES)
def test_envelope_bytes_match_golden_digests(name):
    args, digest = GOLDEN_ENVELOPES[name]
    report = seeded_report(*args)
    wire = encrypt(report, KEY, random.Random(args[0])).to_bytes()
    assert hashlib.sha256(wire).hexdigest() == digest
    assert decrypt(ReportEnvelope.from_bytes(wire), KEY, report.location) == report


# -- against the oracle ------------------------------------------------------

@st.composite
def envelope_cases(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    n = rows * cols
    report = PlainReport(
        depth_map=DepthMap(rows, cols, draw(st.floats(1e-3, 10.0)),
                           draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n))),
        intensity_image=IntensityImage(rows, cols,
                                       draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                                     max_size=n))),
        arc=draw(st.text(min_size=1, max_size=12)), offset_m=draw(st.floats(0.0, 1e5)),
        vehicle_id=draw(st.text(max_size=8)), timestamp_ms=draw(st.integers(0, 2**40)))
    return (report, draw(st.binary(min_size=32, max_size=32)), draw(st.integers(0, 2**32)),
            draw(st.integers(0, 2**20)), draw(st.integers(1, 255)))


def opened(open_envelope, wire: bytes, key: bytes, location):
    """The report, or the GeocryptoError subclass that refused the wire bytes."""
    try:
        return open_envelope(ReportEnvelope.from_bytes(wire), key, location)
    except GeocryptoError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(envelope_cases())
def test_envelopes_match_the_byte_at_a_time_oracle(case):
    report, key, seed, at, mask = case
    env = encrypt(report, key, random.Random(seed))
    assert env == oracle_encrypt(report, key, random.Random(seed))
    assert decrypt(env, key, report.location) == report
    assert oracle_decrypt(env, key, report.location) == report

    wire = bytearray(env.to_bytes())
    wire[at % len(wire)] ^= mask
    refused = opened(decrypt, bytes(wire), key, report.location)
    assert refused == opened(oracle_decrypt, bytes(wire), key, report.location)
    assert isinstance(refused, type) and issubclass(refused, GeocryptoError)

    elsewhere = (report.arc + "x", report.offset_m)
    assert opened(decrypt, env.to_bytes(), key, elsewhere) is LocationMismatchError


# -- the location encoding ---------------------------------------------------
# `encrypt` and `decrypt` both key on these bytes, so they must stay the
# compact JSON of `[arc, float(offset)]` for every arc and offset.

# any text: lone surrogates and control characters are drawn on purpose,
# since the JSON encoder escapes both
arcs = st.text(st.one_of(st.characters(exclude_categories=()),
                         st.characters(categories=["Cs"]), st.characters(categories=["Cc"])),
               max_size=12)
offsets = st.one_of(
    st.integers(-(2**1000), 2**1000), st.booleans(), st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                     math.inf, -math.inf, math.nan]))


@settings(max_examples=500)
@given(arcs, offsets)
@example("", 0)
def test_location_bytes_are_compact_json(arc, offset):
    assert geocrypto._location_bytes((arc, offset)) == json.dumps(
        [arc, float(offset)], separators=(",", ":")).encode()
