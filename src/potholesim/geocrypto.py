"""Location-bound report envelopes.

A detection report travels as an envelope whose keystream is derived from
(shared key, location, fresh 128-bit nonce), so the payload only opens at
the location it claims to come from.  Decryption checks the location tag,
verifies payload integrity, recovers the report and discards the nonce.

Wire layout:

    16-byte nonce || 32-byte location tag || 4-byte big-endian payload
    length || ciphertext || 32-byte integrity tag

All primitives are keyed BLAKE2b with domain-separated subkeys derived
from the 256-bit shared secret.  The three keyed states are built once per
key and copied for each use; the keystream is XORed over the whole buffer
as one integer; the location's compact JSON is written directly.  None of
these changes the construction or a byte on the wire.

An opened payload is decoded in one pass: `json.loads`, then each grid,
whose cells are scanned and copied when all are floats.  A payload that,
or one of whose grids, holds other keys than the encoder writes, that
nests deeper than the parser recurses, whose grid sizes are not JSON
integers or `cell_m` or a cell not a JSON number (a string, a bool), whose
`cell_m` is not finite or is finer than `config.MIN_CELL_M`, whose arc or
vehicle id is not a string, offset not a JSON number or timestamp not a
JSON integer (7.9), or whose number overflows its conversion, is refused
as IntegrityError like a forged one.

This is a deliberately small reference construction for a simulator with
a pre-shared key; it is NOT a reviewed, production-grade cipher and must
not be used to protect real data.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import json
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from math import inf
from typing import NamedTuple

from .config import MIN_CELL_M
from .detection import DepthMap, IntensityImage, SensorValueError

NONCE_LEN = 16
TAG_LEN = 32
LEN_FIELD = 4

Location = tuple[str, float]  # (arc id, offset in meters)


class GeocryptoError(Exception):
    """Base class for envelope failures."""


class EnvelopeFormatError(GeocryptoError):
    """Envelope bytes are truncated or structurally invalid."""


class LocationMismatchError(GeocryptoError):
    """The claimed location (or the tag key) does not match the envelope."""


class IntegrityError(GeocryptoError):
    """Ciphertext or integrity tag fails verification."""


class PlainReport(NamedTuple):
    depth_map: DepthMap
    intensity_image: IntensityImage
    arc: str
    offset_m: float
    vehicle_id: str
    timestamp_ms: int

    @property
    def location(self) -> Location:
        return (self.arc, self.offset_m)


@dataclass(frozen=True)
class ReportEnvelope:
    nonce: bytes
    location_tag: bytes
    ciphertext: bytes
    integrity_tag: bytes

    def to_bytes(self) -> bytes:
        return (self.nonce + self.location_tag
                + len(self.ciphertext).to_bytes(LEN_FIELD, "big")
                + self.ciphertext + self.integrity_tag)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ReportEnvelope":
        head = NONCE_LEN + TAG_LEN + LEN_FIELD
        if len(raw) < head + TAG_LEN:
            raise EnvelopeFormatError("envelope truncated")
        nonce = raw[:NONCE_LEN]
        loc_tag = raw[NONCE_LEN:NONCE_LEN + TAG_LEN]
        length = int.from_bytes(raw[NONCE_LEN + TAG_LEN:head], "big")
        if len(raw) != head + length + TAG_LEN:
            raise EnvelopeFormatError(
                f"declared payload length {length} does not match envelope size")
        return cls(nonce, loc_tag, raw[head:head + length], raw[head + length:])


@functools.lru_cache(maxsize=16)
def _keyed_states(key: bytes) -> tuple[hashlib.blake2b, hashlib.blake2b, hashlib.blake2b]:
    """BLAKE2b states for the location tag, the keystream and the integrity
    tag, each keyed by its domain-separated subkey of `key`.  Every use
    updates a `.copy()`, so the states themselves never change."""
    return tuple(
        hashlib.blake2b(key=hashlib.blake2b(purpose, key=key, digest_size=32).digest(),
                        digest_size=size)
        for purpose, size in ((b"location-tag", TAG_LEN), (b"keystream", 64),
                              (b"integrity", TAG_LEN)))


# the float reprs that JSON spells differently
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _location_bytes(location: Location) -> bytes:
    """The compact JSON of `[arc, float(offset)]`, written directly: the
    encoder's own string escaping and float repr, without building one."""
    arc, offset = location
    number = repr(float(offset))
    return f"[{encode_basestring_ascii(arc)},{_JSON_FLOATS.get(number, number)}]".encode()


def _digest(state: hashlib.blake2b, *parts: bytes) -> bytes:
    """The digest of a copy of `state` updated with `parts`."""
    mac = state.copy()
    for part in parts:
        mac.update(part)
    return mac.digest()


def _xor_keystream(stream_state: hashlib.blake2b, nonce: bytes, loc: bytes,
                   data: bytes) -> bytes:
    """`data` XORed with the keystream of (nonce, location): the 64-byte
    blocks BLAKE2b(nonce || location || 8-byte big-endian counter)."""
    seeded = stream_state.copy()
    seeded.update(nonce + loc)
    blocks = []
    for counter in range((len(data) + 63) // 64):
        block = seeded.copy()
        block.update(counter.to_bytes(8, "big"))
        blocks.append(block.digest())
    stream = b"".join(blocks)[:len(data)]
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(
        len(data), "big")


def _integrity_tag(mac_state: hashlib.blake2b, nonce: bytes, loc_tag: bytes,
                   ciphertext: bytes) -> bytes:
    return _digest(mac_state, nonce, loc_tag,
                   len(ciphertext).to_bytes(LEN_FIELD, "big"), ciphertext)


def _grid_to_dict(report: PlainReport) -> dict:
    dm, ii = report.depth_map, report.intensity_image
    return {
        "depth_map": {"rows": dm.rows, "cols": dm.cols, "cell_m": dm.cell_m,
                      "depths": dm.depths},
        "intensity_image": {"rows": ii.rows, "cols": ii.cols, "values": ii.values},
        "arc": report.arc,
        "offset_m": report.offset_m,
        "vehicle_id": report.vehicle_id,
        "timestamp_ms": report.timestamp_ms,
    }


def _number(value, what: str) -> float:
    """`value`, a JSON number, as a float; OverflowError past a float's range."""
    if type(value) is float or type(value) is int:
        return float(value)
    raise TypeError(f"{what} is a {type(value).__name__}, not a number")


def _cells(cells, what: str) -> list[float]:
    """`cells`, JSON numbers, as floats: the decoded list itself when all are
    floats; a non-list passes only when empty, which no grid's size admits."""
    for cell in cells:
        if type(cell) is not float:
            return [_number(cell, what) for cell in cells]
    return cells


def _report_from_dict(raw) -> PlainReport:
    # the JSON types of `inputs.finite` and `integer`, accepting case first
    dm, ii = raw["depth_map"], raw["intensity_image"]
    arc, offset, vehicle, timestamp = (raw["arc"], raw["offset_m"], raw["vehicle_id"],
                                       raw["timestamp_ms"])
    rows, cols, cell_m, depths = dm["rows"], dm["cols"], dm["cell_m"], dm["depths"]
    ii_rows, ii_cols, values = ii["rows"], ii["cols"], ii["values"]
    # every key `_grid_to_dict` writes is read above (KeyError for a missing
    # one), so an object of as many keys holds no other
    if len(raw) != 6 or len(dm) != 4 or len(ii) != 3:
        raise TypeError("the payload or a grid holds a key that the encoder does not write")
    if not type(rows) is type(cols) is type(ii_rows) is type(ii_cols) is int:
        raise TypeError(f"grid sizes {[rows, cols, ii_rows, ii_cols]!r} are not all integers")
    if type(cell_m) is not float:
        cell_m = _number(cell_m, "cell_m")
    if not MIN_CELL_M <= cell_m < inf:  # also refuses NaN
        raise ValueError(f"cell_m must be a finite number >= {MIN_CELL_M}, got {cell_m!r}")
    depth_map = DepthMap(rows, cols, cell_m, _cells(depths, "a depth cell"))
    intensity_image = IntensityImage(ii_rows, ii_cols, _cells(values, "an intensity cell"))
    # an arc that is a list or an object could not key the registry's arc index
    if type(arc) is not str:
        raise TypeError(f"arc is a {type(arc).__name__}, not a string")
    if type(offset) is not float:
        offset = _number(offset, "offset_m")
    if type(vehicle) is not str:
        raise TypeError(f"vehicle_id is a {type(vehicle).__name__}, not a string")
    if type(timestamp) is not int:
        raise TypeError(f"timestamp_ms is a {type(timestamp).__name__}, not an integer")
    return PlainReport(depth_map, intensity_image, arc, offset, vehicle, timestamp)


def encrypt(report: PlainReport, key: bytes, rng: random.Random) -> ReportEnvelope:
    """Seal a report into an envelope bound to its own location."""
    if len(key) != 32:
        raise ValueError("shared key must be 32 bytes")
    tag_state, stream_state, mac_state = _keyed_states(bytes(key))
    nonce = rng.randbytes(NONCE_LEN)
    loc = _location_bytes(report.location)
    payload = json.dumps(_grid_to_dict(report), sort_keys=True,
                         separators=(",", ":")).encode()
    ciphertext = _xor_keystream(stream_state, nonce, loc, payload)
    loc_tag = _digest(tag_state, loc)
    return ReportEnvelope(nonce, loc_tag, ciphertext,
                          _integrity_tag(mac_state, nonce, loc_tag, ciphertext))


def decrypt(env: ReportEnvelope, key: bytes, claimed_location: Location) -> PlainReport:
    """Open an envelope at the claimed location.

    The location tag is checked first, then payload integrity; the nonce
    never appears in the returned report.  A wrong shared key surfaces as
    a location-tag mismatch because the tag is keyed.  An authentic report
    whose grid holds a cell no scanner reads raises SensorValueError.
    """
    if len(key) != 32:
        raise ValueError("shared key must be 32 bytes")
    if len(env.nonce) != NONCE_LEN or len(env.location_tag) != TAG_LEN \
            or len(env.integrity_tag) != TAG_LEN:
        raise EnvelopeFormatError("envelope field lengths invalid")
    tag_state, stream_state, mac_state = _keyed_states(bytes(key))
    loc = _location_bytes(claimed_location)
    if not hmac.compare_digest(env.location_tag, _digest(tag_state, loc)):
        raise LocationMismatchError("location tag check failed")
    expected = _integrity_tag(mac_state, env.nonce, env.location_tag, env.ciphertext)
    if not hmac.compare_digest(env.integrity_tag, expected):
        raise IntegrityError("integrity tag check failed")
    payload = _xor_keystream(stream_state, env.nonce, loc, env.ciphertext)
    try:
        return _report_from_dict(json.loads(payload.decode()))
    except SensorValueError:
        raise
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        # KeyError: a missing key; TypeError: an unknown key or a field of
        # the wrong JSON type; OverflowError: an integer too large for a
        # float; RecursionError: nesting deeper than the parser recurses
        raise IntegrityError(f"payload did not decode: {exc}") from exc
