from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlt import crypto, transport
from tlt.errors import InconsistentSet, MissingFragment, ParseError, PayloadTooLarge, TltError


# ---------------------------------------------------------------------------
# Advertising frames
# ---------------------------------------------------------------------------

def test_advertisement_is_19_bytes(rng):
    frame = transport.encode_advertisement(crypto.generate_uuid(rng))
    assert len(frame) == 19 <= transport.ADV_MAX


def test_advertisement_round_trip(rng):
    uuid = crypto.generate_uuid(rng)
    assert transport.parse_advertisement(transport.encode_advertisement(uuid)) == uuid


def test_advertisement_rejects_wrong_magic(rng):
    frame = bytearray(transport.encode_advertisement(crypto.generate_uuid(rng)))
    frame[0] ^= 0xFF
    with pytest.raises(ParseError):
        transport.parse_advertisement(bytes(frame))


def test_advertisement_rejects_wrong_version(rng):
    frame = bytearray(transport.encode_advertisement(crypto.generate_uuid(rng)))
    frame[1] = 0x02
    with pytest.raises(ParseError):
        transport.parse_advertisement(bytes(frame))


def test_advertisement_rejects_wrong_length():
    with pytest.raises(ParseError):
        transport.parse_advertisement(b"\x54\x01\x00" + b"\x00" * 15)  # 18 bytes


def test_advertisement_fuzz_never_crashes(rng):
    for _ in range(10_000):
        blob = rng.bytes(rng.bytes(1)[0] % 32)  # lengths 0..31
        try:
            uuid = transport.parse_advertisement(blob)
            assert len(uuid) == 16
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# Fragmentation
# ---------------------------------------------------------------------------

def test_response_sized_payload_is_single_frame(rng):
    frames = transport.fragment(transport.MSG_RESPONSE, rng.bytes(128))
    assert len(frames) == 1
    assert len(transport.encode_data_frame(frames[0])) == 133 <= transport.DATA_MAX


def test_1650_byte_payload_fragments_to_seven_frames(rng):
    payload = rng.bytes(1650)
    frames = transport.fragment(transport.MSG_FRAGMENT, payload)
    assert len(frames) == math.ceil(1650 / 250) == 7
    assert all(len(transport.encode_data_frame(f)) <= transport.DATA_MAX for f in frames)
    assert transport.reassemble(frames) == (transport.MSG_FRAGMENT, payload)


def test_empty_payload_single_frame():
    frames = transport.fragment(transport.MSG_CHALLENGE, b"")
    assert len(frames) == 1
    assert frames[0].payload == b""
    encoded = transport.encode_data_frame(frames[0])
    assert int.from_bytes(encoded[3:5], "big") == 0


def test_payload_too_large(rng):
    transport.fragment(transport.MSG_FRAGMENT, b"\x00" * transport.MAX_FRAGMENTED_PAYLOAD)
    with pytest.raises(PayloadTooLarge):
        transport.fragment(transport.MSG_FRAGMENT, b"\x00" * (transport.MAX_FRAGMENTED_PAYLOAD + 1))


def test_frame_size_law(rng):
    for size in (0, 1, 249, 250, 251, 500, 1000, 1650, 4000):
        for f in transport.fragment(transport.MSG_FRAGMENT, rng.bytes(size)):
            assert len(transport.encode_data_frame(f)) <= transport.DATA_MAX
    adv = transport.encode_advertisement(crypto.generate_uuid(rng))
    assert len(adv) <= transport.ADV_MAX


@settings(max_examples=120)
@given(st.integers(min_value=0, max_value=1650), st.integers(min_value=0, max_value=2**32))
def test_fragment_reassemble_identity(size, seed):
    payload = random.Random(seed).randbytes(size)
    frames = transport.fragment(transport.MSG_RESPONSE, payload)
    wire = [transport.encode_data_frame(f) for f in frames]
    decoded = [transport.parse_data_frame(w) for w in wire]
    assert transport.reassemble(decoded) == (transport.MSG_RESPONSE, payload)


def test_reassemble_tolerates_shuffling(rng):
    payload = rng.bytes(1200)
    frames = transport.fragment(transport.MSG_FRAGMENT, payload)
    shuffled = list(frames)
    random.Random(3).shuffle(shuffled)
    assert transport.reassemble(shuffled) == (transport.MSG_FRAGMENT, payload)


def test_reassemble_missing_fragment(rng):
    frames = transport.fragment(transport.MSG_FRAGMENT, rng.bytes(800))
    del frames[1]
    with pytest.raises(MissingFragment):
        transport.reassemble(frames)
    with pytest.raises(MissingFragment):
        transport.reassemble([])


def test_reassemble_inconsistent_set(rng):
    frames_a = transport.fragment(transport.MSG_FRAGMENT, rng.bytes(600))
    frames_b = transport.fragment(transport.MSG_RESPONSE, rng.bytes(600))
    with pytest.raises(InconsistentSet):
        transport.reassemble([frames_a[0], frames_b[1], frames_a[2]])
    with pytest.raises(InconsistentSet):
        transport.reassemble([frames_a[0], frames_a[0], frames_a[1], frames_a[2]])


def test_receive_reads_only_its_message_type(rng):
    payload = rng.bytes(600)
    wire = transport.send(transport.MSG_RESPONSE, payload)
    assert wire == [transport.encode_data_frame(f) for f in transport.fragment(transport.MSG_RESPONSE, payload)]
    assert transport.receive(wire, transport.MSG_RESPONSE) == payload
    with pytest.raises(ParseError, match="expected message type 0x01, got 0x02"):
        transport.receive(wire, transport.MSG_CHALLENGE)
    with pytest.raises(MissingFragment):
        transport.receive(wire[1:], transport.MSG_RESPONSE)


# ---------------------------------------------------------------------------
# Data frame codec edges
# ---------------------------------------------------------------------------

def test_parse_data_frame_rejects_bad_length_field(rng):
    frame = bytearray(transport.encode_data_frame(transport.fragment(0x01, rng.bytes(40))[0]))
    frame[4] ^= 0x01  # payload_len no longer matches
    with pytest.raises(ParseError):
        transport.parse_data_frame(bytes(frame))


def test_parse_data_frame_rejects_truncated_header():
    with pytest.raises(ParseError):
        transport.parse_data_frame(b"\x01\x00")


def test_parse_data_frame_rejects_oversize():
    for size in (transport.DATA_MAX + 1, 1651):
        blob = bytes([0x01, 0, 1]) + (size - 5).to_bytes(2, "big") + b"\x00" * (size - 5)
        with pytest.raises(ParseError):
            transport.parse_data_frame(blob)


def test_parse_data_frame_rejects_bad_counters(rng):
    good = transport.encode_data_frame(transport.fragment(0x01, rng.bytes(10))[0])
    bad_total = bytearray(good)
    bad_total[2] = 0
    with pytest.raises(ParseError):
        transport.parse_data_frame(bytes(bad_total))
    bad_index = bytearray(good)
    bad_index[1] = 5  # index >= total
    with pytest.raises(ParseError):
        transport.parse_data_frame(bytes(bad_index))


@given(st.binary(max_size=transport.DATA_MAX + 5))
def test_any_bytes_parse_to_their_data_frame_or_an_error(data):
    try:
        frame = transport.parse_data_frame(data)
    except (ParseError, PayloadTooLarge):
        return
    assert transport.encode_data_frame(frame) == data


@given(st.binary(max_size=transport.DATA_HEADER_LEN - 1))
def test_every_frame_under_five_bytes_is_a_parse_error(data):
    with pytest.raises(ParseError, match="^payload length does not match frame size$"):
        transport.parse_data_frame(data)


# Near-valid frames: either message type, small counters and a true length field.
_near_valid_frame = st.builds(
    lambda msg_type, index, total, payload: bytes([msg_type, index, total, 0, len(payload)]) + payload,
    st.sampled_from([transport.MSG_CHALLENGE, transport.MSG_RESPONSE]),
    st.integers(0, 1), st.integers(1, 2), st.binary(max_size=4),
)


@settings(max_examples=300)
@given(st.lists(_near_valid_frame, max_size=3) | st.lists(st.binary(max_size=8), max_size=3))
def test_receive_of_any_frames_is_a_payload_or_a_tlt_error(frames):
    try:
        payload = transport.receive(frames, transport.MSG_RESPONSE)
    except TltError:
        return
    assert payload == b"".join(frame[5:] for frame in sorted(frames, key=lambda frame: frame[1]))


def test_data_frame_payload_cap():
    with pytest.raises(PayloadTooLarge):
        transport.DataFrame(0x01, 0, 1, b"\x00" * 251)
