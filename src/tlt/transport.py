"""Constrained-radio framing and fragmentation.

Frame layouts (sizes mirror BLE payload budgets):

    advertising frame, 19 bytes, hard cap 31:
        magic(1)=0x54  version(1)=0x01  flags(1)  uuid(16)

    data frame, header 5 bytes, total <= 255:
        msg_type(1)  frag_index(1)  frag_total(1)  payload_len(2, big-endian)
        payload

Payloads are cut into 250-byte slices so each frame stays within 255 bytes.
send makes a message's encoded frames and receive reads them back. The radio
itself is not modelled: verifier.run_exchange hands each side's frames
straight to the other side. The transport does not authenticate anything:
corruption surfaces as a signature failure at the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .errors import InconsistentSet, MissingFragment, ParseError, PayloadTooLarge

ADV_MAGIC = 0x54
ADV_VERSION = 0x01
ADV_FRAME_LEN = 19
ADV_MAX = 31

DATA_HEADER_LEN = 5
DATA_MAX = 255
FRAG_PAYLOAD = DATA_MAX - DATA_HEADER_LEN  # 250
MAX_FRAGMENTED_PAYLOAD = FRAG_PAYLOAD * 0xFF  # frag_total is one byte

MSG_CHALLENGE = 0x01
MSG_RESPONSE = 0x02
MSG_FRAGMENT = 0x03

FLAG_OPERATIONAL = 0x01

# Optional hex tracing hook for the CLI's --trace-frames.
_trace = None


def set_frame_trace(writer) -> None:
    """Install a callable(direction, frame_bytes) invoked on encode/parse."""
    global _trace
    _trace = writer


def _traced(direction: str, data: bytes) -> bytes:
    if _trace is not None:
        _trace(direction, data)
    return data


# ---------------------------------------------------------------------------
# Advertising frames
# ---------------------------------------------------------------------------

def encode_advertisement(uuid: bytes, flags: int = 0) -> bytes:
    """19-byte broadcast frame carrying the device UUID."""
    if len(uuid) != crypto.UUID_LEN:
        raise ParseError(f"uuid must be {crypto.UUID_LEN} bytes")
    frame = bytes([ADV_MAGIC, ADV_VERSION, flags & 0xFF]) + bytes(uuid)
    assert len(frame) == ADV_FRAME_LEN <= ADV_MAX
    return _traced("enc", frame)


def parse_advertisement(data: bytes) -> bytes:
    """Extract the UUID; raises ParseError on bad magic/version/length."""
    data = bytes(data)
    _traced("dec", data)
    if len(data) != ADV_FRAME_LEN:
        raise ParseError(f"advertising frame must be {ADV_FRAME_LEN} bytes, got {len(data)}")
    if data[0] != ADV_MAGIC:
        raise ParseError("bad advertising magic byte")
    if data[1] != ADV_VERSION:
        raise ParseError("unsupported advertising version")
    return data[3:]


# ---------------------------------------------------------------------------
# Data frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataFrame:
    msg_type: int
    frag_index: int
    frag_total: int
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.msg_type <= 0xFF:
            raise ParseError("msg_type out of range")
        if not 1 <= self.frag_total <= 0xFF:
            raise ParseError("frag_total must be 1..255")
        if not 0 <= self.frag_index < self.frag_total:
            raise ParseError("frag_index must be below frag_total")
        if len(self.payload) > FRAG_PAYLOAD:
            raise PayloadTooLarge(f"frame payload {len(self.payload)} exceeds {FRAG_PAYLOAD} bytes")


def encode_data_frame(frame: DataFrame) -> bytes:
    out = (
        bytes([frame.msg_type, frame.frag_index, frame.frag_total])
        + len(frame.payload).to_bytes(2, "big")
        + frame.payload
    )
    assert len(out) <= DATA_MAX
    return _traced("enc", out)


def parse_data_frame(data: bytes) -> DataFrame:
    data = bytes(data)
    _traced("dec", data)
    if len(data) > DATA_MAX:
        raise ParseError(f"frame exceeds {DATA_MAX} bytes")
    payload_len = int.from_bytes(data[3:5], "big")  # a frame under 5 bytes has 5 + payload_len > len(data)
    if DATA_HEADER_LEN + payload_len != len(data):
        raise ParseError("payload length does not match frame size")
    return DataFrame(msg_type=data[0], frag_index=data[1], frag_total=data[2], payload=data[5:])


def fragment(msg_type: int, payload: bytes) -> list[DataFrame]:
    """Split a payload into the minimal set of 250-byte-payload frames."""
    payload = bytes(payload)
    if len(payload) > MAX_FRAGMENTED_PAYLOAD:
        raise PayloadTooLarge(
            f"payload {len(payload)} exceeds fragmentation limit {MAX_FRAGMENTED_PAYLOAD}"
        )
    slices = [payload[i : i + FRAG_PAYLOAD] for i in range(0, len(payload), FRAG_PAYLOAD)] or [b""]
    total = len(slices)
    return [DataFrame(msg_type, i, total, part) for i, part in enumerate(slices)]


def reassemble(frames) -> tuple[int, bytes]:
    """Inverse of fragment; tolerates reordering within the set."""
    frames = list(frames)
    if not frames:
        raise MissingFragment("no frames")
    msg_type, total = frames[0].msg_type, frames[0].frag_total
    by_index = {}
    for f in frames:
        if f.msg_type != msg_type or f.frag_total != total:
            raise InconsistentSet("frames disagree on msg_type or frag_total")
        if f.frag_index in by_index:
            raise InconsistentSet(f"duplicate fragment {f.frag_index}")
        by_index[f.frag_index] = f
    missing = [i for i in range(total) if i not in by_index]
    if missing:
        raise MissingFragment(f"missing fragment(s) {missing}")
    return msg_type, b"".join(by_index[i].payload for i in range(total))


def send(msg_type: int, payload: bytes) -> list[bytes]:
    """The encoded frames of one message; receive is its inverse."""
    return [encode_data_frame(f) for f in fragment(msg_type, payload)]


def receive(frames, msg_type: int) -> bytes:
    """The payload of one received message: parse its encoded frames and reassemble them; ParseError unless the
    message is of msg_type."""
    received, payload = reassemble([parse_data_frame(f) for f in frames])
    if received != msg_type:
        raise ParseError(f"expected message type 0x{msg_type:02x}, got 0x{received:02x}")
    return payload
