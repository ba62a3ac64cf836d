"""User-side verification flow: scan, challenge, verify, decide.

The verifier trusts only the store (reached in-process or over the line
protocol) and its own freshly issued challenge nonces. Responses are checked
in order: signature, challenge freshness, state lookup, state currency. The
interaction gate opens only for a current, verified state, and a failed gate
can never be overridden by the user.

run_exchange is the one exchange loop (scan, DEV lookup, challenge, respond,
reassemble, verify); the CLI and the threat harness both go through it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import crypto, transport
from .device import RESPONSE_LEN, DeviceState
from .errors import NoSuchSession, NotFound, ParseError
from .store import DeviceView

_SIGNED_LEN = RESPONSE_LEN - crypto.SIGNATURE_LEN


class StateCheck(enum.Enum):
    VERIFIED_CURRENT = "verified_current"
    VERIFIED_STALE = "verified_stale"
    UNKNOWN_STATE = "unknown_state"
    BAD_SIGNATURE = "bad_signature"
    REPLAY_DETECTED = "replay_detected"
    UNKNOWN_DEVICE = "unknown_device"


@dataclass(frozen=True)
class ChallengeSession:
    uuid: bytes
    challenge: bytes


@dataclass(frozen=True)
class TrustVerdict:
    uuid: bytes
    state_check: StateCheck
    reason: str

    @property
    def gate(self) -> bool:  # open exactly on a verified, current state
        return self.state_check is StateCheck.VERIFIED_CURRENT

    def render(self) -> str:
        return f"VERDICT uuid={self.uuid.hex()} state={self.state_check.value} gate={self.gate:d} reason={self.reason}"


def parse_verdict_line(line: str) -> TrustVerdict:
    """Inverse of TrustVerdict.render; ParseError on any other line, including a gate its state does not give."""
    parts = line.strip().split(" ", 4)
    if len(parts) != 5 or parts[0] != "VERDICT" or not all("=" in p for p in parts[1:]):
        raise ParseError("not a VERDICT line")
    fields = dict(p.split("=", 1) for p in parts[1:])
    missing = {"uuid", "state", "gate", "reason"} - fields.keys()
    if missing:
        raise ParseError(f"VERDICT line lacks {', '.join(sorted(missing))}")
    try:
        verdict = TrustVerdict(bytes.fromhex(fields["uuid"]), StateCheck(fields["state"]), fields["reason"])
    except ValueError as exc:
        raise ParseError(f"bad VERDICT line: {exc}") from None
    if len(verdict.uuid) != crypto.UUID_LEN or verdict.uuid.hex() != fields["uuid"]:  # as render writes it
        raise ParseError(f"VERDICT uuid must be {2 * crypto.UUID_LEN} lower-case hex digits")
    if fields["gate"] != f"{verdict.gate:d}":
        raise ParseError(f"VERDICT line has gate={fields['gate']} but state={fields['state']}")
    return verdict


def scan(frame_bytes: bytes) -> bytes:
    """UUID from an advertising frame; raises ParseError when malformed."""
    return transport.parse_advertisement(frame_bytes)


class Verifier:
    """One verification session registry; read-only toward the store."""

    def __init__(self, rng=None):
        self._rng = rng
        self._sessions: dict[bytes, ChallengeSession] = {}  # the live session per UUID

    def issue_challenge(self, uuid: bytes) -> tuple[ChallengeSession, list[bytes]]:
        """Fresh nonce for a device, framed for the data channel.

        Reissuing replaces any outstanding challenge for the same UUID, so
        at most one is live per device: the very session object returned here.
        """
        session = ChallengeSession(bytes(uuid), crypto.new_nonce(self._rng))
        self._sessions[session.uuid] = session
        return session, transport.send(transport.MSG_CHALLENGE, session.challenge)

    def verify_response(
        self, session: ChallengeSession, response: bytes, device_view: DeviceView | None, store
    ) -> TrustVerdict:
        """Judge a reassembled response payload.

        The challenge is consumed whatever the outcome; a second submission
        against the same session raises NoSuchSession.
        """
        if self._sessions.get(session.uuid) is not session:
            raise NoSuchSession("no outstanding challenge for this device")
        del self._sessions[session.uuid]

        def verdict(check: StateCheck, reason: str) -> TrustVerdict:
            return TrustVerdict(session.uuid, check, reason)

        if device_view is None:
            return verdict(StateCheck.UNKNOWN_DEVICE, "device is not registered")

        response = bytes(response)
        if len(response) != RESPONSE_LEN:
            return verdict(
                StateCheck.BAD_SIGNATURE, f"response is {len(response)} bytes, expected {RESPONSE_LEN}"
            )
        signed, signature = response[:_SIGNED_LEN], response[_SIGNED_LEN:]
        if not crypto.verify(device_view.public_key, signed, signature):
            return verdict(StateCheck.BAD_SIGNATURE, "signature does not verify under the device key")

        echoed = response[crypto.DIGEST_LEN : crypto.DIGEST_LEN + crypto.NONCE_LEN]
        if echoed != session.challenge:
            return verdict(StateCheck.REPLAY_DETECTED, "echoed challenge does not match this session")

        reported = response[: crypto.DIGEST_LEN]
        try:
            state_view = store.lookup_state(session.uuid, reported)
        except NotFound:
            return verdict(StateCheck.UNKNOWN_STATE, "reported state is not registered")

        if not state_view.current:
            return verdict(
                StateCheck.VERIFIED_STALE,
                f"state is registered but superseded (firmware {state_view.fw_meta!r})",
            )
        return verdict(StateCheck.VERIFIED_CURRENT, "ok")


def run_exchange(store_view, device: DeviceState, rng, respond=None) -> TrustVerdict:
    """One full exchange with a device.

    Each side's encoded frames go straight to the other side's parser; no
    radio is modelled. store_view is a Store or a StoreClient. `respond`
    replaces the device's answer to the challenge (an attacker on the radio).
    """
    user = Verifier(rng)

    uuid = scan(device.advertise())
    try:
        view = store_view.lookup_device(uuid)
    except NotFound:
        view = None

    session, frames = user.issue_challenge(uuid)
    challenge = transport.receive(frames, transport.MSG_CHALLENGE)

    payload = respond(challenge) if respond is not None else device.handle_challenge(challenge)
    response = transport.receive(transport.send(transport.MSG_RESPONSE, payload), transport.MSG_RESPONSE)
    return user.verify_response(session, response, view, store_view)


def trust_decision(verdict: TrustVerdict, auto_accept: bool, prompt=None) -> bool:
    """Final accept/reject. A closed gate is never overridable by the user, so it is not asked."""
    if auto_accept or not verdict.gate:
        return verdict.gate
    ask = prompt if prompt is not None else input
    answer = ask(f"{verdict.render()}\naccept interaction? [y/N] ").strip().lower()
    return answer in ("y", "yes")
