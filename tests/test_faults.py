"""Fault matrix: one fault at a time on the radio or in the store's STATE answer, against a current device.

Two invariants hold for every fault. The gate opens only if the verdict equals the
fault-free verdict, and every failure is a TltError subclass (anything else escapes
and fails the test). A store that hangs up or stays silent is a StoreUnavailable.

Out of scope: flipping the current flag of a stale device's STATE answer opens the
gate, since the client trusts the socket it reads and cannot authenticate the store.
"""

from __future__ import annotations

import pytest

from tlt import crypto, netstore, transport
from tlt.device import RESPONSE_LEN
from tlt.errors import ParseError, StoreUnavailable, TltError
from tlt.netstore import StoreClient, StoreServer
from tlt.verifier import StateCheck, TrustVerdict, Verifier, run_exchange, scan

FRAME_LEN = {  # each message of an exchange is one data frame
    transport.MSG_CHALLENGE: transport.DATA_HEADER_LEN + crypto.NONCE_LEN,
    transport.MSG_RESPONSE: transport.DATA_HEADER_LEN + RESPONSE_LEN,
}


def _flip(data: bytes, bit: int) -> bytes:
    i = bit // 8
    return data[:i] + bytes([data[i] ^ (1 << bit % 8)]) + data[i + 1 :]


def _outcome(run):
    """run()'s verdict, or the TltError it raised."""
    try:
        return run()
    except TltError as exc:
        return exc


def _assert_fails_closed(outcome, honest: TrustVerdict, case: str) -> None:
    if isinstance(outcome, TrustVerdict):
        assert not outcome.gate or outcome == honest, (case, outcome)
    else:
        assert isinstance(outcome, TltError), (case, outcome)


# ---------------------------------------------------------------------------
# Radio: between transport.send and transport.receive, driving Verifier as C1 does
# ---------------------------------------------------------------------------

def _radio_fault(kind: str, n: int):
    """The frames a receiver gets in place of one sent frame; n is the cut length or the bit flipped."""
    return {
        "drop": lambda frame: [],
        "duplicate": lambda frame: [frame, frame],
        "truncate": lambda frame: [frame[:n]],
        "flip": lambda frame: [_flip(frame, n)],
    }[kind]


def _radio_exchange(stack, faulted=None, fault=None):
    """One exchange with the stack's device; fault maps the frames of the message of type faulted."""

    def deliver(frames, msg_type):
        (frame,) = frames
        assert len(frame) == FRAME_LEN[msg_type]
        return transport.receive(fault(frame) if msg_type == faulted else frames, msg_type)

    user = Verifier(stack.rng)
    uuid = scan(stack.dev.advertise())
    view = stack.store.lookup_device(uuid)
    session, frames = user.issue_challenge(uuid)
    challenge = deliver(frames, transport.MSG_CHALLENGE)
    frames = transport.send(transport.MSG_RESPONSE, stack.dev.handle_challenge(challenge))
    response = deliver(frames, transport.MSG_RESPONSE)
    return user.verify_response(session, response, view, stack.store)


@pytest.mark.parametrize("faulted", [transport.MSG_CHALLENGE, transport.MSG_RESPONSE], ids=["challenge", "response"])
@pytest.mark.parametrize("kind", ["drop", "duplicate", "truncate", "flip"])
def test_a_radio_fault_fails_closed(stack, faulted, kind):
    honest = _radio_exchange(stack)
    assert honest.state_check is StateCheck.VERIFIED_CURRENT
    cases = {"truncate": FRAME_LEN[faulted], "flip": 8 * FRAME_LEN[faulted]}.get(kind, 1)
    for n in range(cases):
        outcome = _outcome(lambda: _radio_exchange(stack, faulted, _radio_fault(kind, n)))
        _assert_fails_closed(outcome, honest, f"{kind} {n}")


# ---------------------------------------------------------------------------
# Socket: a stand-in server answers DEV honestly and STATE with a fault, then hangs up
# ---------------------------------------------------------------------------

def _state_faults(kind: str, honest: bytes) -> list[bytes | None]:
    """The STATE replies to send in place of the honest line; None says nothing."""
    if kind == "cut":
        return [honest[:n] for n in range(len(honest))]
    if kind == "flip":
        return [_flip(honest, bit) for bit in range(8 * len(honest))]
    return [{"empty": b"\n", "non-hex": b"OK zz\n", "hang-up": b"", "silence": None}[kind]]


@pytest.mark.parametrize("kind", ["cut", "flip", "empty", "non-hex", "hang-up", "silence"])
def test_a_state_answer_fault_fails_closed(stack, monkeypatch, kind):
    digest = stack.dev.compute_state_digest()
    honest_line = netstore.handle_request_line(stack.store, f"STATE {stack.dev.uuid.hex()} {digest.hex()}") + "\n"
    reply = [honest_line.encode()]

    def handle(handler):
        while line := handler.rfile.readline():
            if not line.startswith(b"STATE "):
                answer = netstore.handle_request_line(stack.store, line.decode().rstrip("\n"))
                handler.wfile.write((answer + "\n").encode())
            elif reply[0] is None:
                handler.rfile.read()  # silent until the client gives up and hangs up
            else:
                handler.wfile.write(reply[0])
                return  # and hang up

    monkeypatch.setattr(netstore._Handler, "handle", handle)
    monkeypatch.setattr(netstore, "TIMEOUT", 0.2)
    with StoreServer(stack.store) as server:

        def exchange():
            with StoreClient(*server.address) as client:
                return run_exchange(client, stack.dev, stack.rng)

        honest = exchange()
        assert honest.state_check is StateCheck.VERIFIED_CURRENT
        for n, reply[0] in enumerate(_state_faults(kind, honest_line.encode())):
            outcome = _outcome(exchange)
            _assert_fails_closed(outcome, honest, f"{kind} {n}: {reply[0]!r}")
            if kind in ("cut", "hang-up", "silence"):
                assert type(outcome) is StoreUnavailable, (n, outcome)
            if kind == "non-hex":
                assert type(outcome) is ParseError
