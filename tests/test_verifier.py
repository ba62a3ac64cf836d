from __future__ import annotations

import pytest

from tlt import crypto, documents, transport
from tlt.errors import NoSuchSession, ParseError
from tlt.verifier import StateCheck, TrustVerdict, Verifier, parse_verdict_line, scan, trust_decision

from conftest import build_stack

_UUID = "2f1c9a4e7b3d4c51a8e06d9f1b2c3a47"  # as TrustVerdict.render writes one


def _attest(stack, verifier: Verifier, dev=None, response=None):
    """Challenge a device and judge its (possibly overridden) response."""
    dev = dev or stack.dev
    session, _ = verifier.issue_challenge(dev.uuid)
    if response is None:
        response = dev.handle_challenge(session.challenge)
    try:
        view = stack.store.lookup_device(dev.uuid)
    except Exception:
        view = None
    return verifier.verify_response(session, response, view, stack.store)


# ---------------------------------------------------------------------------
# Scan
# ---------------------------------------------------------------------------

def test_scan_round_trip(stack):
    assert scan(stack.dev.advertise()) == stack.dev.uuid


def test_scan_malformed_frame():
    with pytest.raises(ParseError):
        scan(b"\x00" * 19)


def test_scan_feeds_lookup(stack):
    uuid = scan(stack.dev.advertise())
    assert documents.subject_uuid(stack.store.lookup_device(uuid).certificate) == stack.dev.uuid


# ---------------------------------------------------------------------------
# Challenges
# ---------------------------------------------------------------------------

def test_challenges_have_fresh_nonces(stack, rng):
    v = Verifier(rng)
    s1, _ = v.issue_challenge(stack.dev.uuid)
    s2, _ = v.issue_challenge(stack.dev.uuid)
    assert s1.challenge != s2.challenge


def test_challenge_fits_single_frame(stack, rng):
    v = Verifier(rng)
    session, frames = v.issue_challenge(stack.dev.uuid)
    assert len(session.challenge) == 16
    assert len(frames) == 1
    assert len(frames[0]) <= transport.DATA_MAX
    frame = transport.parse_data_frame(frames[0])
    assert frame.msg_type == transport.MSG_CHALLENGE
    assert frame.payload == session.challenge


def test_one_outstanding_challenge_per_uuid(stack, rng):
    v = Verifier(rng)
    s1, _ = v.issue_challenge(stack.dev.uuid)
    s2, _ = v.issue_challenge(stack.dev.uuid)
    view = stack.store.lookup_device(stack.dev.uuid)
    with pytest.raises(NoSuchSession):
        v.verify_response(s1, stack.dev.handle_challenge(s1.challenge), view, stack.store)
    verdict = v.verify_response(s2, stack.dev.handle_challenge(s2.challenge), view, stack.store)
    assert verdict.state_check == StateCheck.VERIFIED_CURRENT
    assert verdict.gate


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def test_honest_device_verified_current(stack, rng):
    verdict = _attest(stack, Verifier(rng))
    assert verdict.state_check == StateCheck.VERIFIED_CURRENT
    assert verdict.gate


def test_unregistered_state_detected(stack, rng):
    stack.dev.apply_configuration(b"off-book tweak", 1)  # never registered
    verdict = _attest(stack, Verifier(rng))
    assert verdict.state_check == StateCheck.UNKNOWN_STATE
    assert not verdict.gate
    assert verdict.reason


def test_stale_state_detected(stack, rng):
    old_response_digest = stack.dev.compute_state_digest()
    image2 = b"newer image"
    fw2 = documents.sign_firmware(image2, "v2", stack.mfr_sk, stack.mcrt)
    stack.store.register("firmware", fw2)
    inst2 = stack.dev.install_firmware(fw2, image2, [stack.mcrt], "slot=0")
    stack.store.register("installation", inst2)

    v = Verifier(rng)
    session, _ = v.issue_challenge(stack.dev.uuid)
    # craft a response for the superseded state with the device's real key
    to_sign = old_response_digest + session.challenge + crypto.new_nonce(rng)
    response = to_sign + crypto.sign(stack.dev.secret_key, to_sign)
    view = stack.store.lookup_device(stack.dev.uuid)
    verdict = v.verify_response(session, response, view, stack.store)
    assert verdict.state_check == StateCheck.VERIFIED_STALE
    assert not verdict.gate


def test_bad_signature_detected(stack, rng):
    v = Verifier(rng)
    session, _ = v.issue_challenge(stack.dev.uuid)
    response = bytearray(stack.dev.handle_challenge(session.challenge))
    response[-1] ^= 0x01
    view = stack.store.lookup_device(stack.dev.uuid)
    verdict = v.verify_response(session, bytes(response), view, stack.store)
    assert verdict.state_check == StateCheck.BAD_SIGNATURE
    assert not verdict.gate


def test_wrong_length_response_is_bad_signature(stack, rng):
    verdict = _attest(stack, Verifier(rng), response=b"\x01" * 60)
    assert verdict.state_check == StateCheck.BAD_SIGNATURE


def test_replay_detected(stack, rng):
    v = Verifier(rng)
    s1, _ = v.issue_challenge(stack.dev.uuid)
    captured = stack.dev.handle_challenge(s1.challenge)
    view = stack.store.lookup_device(stack.dev.uuid)
    v.verify_response(s1, captured, view, stack.store)

    s2, _ = v.issue_challenge(stack.dev.uuid)
    verdict = v.verify_response(s2, captured, view, stack.store)
    assert verdict.state_check == StateCheck.REPLAY_DETECTED
    assert not verdict.gate


def test_unknown_device(stack, rng):
    v = Verifier(rng)
    session, _ = v.issue_challenge(stack.dev.uuid)
    response = stack.dev.handle_challenge(session.challenge)
    verdict = v.verify_response(session, response, None, stack.store)
    assert verdict.state_check == StateCheck.UNKNOWN_DEVICE
    assert not verdict.gate


def test_challenge_consumed_regardless_of_outcome(stack, rng):
    v = Verifier(rng)
    session, _ = v.issue_challenge(stack.dev.uuid)
    response = stack.dev.handle_challenge(session.challenge)
    view = stack.store.lookup_device(stack.dev.uuid)
    v.verify_response(session, b"\x00" * 128, view, stack.store)  # fails, still consumes
    with pytest.raises(NoSuchSession):
        v.verify_response(session, response, view, stack.store)


def test_verdict_deterministic(rng):
    results = []
    for _ in range(2):
        stack = build_stack(seed=4242)
        v = Verifier(crypto.SeededRandomSource(1))
        session, _ = v.issue_challenge(stack.dev.uuid)
        response = stack.dev.handle_challenge(session.challenge)
        view = stack.store.lookup_device(stack.dev.uuid)
        results.append(v.verify_response(session, response, view, stack.store).render())
    assert results[0] == results[1]


def test_corrupted_frame_surfaces_as_bad_signature(stack, rng):
    """Transport does not authenticate; the signature check catches it."""
    v = Verifier(rng)
    session, _ = v.issue_challenge(stack.dev.uuid)
    response = stack.dev.handle_challenge(session.challenge)

    frames = []
    for f in transport.fragment(transport.MSG_RESPONSE, response):
        data = transport.encode_data_frame(f)
        frames.append(transport.parse_data_frame(data[:10] + bytes([data[10] ^ 0xFF]) + data[11:]))
    _, received = transport.reassemble(frames)
    assert received != response

    view = stack.store.lookup_device(stack.dev.uuid)
    verdict = v.verify_response(session, received, view, stack.store)
    assert verdict.state_check == StateCheck.BAD_SIGNATURE


# ---------------------------------------------------------------------------
# Decisions and rendering
# ---------------------------------------------------------------------------

def test_trust_decision_auto(stack, rng):
    verdict = _attest(stack, Verifier(rng))
    assert trust_decision(verdict, auto_accept=True)


def test_trust_decision_auto_rejects_closed_gate(stack, rng):
    v = Verifier(rng)
    session, _ = v.issue_challenge(stack.dev.uuid)
    stack.dev.handle_challenge(session.challenge)
    verdict = v.verify_response(session, b"\x00" * 128, None, stack.store)
    assert verdict.state_check == StateCheck.UNKNOWN_DEVICE
    assert not trust_decision(verdict, auto_accept=True)


def test_trust_decision_interactive_cannot_override_gate(stack, rng):
    stack.dev.apply_configuration(b"drift", 1)
    verdict = _attest(stack, Verifier(rng))
    assert not verdict.gate
    assert not trust_decision(verdict, auto_accept=False, prompt=lambda _: "yes")


def test_trust_decision_does_not_ask_on_a_closed_gate(stack, rng):
    stack.dev.apply_configuration(b"drift", 1)
    verdict = _attest(stack, Verifier(rng))

    def no_prompt(_question):
        raise AssertionError("asked about a closed gate")

    assert not trust_decision(verdict, auto_accept=False, prompt=no_prompt)


def test_trust_decision_interactive_choices(stack, rng):
    verdict = _attest(stack, Verifier(rng))
    assert verdict.gate
    assert trust_decision(verdict, auto_accept=False, prompt=lambda _: "y")
    assert not trust_decision(verdict, auto_accept=False, prompt=lambda _: "no")
    assert not trust_decision(verdict, auto_accept=False, prompt=lambda _: "")


def test_verdict_render_and_parse(stack, rng):
    verdict = _attest(stack, Verifier(rng))
    line = verdict.render()
    assert line.startswith("VERDICT uuid=")
    assert "state=verified_current" in line
    assert "gate=1" in line
    parsed = parse_verdict_line(line)
    assert parsed.uuid == verdict.uuid
    assert parsed.state_check == verdict.state_check
    assert parsed.gate == verdict.gate
    assert parsed.reason == verdict.reason


@pytest.mark.parametrize("check", list(StateCheck), ids=lambda c: c.value)
def test_the_gate_is_open_exactly_on_verified_current(check):
    assert TrustVerdict(b"\x00", check, "r").gate == (check is StateCheck.VERIFIED_CURRENT)


@pytest.mark.parametrize("check", list(StateCheck), ids=lambda c: c.value)
def test_parse_verdict_refuses_a_gate_its_state_does_not_give(check):
    gate = "0" if check is StateCheck.VERIFIED_CURRENT else "1"
    with pytest.raises(ParseError, match=f"^VERDICT line has gate={gate} but state={check.value}$"):
        parse_verdict_line(f"VERDICT uuid={_UUID} state={check.value} gate={gate} reason=x")


def test_parse_verdict_rejects_garbage():
    for line in (
        "nonsense line",
        "VERDICT a=1 b=2 c=3 d=4",
        f"VERDICT uuid={_UUID} state gate=1 reason=ok",  # a field without '='
        "VERDICT uuid=zz state=verified_current gate=1 reason=ok",
        f"VERDICT uuid={_UUID} state=trusted gate=1 reason=ok",
    ):
        with pytest.raises(ParseError):
            parse_verdict_line(line)


@pytest.mark.parametrize("uuid", ["00", _UUID[:-2], _UUID + "00", _UUID.upper(), f"{_UUID[:8]}\t{_UUID[8:]}"],
                         ids=["1-byte", "15-byte", "17-byte", "upper-case", "with-a-tab"])
def test_parse_verdict_accepts_only_a_rendered_uuid(uuid):
    with pytest.raises(ParseError, match="^VERDICT uuid must be 32 lower-case hex digits$"):
        parse_verdict_line(f"VERDICT uuid={uuid} state=verified_current gate=1 reason=ok")
    assert parse_verdict_line(f"VERDICT uuid={_UUID} state=verified_current gate=1 reason=ok").uuid.hex() == _UUID
