"""Acceptance suite: one test per release criterion, one line printed each.

Run with `pytest -s tests/test_acceptance.py` to see the criterion lines.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from tlt import crypto, documents, transport
from tlt.cli import main as cli_main
from tlt.device import device_birth
from tlt.errors import ChainInvalid, CorruptLog, MalformedDocument
from tlt.store import Store, load_store
from tlt.threats import SCENARIO_IDS, THREAT_CONTROL_MAP, run_all
from tlt.verifier import StateCheck, Verifier, scan

from conftest import build_stack


def _report(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


def test_c1_end_to_end_happy_path():
    """Full provisioning and verification flow completes, gate open, < 5 s."""
    started = time.monotonic()

    rng = crypto.SeededRandomSource(2024)
    authority_pk, authority_sk = crypto.generate_keypair(rng)
    root = documents.make_root_certificate("Acceptance Authority", authority_pk, authority_sk)
    store = Store(root)

    mfr_pk, mfr_sk = crypto.generate_keypair(rng)
    mcrt = documents.make_manufacturer_certificate("Acme Devices", mfr_pk, authority_sk, rng)
    store.register("manufacturer", mcrt)

    fw_image = crypto.random_bytes(1024, rng)
    fw_doc = documents.sign_firmware(fw_image, "lock v1.0", mfr_sk, mcrt)
    store.register("firmware", fw_doc)

    dev, dcrt = device_birth(mcrt, mfr_sk, root, "smart lock", rng)
    store.register("device", dcrt)

    inst = dev.install_firmware(fw_doc, fw_image, [mcrt], "slot=0")
    store.register("installation", inst)
    cfg = dev.apply_configuration(b'{"mode":"home"}', 1)
    store.register("configuration", cfg)

    user = Verifier(rng)
    uuid = scan(dev.advertise())
    view = store.lookup_device(uuid)
    session, challenge_frames = user.issue_challenge(uuid)
    assert len(challenge_frames) == 1
    _, nonce = transport.reassemble([transport.parse_data_frame(challenge_frames[0])])
    response = dev.handle_challenge(nonce)
    verdict = user.verify_response(session, response, view, store)

    elapsed = time.monotonic() - started
    assert verdict.state_check == StateCheck.VERIFIED_CURRENT
    assert verdict.gate
    assert elapsed < 5.0
    _report("C1", f"happy path verified_current gate=1 in {elapsed:.3f}s (< 5s)")


def test_c2_transport_size_bounds():
    """Advertising 19 <= 31 B; challenge/response single <= 255 B frames
    (response payload exactly 128 B); 1,650 B payload round-trips."""
    stack = build_stack(seed=31)

    adv = stack.dev.advertise()
    assert len(adv) == 19
    assert len(adv) <= transport.ADV_MAX

    user = Verifier(stack.rng)
    session, challenge_frames = user.issue_challenge(stack.dev.uuid)
    assert len(challenge_frames) == 1
    assert len(challenge_frames[0]) <= transport.DATA_MAX

    response = stack.dev.handle_challenge(session.challenge)
    assert len(response) == 128
    response_frames = transport.fragment(transport.MSG_RESPONSE, response)
    assert len(response_frames) == 1
    assert len(transport.encode_data_frame(response_frames[0])) <= transport.DATA_MAX

    big = stack.rng.bytes(1650)
    frames = transport.fragment(transport.MSG_FRAGMENT, big)
    wire = [transport.encode_data_frame(f) for f in frames]
    assert all(len(w) <= transport.DATA_MAX for w in wire)
    assert transport.reassemble([transport.parse_data_frame(w) for w in wire]) == (
        transport.MSG_FRAGMENT,
        big,
    )

    _report(
        "C2",
        f"adv={len(adv)}B<=31, challenge={len(challenge_frames[0])}B<=255, "
        f"response=128B single frame, 1650B payload round-trips in {len(frames)} frames",
    )


def test_c3_crypto_sizing():
    """Public keys 32 B, signatures 64 B, digests 32 B."""
    rng = crypto.SeededRandomSource(33)
    pk, sk = crypto.generate_keypair(rng)
    sig = crypto.sign(sk, b"sizing probe")
    digest = crypto.digest(b"sizing probe")
    assert len(pk.data) == 32
    assert len(sig) == 64
    assert len(digest) == 32
    _report("C3", "public key 32 B, signature 64 B, digest 32 B")


def test_c4_threat_suite_deterministic(capsys):
    """TA01..TA06 plus honest control pass; deterministic under --seed;
    fired controls stay within the documented threat->control mapping."""
    first = run_all(seed=404)
    second = run_all(seed=404)
    assert [(r.render(), tuple(r.notes)) for r in first] == [
        (r.render(), tuple(r.notes)) for r in second
    ]
    assert [r.scenario_id for r in first] == list(SCENARIO_IDS)
    assert all(r.passed for r in first), [r.render() for r in first if not r.passed]
    for report in first:
        if report.scenario_id != "CTRL":
            assert set(report.controls_fired) <= THREAT_CONTROL_MAP[report.scenario_id]

    assert cli_main(["--seed", "404", "threats", "run"]) == 0
    out_a = capsys.readouterr().out
    assert cli_main(["--seed", "404", "threats", "run"]) == 0
    out_b = capsys.readouterr().out
    assert out_a == out_b
    assert out_a.count("PASS") == 7
    _report("C4", "7/7 scenarios pass via `threats run`, output identical across seeded reruns")


def test_c5_exhaustive_leaf_corruption():
    """Every single-bit flip of the leaf of a 3-link chain is rejected."""
    stack = build_stack(seed=55)
    chain_tail = [stack.mcrt, stack.root]
    leaf_bytes = documents.encode_canonical(stack.dcrt)
    total_bits = len(leaf_bytes) * 8

    started = time.monotonic()
    rejected = 0
    for bit in range(total_bits):
        mutated = bytearray(leaf_bytes)
        mutated[bit // 8] ^= 1 << (bit % 8)
        try:
            documents.verify_chain([documents.decode(bytes(mutated)), *chain_tail], stack.root)
        except (MalformedDocument, ChainInvalid):
            rejected += 1
    elapsed = time.monotonic() - started

    assert rejected == total_bits
    assert elapsed < 60.0
    # control: the untouched leaf still verifies
    documents.verify_chain([stack.dcrt, *chain_tail], stack.root)
    _report("C5", f"{rejected}/{total_bits} bit flips rejected in {elapsed:.2f}s (< 60s)")


def test_c6_replay_resistance():
    """A captured response never satisfies a new challenge session."""
    stack = build_stack(seed=66)
    user = Verifier(stack.rng)
    view = stack.store.lookup_device(stack.dev.uuid)

    first_session, _ = user.issue_challenge(stack.dev.uuid)
    captured = stack.dev.handle_challenge(first_session.challenge)
    assert user.verify_response(first_session, captured, view, stack.store).gate

    replays_detected = 0
    for _ in range(100):
        session, _ = user.issue_challenge(stack.dev.uuid)
        verdict = user.verify_response(session, captured, view, stack.store)
        if verdict.state_check == StateCheck.REPLAY_DETECTED and not verdict.gate:
            replays_detected += 1
    assert replays_detected == 100
    _report("C6", "100/100 replayed responses rejected as replay_detected")


def test_c7_store_durability(tmp_path):
    """Round trip >= 10 records; any single-byte corruption -> CorruptLog
    naming the offending record."""
    stack = build_stack(seed=77)
    store = stack.store
    dev2, dcrt2 = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "cam", stack.rng)
    store.register("device", dcrt2)
    image2 = stack.rng.bytes(64)
    fw2 = documents.sign_firmware(image2, "cam v1", stack.mfr_sk, stack.mcrt)
    store.register("firmware", fw2)
    inst2 = dev2.install_firmware(fw2, image2, [stack.mcrt], "slot=0")
    store.register("installation", inst2)
    store.register("configuration", stack.dev.apply_configuration(b"cfg-a", 1))
    store.register("configuration", dev2.apply_configuration(b"cfg-b", 1))
    assert len(store.records) == 10

    path = tmp_path / "durability.tltlog"
    store.persist(path)
    reloaded = load_store(path)
    assert reloaded.records == store.records
    for dev in (stack.dev, dev2):
        assert reloaded.lookup_device(dev.uuid) == store.lookup_device(dev.uuid)
        digest = dev.compute_state_digest()
        assert reloaded.lookup_state(dev.uuid, digest) == store.lookup_state(dev.uuid, digest)

    blob = path.read_bytes()
    checked = 0
    for pos in range(len(blob)):
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0x01
        expected_record = blob[:pos].count(b"\n")
        with pytest.raises(CorruptLog) as exc_info:
            load_store_bytes(tmp_path, bytes(corrupted))
        assert exc_info.value.seq == expected_record, f"byte {pos}"
        checked += 1
    # case-flip probes: lowercase hex is part of the format
    letters = [i for i, b in enumerate(blob) if b in b"abcdef"]
    for pos in letters[:: max(1, len(letters) // 50)]:
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0x20
        with pytest.raises(CorruptLog):
            load_store_bytes(tmp_path, bytes(corrupted))
    _report("C7", f"10-record round trip exact; {checked} single-byte corruptions all caught")


def load_store_bytes(tmp_path, blob: bytes):
    scratch = tmp_path / "scratch.tltlog"
    scratch.write_bytes(blob)
    return load_store(scratch)


def test_c8_state_digest_agreement():
    """Device-computed and store-computed state digests agree byte-for-byte
    across 100 randomized firmware/configuration combinations."""
    stack = build_stack(seed=88)
    rng = stack.rng
    agreements = 0
    for i in range(100):
        dev, dcrt = device_birth(stack.mcrt, stack.mfr_sk, stack.root, f"unit-{i}", rng)
        stack.store.register("device", dcrt)
        image = rng.bytes(16 + (i % 64))
        fw = documents.sign_firmware(image, f"fw-{i}", stack.mfr_sk, stack.mcrt)
        stack.store.register("firmware", fw)
        inst = dev.install_firmware(fw, image, [stack.mcrt], f"slot={i % 4}")
        stack.store.register("installation", inst)
        cfg = None
        if i % 3 != 0:
            cfg = dev.apply_configuration(rng.bytes(1 + (i % 40)), 1 + (i % 5))
            stack.store.register("configuration", cfg)

        device_digest = dev.compute_state_digest()
        store_digest = stack.store.current_state_digest(dev.uuid)
        # independent recomputation straight from hashlib
        cfg_doc = cfg if cfg is not None else documents.empty_configuration_document(dev.uuid)
        oracle = hashlib.sha256(
            documents.encode_canonical(inst) + documents.encode_canonical(cfg_doc)
        ).digest()
        assert device_digest == store_digest == oracle
        assert stack.store.lookup_state(dev.uuid, device_digest).current
        agreements += 1
    assert agreements == 100
    _report("C8", "100/100 randomized firmware/config states agree device vs store vs oracle")
