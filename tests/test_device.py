from __future__ import annotations

import hashlib

import pytest

from tlt import crypto, documents, transport
from tlt.device import BootStatus, device_birth, encode_device, load_device
from tlt.documents import Document
from tlt.errors import (
    ChainInvalid,
    ImageMismatch,
    InvalidKey,
    MalformedDocument,
    NotOperational,
    ParseError,
    StaleSequence,
    TltError,
)

from conftest import write_device


# ---------------------------------------------------------------------------
# Birth
# ---------------------------------------------------------------------------

def test_birth_certificate_chains_to_root(stack):
    documents.verify_chain([stack.dcrt, stack.mcrt, stack.root], stack.root)


def test_birth_cert_digest_definition(stack):
    assert stack.dev.cert_digest == hashlib.sha256(documents.encode_canonical(stack.dcrt)).digest()


def test_birth_starts_unprogrammed(rng, stack):
    dev, _ = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "fresh", rng)
    assert dev.boot_status == BootStatus.UNPROGRAMMED
    assert dev.installation is None
    assert dev.cfg is None


def test_births_yield_distinct_identities(stack, rng):
    uuids, keys = set(), set()
    for _ in range(50):
        dev, _ = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "unit", rng)
        uuids.add(dev.uuid)
        keys.add(dev.public_key.data)
    assert len(uuids) == 50
    assert len(keys) == 50


def test_birth_rejects_unchained_manufacturer(rng, stack):
    rogue_pk, rogue_sk = crypto.generate_keypair(rng)
    rogue_root = documents.make_root_certificate("Rogue", rogue_pk, rogue_sk)
    rogue_mpk, rogue_msk = crypto.generate_keypair(rng)
    rogue_mcrt = documents.make_manufacturer_certificate("RogueWorks", rogue_mpk, rogue_sk, rng)
    with pytest.raises(ChainInvalid):
        device_birth(rogue_mcrt, rogue_msk, stack.root, "dev", rng)


def test_birth_rejects_mismatched_key(rng, stack):
    _, wrong_sk = crypto.generate_keypair(rng)
    with pytest.raises(InvalidKey):
        device_birth(stack.mcrt, wrong_sk, stack.root, "dev", rng)


# ---------------------------------------------------------------------------
# Digest memory: install_firmware remembers the digest of each verified document
# ---------------------------------------------------------------------------

def test_remember_digest_stores_verified_document(stack):
    image2 = b"second image"
    fw2 = documents.sign_firmware(image2, "v2", stack.mfr_sk, stack.mcrt)
    stack.dev.install_firmware(fw2, image2, [stack.mcrt], "slot=1")
    assert documents.doc_digest(fw2) in stack.dev.verified_digests


def test_remember_digest_rejects_corrupted_document(stack):
    corrupted = Document(stack.fw_doc.doc_type, (b"evil", *stack.fw_doc.values[1:]), stack.fw_doc.signature)
    before = set(stack.dev.verified_digests)
    with pytest.raises(ChainInvalid):
        stack.dev.install_firmware(corrupted, stack.fw_image, [stack.mcrt], "slot=1")
    assert stack.dev.verified_digests == before


def test_remember_digest_idempotent(stack):
    before = set(stack.dev.verified_digests)
    stack.dev.install_firmware(stack.fw_doc, stack.fw_image, [stack.mcrt], "slot=0")
    stack.dev.install_firmware(stack.fw_doc, stack.fw_image, [stack.mcrt], "slot=0")
    assert stack.dev.verified_digests == before | {documents.doc_digest(stack.fw_doc)}


def test_install_rejects_chain_that_ends_in_a_root(stack):
    """The device appends its own trusted root, so a caller's root is one root too many."""
    before = (stack.dev.installation, set(stack.dev.verified_digests))
    image2 = b"second image"
    fw2 = documents.sign_firmware(image2, "v2", stack.mfr_sk, stack.mcrt)
    with pytest.raises(ChainInvalid):
        stack.dev.install_firmware(fw2, image2, [stack.mcrt, stack.root], "slot=1")
    assert (stack.dev.installation, stack.dev.verified_digests) == before


# ---------------------------------------------------------------------------
# Firmware installation
# ---------------------------------------------------------------------------

def test_install_happy_path(stack):
    inst = stack.dev.installation
    documents.verify_chain([inst, stack.dcrt, stack.mcrt, stack.root], stack.root)
    assert inst.field(documents.INST_FW_DOC_DIGEST) == documents.doc_digest(stack.fw_doc)
    assert stack.dev.boot_status == BootStatus.OPERATIONAL
    assert documents.doc_digest(stack.fw_doc) in stack.dev.verified_digests


def test_install_rejects_impostor_manufacturer(rng, stack):
    rogue_pk, rogue_sk = crypto.generate_keypair(rng)
    rogue_root = documents.make_root_certificate("Rogue", rogue_pk, rogue_sk)
    rogue_mpk, rogue_msk = crypto.generate_keypair(rng)
    rogue_mcrt = documents.make_manufacturer_certificate("RogueWorks", rogue_mpk, rogue_sk, rng)
    image = b"trojan"
    rogue_fw = documents.sign_firmware(image, "trojan v1", rogue_msk, rogue_mcrt)

    dev, _ = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "victim", rng)
    with pytest.raises(ChainInvalid):
        dev.install_firmware(rogue_fw, image, [rogue_mcrt], "slot=0")
    assert dev.installation is None
    assert dev.boot_status == BootStatus.UNPROGRAMMED


def test_install_rejects_tampered_image(rng, stack):
    dev, _ = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "victim", rng)
    tampered = bytearray(stack.fw_image)
    tampered[10] ^= 0x01
    with pytest.raises(ImageMismatch):
        dev.install_firmware(stack.fw_doc, bytes(tampered), [stack.mcrt], "slot=0")
    assert dev.installation is None


def test_no_unverified_installs(rng, stack):
    dev, _ = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "victim", rng)
    encoded = documents.encode_canonical(stack.fw_doc)
    for i in range(100):
        corrupted = bytearray(encoded)
        corrupted[i % len(encoded)] ^= 1 << (i % 8) or 1
        try:
            doc = documents.decode(bytes(corrupted))
        except MalformedDocument:
            continue
        with pytest.raises((ChainInvalid, ImageMismatch)):
            dev.install_firmware(doc, stack.fw_image, [stack.mcrt], "slot=0")
        assert dev.installation is None
        assert dev.verified_digests == set()


def test_install_rejects_a_chained_document_that_is_not_firmware(stack):
    """A device certificate chains to the root as well as firmware does, but names no image to install."""
    before = (stack.dev.installation, set(stack.dev.verified_digests))
    with pytest.raises(ChainInvalid, match="not a firmware document"):
        stack.dev.install_firmware(stack.dcrt, stack.fw_image, [stack.mcrt], "slot=1")
    assert (stack.dev.installation, stack.dev.verified_digests) == before


def test_reinstall_replaces_slot(stack):
    image2 = b"image two"
    fw2 = documents.sign_firmware(image2, "v2", stack.mfr_sk, stack.mcrt)
    first_digest = stack.dev.compute_state_digest()
    inst2 = stack.dev.install_firmware(fw2, image2, [stack.mcrt], "slot=1")
    assert stack.dev.installation == inst2
    assert stack.dev.compute_state_digest() != first_digest


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_first_configuration_accepted(stack):
    cfg = stack.dev.apply_configuration(b'{"a":1}', 1)
    assert stack.dev.cfg == cfg
    assert documents.config_seq(cfg) == 1


def test_configuration_replay_rejected(stack):
    stack.dev.apply_configuration(b"one", 1)
    stack.dev.apply_configuration(b"two", 2)
    with pytest.raises(StaleSequence):
        stack.dev.apply_configuration(b"one", 1)
    with pytest.raises(StaleSequence):
        stack.dev.apply_configuration(b"two again", 2)
    assert stack.dev.config_seq() == 2


def test_configuration_changes_state_digest(stack):
    before = stack.dev.compute_state_digest()
    stack.dev.apply_configuration(b"tuned", 1)
    assert stack.dev.compute_state_digest() != before


def test_configuration_requires_operational(rng, stack):
    dev, _ = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "bare", rng)
    with pytest.raises(NotOperational):
        dev.apply_configuration(b"x", 1)


# ---------------------------------------------------------------------------
# State digest
# ---------------------------------------------------------------------------

def test_state_digest_deterministic(stack):
    assert stack.dev.compute_state_digest() == stack.dev.compute_state_digest()
    assert len(stack.dev.compute_state_digest()) == 32


def test_state_digest_differs_with_configuration(stack):
    without = stack.dev.compute_state_digest()
    stack.dev.apply_configuration(b"cfg", 1)
    assert stack.dev.compute_state_digest() != without


def test_state_digest_requires_operational(rng, stack):
    dev, _ = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "bare", rng)
    with pytest.raises(NotOperational):
        dev.compute_state_digest()


def test_state_digest_matches_independent_recomputation(stack):
    inst = stack.dev.installation
    empty_cfg = documents.empty_configuration_document(stack.dev.uuid)
    expected = hashlib.sha256(
        documents.encode_canonical(inst) + documents.encode_canonical(empty_cfg)
    ).digest()
    assert stack.dev.compute_state_digest() == expected


# ---------------------------------------------------------------------------
# Advertisement and challenge
# ---------------------------------------------------------------------------

def test_advertise_round_trip(stack):
    frame = stack.dev.advertise()
    assert len(frame) == 19
    assert transport.parse_advertisement(frame) == stack.dev.uuid


def test_two_devices_advertise_distinct_uuids(rng, stack):
    dev2, _ = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "second", rng)
    assert transport.parse_advertisement(stack.dev.advertise()) != transport.parse_advertisement(
        dev2.advertise()
    )


def test_challenge_response_verifies_and_echoes(stack, rng):
    ch = crypto.new_nonce(rng)
    resp = stack.dev.handle_challenge(ch)
    assert len(resp) == 128 <= 255
    assert crypto.verify(stack.dev.public_key, resp[:64], resp[64:])
    assert resp[32:48] == ch
    assert resp[:32] == stack.dev.compute_state_digest()


def test_challenge_requires_operational(rng, stack):
    dev, _ = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "bare", rng)
    with pytest.raises(NotOperational):
        dev.handle_challenge(crypto.new_nonce(rng))


def test_challenge_rejects_bad_nonce_length(stack):
    with pytest.raises(ParseError):
        stack.dev.handle_challenge(b"\x00" * 15)


def test_challenge_freshness(stack, rng):
    ch = crypto.new_nonce(rng)
    nonces, signatures = set(), set()
    for _ in range(1000):
        resp = stack.dev.handle_challenge(ch)
        nonces.add(resp[48:64])
        signatures.add(resp[64:])
    assert len(nonces) == 1000
    assert len(signatures) == 1000


def test_state_sensitivity_matrix(stack):
    seen = set()
    image2 = b"alternate image"
    fw2 = documents.sign_firmware(image2, "v2", stack.mfr_sk, stack.mcrt)
    seen.add(stack.dev.compute_state_digest())
    stack.dev.apply_configuration(b"cfg-a", 1)
    seen.add(stack.dev.compute_state_digest())
    stack.dev.apply_configuration(b"cfg-b", 2)
    seen.add(stack.dev.compute_state_digest())
    stack.dev.install_firmware(fw2, image2, [stack.mcrt], "slot=0")
    seen.add(stack.dev.compute_state_digest())
    assert len(seen) == 4


# ---------------------------------------------------------------------------
# Boot integrity
# ---------------------------------------------------------------------------

def test_simulate_boot_passes_for_honest_device(stack):
    assert stack.dev.simulate_boot() == BootStatus.OPERATIONAL


def test_simulate_boot_detects_foreign_installation(stack, rng):
    _, foreign_sk = crypto.generate_keypair(rng)
    forged = documents.make_installation_document(stack.fw_doc, stack.dev.uuid, "slot=0", foreign_sk)
    stack.dev.installation = forged
    assert stack.dev.simulate_boot() == BootStatus.INTEGRITY_FAILED
    with pytest.raises(NotOperational):
        stack.dev.handle_challenge(b"\x00" * 16)


def test_simulate_boot_detects_an_installation_in_the_configuration_slot(tmp_path, stack):
    """The device's own signed installation, about itself, is still not a configuration."""
    stack.dev.cfg = stack.dev.installation
    assert stack.dev.simulate_boot() == BootStatus.INTEGRITY_FAILED
    assert _save_and_load(stack.dev, tmp_path).boot_status == BootStatus.INTEGRITY_FAILED


def test_simulate_boot_detects_firmware_the_device_never_verified(tmp_path, stack):
    """Secure boot: the installed firmware's digest must be one the device verified itself."""
    stack.dev.verified_digests = {bytes(crypto.DIGEST_LEN)}
    assert stack.dev.simulate_boot() == BootStatus.INTEGRITY_FAILED
    assert _save_and_load(stack.dev, tmp_path).boot_status == BootStatus.INTEGRITY_FAILED


def test_an_install_keeps_a_device_with_a_foreign_configuration_failed(tmp_path, stack, rng):
    """Installing trusted firmware does not vouch for a configuration slot signed by another key."""
    _, foreign_sk = crypto.generate_keypair(rng)
    stack.dev.cfg = documents.make_configuration_document(b"forged", stack.dev.uuid, 1, foreign_sk)
    assert stack.dev.simulate_boot() == BootStatus.INTEGRITY_FAILED
    stack.dev.install_firmware(stack.fw_doc, stack.fw_image, [stack.mcrt], "slot=1")
    assert stack.dev.boot_status == BootStatus.INTEGRITY_FAILED
    with pytest.raises(NotOperational):
        stack.dev.handle_challenge(crypto.new_nonce(rng))
    assert _save_and_load(stack.dev, tmp_path).boot_status == BootStatus.INTEGRITY_FAILED


def test_a_good_install_repairs_a_failed_installation_slot(stack, rng):
    """When the installation slot is the only fault, an install of trusted firmware replaces it."""
    stack.dev.apply_configuration(b"tuned", 1)
    _, foreign_sk = crypto.generate_keypair(rng)
    stack.dev.installation = documents.make_installation_document(stack.fw_doc, stack.dev.uuid, "slot=0", foreign_sk)
    assert stack.dev.simulate_boot() == BootStatus.INTEGRITY_FAILED
    stack.dev.install_firmware(stack.fw_doc, stack.fw_image, [stack.mcrt], "slot=1")
    assert stack.dev.boot_status == BootStatus.OPERATIONAL
    assert stack.dev.simulate_boot() == BootStatus.OPERATIONAL


def test_simulate_boot_unprogrammed(rng, stack):
    dev, _ = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "bare", rng)
    assert dev.simulate_boot() == BootStatus.UNPROGRAMMED


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _save_and_load(dev, tmp_path):
    write_device(dev, tmp_path / "dev.tltdev")
    return load_device(tmp_path / "dev.tltdev")


def test_device_file_round_trip(tmp_path, stack, rng):
    born, _ = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "fresh", rng)
    stack.dev.apply_configuration(b"saved-cfg", 1)
    failed, _ = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "failed", rng)
    failed.install_firmware(stack.fw_doc, stack.fw_image, [stack.mcrt], "slot=0")
    _, foreign_sk = crypto.generate_keypair(rng)
    failed.installation = documents.make_installation_document(stack.fw_doc, failed.uuid, "slot=0", foreign_sk)
    failed.simulate_boot()

    cases = [
        (born, BootStatus.UNPROGRAMMED),
        (stack.dev, BootStatus.OPERATIONAL),
        (failed, BootStatus.INTEGRITY_FAILED),
    ]
    for dev, status in cases:
        loaded = _save_and_load(dev, tmp_path)
        assert dev.boot_status == loaded.boot_status == status
        assert loaded == dev


def test_device_file_fails_closed_under_every_flip_and_truncation(tmp_path, stack):
    """Each corrupt file raises, boots to a non-operational status, or attests the honest state."""
    dev = stack.dev
    dev.apply_configuration(b"cfg", 1)
    honest = (dev.uuid, dev.public_key, dev.trusted_root, dev.compute_state_digest())
    assert _save_and_load(dev, tmp_path).boot_status == BootStatus.OPERATIONAL
    path = tmp_path / "dev.tltdev"
    blob = path.read_bytes()
    flips = (
        (f"bit {bit} of byte {i} flipped", blob[:i] + bytes([blob[i] ^ 1 << bit]) + blob[i + 1 :])
        for i in range(len(blob))
        for bit in range(8)
    )
    truncations = ((f"cut to {n} bytes", blob[:n]) for n in range(len(blob)))
    for case, corrupt in (*flips, *truncations):
        path.write_bytes(corrupt)
        try:
            loaded = load_device(path)
        except TltError:
            continue
        if loaded.boot_status == BootStatus.OPERATIONAL:
            attested = (loaded.uuid, loaded.public_key, loaded.trusted_root, loaded.compute_state_digest())
            assert attested == honest, case


@pytest.mark.parametrize(
    "case", ["installation flag 2", "configuration flag 0xff", "duplicated digest", "digests out of order"]
)
def test_device_file_has_one_encoding_per_state(tmp_path, stack, case):
    """Presence flags are 0 or 1 and verified digests strictly ascending; any other file is malformed."""
    dev = stack.dev
    if case == "digests out of order":
        image2 = b"second image"
        fw2 = documents.sign_firmware(image2, "v2", stack.mfr_sk, stack.mcrt)
        dev.install_firmware(fw2, image2, [stack.mcrt], "slot=1")
    dev.apply_configuration(b"cfg", 1)
    assert _save_and_load(dev, tmp_path).boot_status == BootStatus.OPERATIONAL
    path = tmp_path / "dev.tltdev"
    blob = path.read_bytes()
    digests = sorted(dev.verified_digests)
    first = blob.index(digests[0])
    assert blob[first - 4 : first] == len(digests).to_bytes(4, "big")
    inst_flag = first + 32 * len(digests)
    cfg_flag = inst_flag + 5 + len(documents.encode_canonical(dev.installation))
    assert blob[inst_flag] == blob[cfg_flag] == 1
    if case == "installation flag 2":
        corrupt = blob[:inst_flag] + b"\x02" + blob[inst_flag + 1 :]
    elif case == "configuration flag 0xff":
        corrupt = blob[:cfg_flag] + b"\xff" + blob[cfg_flag + 1 :]
    elif case == "duplicated digest":
        corrupt = blob[: first - 4] + (2).to_bytes(4, "big") + digests[0] * 2 + blob[inst_flag:]
    else:
        corrupt = blob[:first] + digests[1] + digests[0] + blob[inst_flag:]
    path.write_bytes(corrupt)
    with pytest.raises(MalformedDocument):
        load_device(path)


def test_device_file_excludes_secret_key(tmp_path, stack):
    assert stack.dev.secret_key.data not in encode_device(stack.dev)


def test_load_device_rejects_mismatched_key(tmp_path, stack, rng):
    path = tmp_path / "dev.tltdev"
    path.write_bytes(encode_device(stack.dev))
    _, other_sk = crypto.generate_keypair(rng)
    (tmp_path / "dev.tltkey").write_bytes(crypto.key_bytes(other_sk))
    with pytest.raises(InvalidKey):
        load_device(path)


@pytest.mark.parametrize("at, byte, message", [
    (0, ord("X"), "not a device state file"),
    (4, 3, "unsupported device state version"),
], ids=["magic", "version-3"])
def test_load_device_refuses_another_magic_or_version(tmp_path, stack, at, byte, message):
    path = tmp_path / "dev.tltdev"
    write_device(stack.dev, path)
    blob = bytearray(path.read_bytes())
    blob[at] = byte
    path.write_bytes(bytes(blob))
    with pytest.raises(MalformedDocument, match=f"^{message}$"):
        load_device(path)


def test_load_device_rejects_truncation(tmp_path, stack):
    path = tmp_path / "dev.tltdev"
    write_device(stack.dev, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 3])
    with pytest.raises(MalformedDocument):
        load_device(path)
