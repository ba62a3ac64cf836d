from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlt import crypto, documents
from tlt.device import device_birth
from tlt.documents import Document
from tlt.errors import ChainInvalid, ConstraintViolation, InvalidKey, MalformedDocument
from tlt.store import Store


def _mutate(doc: Document, tag: int, value: bytes) -> Document:
    """Rebuild a document with one field replaced, keeping its signatures."""
    fields = tuple((t, value if t == tag else v) for t, v in doc.fields)
    return Document(doc.doc_type, fields, doc.signatures)


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

def test_encode_decode_round_trip(stack):
    for doc in (stack.root, stack.mcrt, stack.dcrt, stack.fw_doc, stack.inst):
        encoded = documents.encode_canonical(doc)
        assert documents.decode(encoded) == doc
        assert documents.encode_canonical(documents.decode(encoded)) == encoded


_PK = bytes([crypto.SUITE_ED25519_SHA256]) + bytes(crypto.PUBLIC_KEY_LEN)


def test_encoding_deterministic():
    a = Document(documents.DOC_ROOT, ((documents.ROOT_INFO, b"info"), (documents.ROOT_PUBKEY, _PK)))
    b = Document(documents.DOC_ROOT, ((documents.ROOT_INFO, b"info"), (documents.ROOT_PUBKEY, _PK)))
    assert documents.encode_canonical(a) == documents.encode_canonical(b)


def test_swapping_field_values_changes_encoding_and_digest():
    alpha, beta = b"\x01alpha".ljust(len(_PK), b"."), b"\x01beta".ljust(len(_PK), b".")
    a = Document(documents.DOC_ROOT, ((documents.ROOT_INFO, alpha), (documents.ROOT_PUBKEY, beta)))
    b = Document(documents.DOC_ROOT, ((documents.ROOT_INFO, beta), (documents.ROOT_PUBKEY, alpha)))
    assert documents.encode_canonical(a) != documents.encode_canonical(b)
    assert documents.doc_digest(a) != documents.doc_digest(b)


@pytest.mark.parametrize("suite", [0x00, 0x02, 0xFF])
@pytest.mark.parametrize("cert", ["root", "mcrt", "dcrt"])
def test_a_key_field_of_another_suite_is_malformed(stack, cert, suite):
    """A certificate exists only with a suite-0x01 key, so embedded_public_key cannot fail on it."""
    doc = getattr(stack, cert)
    tag = documents._EMBEDDED_KEY_TAG[doc.doc_type]
    with pytest.raises(MalformedDocument, match=f"key has unsupported suite 0x{suite:02x}$"):
        _mutate(doc, tag, bytes([suite]) + doc.field(tag)[1:])


def test_encode_rejects_non_ascending_tags():
    with pytest.raises(MalformedDocument):
        Document(documents.DOC_ROOT, ((documents.ROOT_PUBKEY, _PK), (documents.ROOT_INFO, b"y")))
    with pytest.raises(MalformedDocument):
        Document(documents.DOC_ROOT, ((documents.ROOT_INFO, b"x"), (documents.ROOT_INFO, b"y")))


def test_decode_truncated_raises(stack):
    encoded = documents.encode_canonical(stack.dcrt)
    for cut in (1, 3, len(encoded) // 2, len(encoded) - 1):
        with pytest.raises(MalformedDocument):
            documents.decode(encoded[:cut])


def test_decode_rejects_unknown_doc_type():
    with pytest.raises(MalformedDocument):
        documents.decode(bytes([0x07, 0]))


def test_decode_fuzz_never_crashes(rng):
    outcomes = {"ok": 0, "malformed": 0}
    for _ in range(10_000):
        blob = rng.bytes(rng.bytes(1)[0])
        try:
            doc = documents.decode(blob)
            assert isinstance(doc, Document)
            outcomes["ok"] += 1
        except MalformedDocument:
            outcomes["malformed"] += 1
    assert outcomes["malformed"] > 0


def _field_value(doc_type: int, tag: int, length: int | None):
    if doc_type == documents.DOC_DEVICE and tag == documents.DEV_UUID:
        return st.uuids(version=4).map(lambda u: u.bytes)
    if tag == documents._EMBEDDED_KEY_TAG.get(doc_type):
        return st.binary(min_size=crypto.PUBLIC_KEY_LEN, max_size=crypto.PUBLIC_KEY_LEN).map(lambda k: b"\x01" + k)
    return st.binary(max_size=40) if length is None else st.binary(min_size=length, max_size=length)


def _layout_fields(doc_type: int):
    layout = documents._REQUIRED_FIELDS[doc_type]
    values = [_field_value(doc_type, tag, length) for tag, length in layout]
    return st.tuples(*values).map(lambda vs: tuple((tag, v) for (tag, _), v in zip(layout, vs)))


_layout_shapes = st.sampled_from(sorted(documents.DOC_TYPE_NAMES)).flatmap(
    lambda doc_type: st.tuples(st.just(doc_type), _layout_fields(doc_type))
)
_signatures = st.lists(
    st.tuples(st.binary(min_size=16, max_size=16), st.binary(min_size=64, max_size=64)), max_size=2
).map(tuple)


@settings(max_examples=200)
@given(_layout_shapes, _signatures)
def test_canonical_stability_property(shape, signatures):
    doc = Document(*shape, signatures)
    encoded = documents.encode_canonical(doc)
    assert documents.decode(encoded) == doc


# Mostly wrong shapes, sometimes exactly a layout; tags, lengths and signature
# entries may be off by one.
_any_shapes = st.one_of(
    _layout_shapes,
    st.tuples(st.integers(0, 8), st.lists(st.tuples(st.integers(0, 5), st.binary(max_size=40)), max_size=5).map(tuple)),
)
_any_signatures = st.lists(
    st.tuples(st.binary(min_size=15, max_size=17), st.binary(min_size=63, max_size=65)), max_size=2
).map(tuple)


@settings(max_examples=200)
@given(_any_shapes, _any_signatures)
def test_any_shape_is_refused_or_round_trips(shape, signatures):
    """A Document exists only in a shape that encodes and decodes back to itself."""
    try:
        doc = Document(*shape, signatures)
    except MalformedDocument:
        return
    assert documents.decode(documents.encode_canonical(doc)) == doc


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def test_root_certificate_self_verifies(stack):
    assert stack.root.doc_type == 0x01
    assert len(stack.root.signatures) == 1
    documents.verify_chain([stack.root], stack.root)


def test_root_certificate_tamper_detected(stack):
    info = stack.root.field(documents.ROOT_INFO)
    tampered = _mutate(stack.root, documents.ROOT_INFO, b"X" + info[1:])
    with pytest.raises(ChainInvalid, match="^root does not self-verify: signature 0 on root document does not verify$"):
        documents.verify_chain([tampered], tampered)


def test_root_requires_matching_keypair(rng):
    pk, _ = crypto.generate_keypair(rng)
    _, other_sk = crypto.generate_keypair(rng)
    with pytest.raises(InvalidKey):
        documents.make_root_certificate("Authority", pk, other_sk)


def test_manufacturer_chains_to_root(stack):
    documents.verify_chain([stack.mcrt, stack.root], stack.root)
    assert len(stack.mcrt.field(documents.MFR_ID)) == 16


def test_manufacturer_rejected_under_different_root(rng, stack):
    other_pk, other_sk = crypto.generate_keypair(rng)
    other_root = documents.make_root_certificate("Other Authority", other_pk, other_sk)
    with pytest.raises(ChainInvalid, match="^signer hint does not match the issuing key$"):
        documents.verify_chain([stack.mcrt, other_root], other_root)


def test_device_certificate_three_link_chain(stack):
    documents.verify_chain([stack.dcrt, stack.mcrt, stack.root], stack.root)


def test_device_certificate_uuid_round_trips(stack):
    decoded = documents.decode(documents.encode_canonical(stack.dcrt))
    assert documents.subject_uuid(decoded) == stack.dev.uuid


def test_cross_signed_device_certificate_rejected(rng, stack):
    # manufacturer B signs a certificate that claims manufacturer A's id
    b_pk, b_sk = crypto.generate_keypair(rng)
    mcrt_b = documents.make_manufacturer_certificate("Mallory Ltd", b_pk, stack.authority_sk, rng)
    dev_pk, _ = crypto.generate_keypair(rng)
    forged = Document(
        documents.DOC_DEVICE,
        (
            (documents.DEV_INFO, b"clone"),
            (documents.DEV_PUBKEY, bytes([dev_pk.suite_id]) + dev_pk.data),
            (documents.DEV_UUID, crypto.generate_uuid(rng)),
            (documents.DEV_MFR_ID, stack.mcrt.field(documents.MFR_ID)),
        ),
    )
    forged = documents.append_signature(forged, b_sk)
    with pytest.raises(ChainInvalid, match="^device document names another manufacturer$"):
        documents.verify_chain([forged, mcrt_b, stack.root], stack.root)


def test_installation_naming_another_device_rejected(rng, stack):
    # the device's own key signs an installation that claims another UUID
    forged = documents.make_installation_document(
        stack.fw_doc, crypto.generate_uuid(rng), "slot=0", stack.dev.secret_key
    )
    with pytest.raises(ChainInvalid, match="^installation document names another device$"):
        documents.verify_chain([forged, stack.dcrt, stack.mcrt, stack.root], stack.root)


def test_make_device_certificate_requires_matching_key(rng, stack):
    dev_pk, _ = crypto.generate_keypair(rng)
    _, wrong_sk = crypto.generate_keypair(rng)
    with pytest.raises(InvalidKey):
        documents.make_device_certificate(
            "dev", dev_pk, crypto.generate_uuid(rng), stack.mcrt, wrong_sk
        )


def test_manufacturer_key_needs_a_manufacturer_certificate(rng, stack):
    """A certificate of another type is refused, even with its own secret key."""
    dev_pk, _ = crypto.generate_keypair(rng)
    for cert, sk in [(stack.root, stack.authority_sk), (stack.dcrt, stack.dev.secret_key)]:
        with pytest.raises(InvalidKey):
            documents.sign_firmware(b"image", "fw", sk, cert)
        with pytest.raises(InvalidKey):
            documents.make_device_certificate("dev", dev_pk, crypto.generate_uuid(rng), cert, sk)


def test_make_device_certificate_requires_valid_uuid(rng, stack):
    dev_pk, _ = crypto.generate_keypair(rng)
    with pytest.raises(ConstraintViolation):
        documents.make_device_certificate("dev", dev_pk, b"\x00" * 16, stack.mcrt, stack.mfr_sk)


# ---------------------------------------------------------------------------
# Chain verification
# ---------------------------------------------------------------------------

def test_verify_chain_rejects_empty(stack):
    with pytest.raises(ChainInvalid, match="^empty chain$"):
        documents.verify_chain([], stack.root)


def test_verify_chain_rejects_wrong_order(stack):
    with pytest.raises(ChainInvalid, match="^chain does not end at a root certificate$"):
        documents.verify_chain([stack.root, stack.mcrt], stack.root)
    with pytest.raises(ChainInvalid, match="^device document cannot issue manufacturer documents$"):
        documents.verify_chain([stack.mcrt, stack.dcrt, stack.root], stack.root)


def test_verify_chain_rejects_unsigned_document(stack):
    unsigned = Document(stack.mcrt.doc_type, stack.mcrt.fields)
    with pytest.raises(ChainInvalid, match="^manufacturer document is unsigned$"):
        documents.verify_chain([unsigned, stack.root], stack.root)


def test_verify_chain_rejects_root_mismatch(rng, stack):
    other_pk, other_sk = crypto.generate_keypair(rng)
    other_root = documents.make_root_certificate("Shadow Authority", other_pk, other_sk)
    with pytest.raises(ChainInvalid, match="^chain root differs from the trust anchor$"):
        documents.verify_chain([stack.mcrt, stack.root], other_root)


def test_single_byte_corruption_of_each_link_rejected(stack):
    # every byte of every link, one link corrupted at a time
    chain = [stack.dcrt, stack.mcrt, stack.root]
    for link in range(3):
        encoded = bytearray(documents.encode_canonical(chain[link]))
        for pos in range(len(encoded)):
            encoded[pos] ^= 0x01
            try:
                mutated = documents.decode(bytes(encoded))
            except MalformedDocument:
                pass
            else:
                candidate = list(chain)
                candidate[link] = mutated
                anchor = candidate[2] if link == 2 else stack.root
                with pytest.raises(ChainInvalid):
                    documents.verify_chain(candidate, anchor)
            encoded[pos] ^= 0x01


def test_firmware_chain_and_digest(stack):
    documents.verify_chain([stack.fw_doc, stack.mcrt, stack.root], stack.root)
    assert stack.fw_doc.field(documents.FW_IMAGE_DIGEST) == hashlib.sha256(stack.fw_image).digest()


def test_firmware_digest_tracks_image(stack):
    tweaked = bytearray(stack.fw_image)
    tweaked[0] ^= 0xFF
    fw2 = documents.sign_firmware(bytes(tweaked), "lock-9000 v1.0", stack.mfr_sk, stack.mcrt)
    assert fw2.field(documents.FW_IMAGE_DIGEST) != stack.fw_doc.field(documents.FW_IMAGE_DIGEST)


def test_signature_coverage_invalidated_by_field_mutation(stack):
    tampered = _mutate(stack.mcrt, documents.MFR_INFO, b"Totally Legit Acme")
    with pytest.raises(ChainInvalid, match="^signature 0 on manufacturer document does not verify$"):
        documents.verify_chain([tampered, stack.root], stack.root)


def test_append_signature_covers_previous_signatures(stack, rng):
    _, extra_sk = crypto.generate_keypair(rng)
    doc = documents.append_signature(stack.inst, extra_sk)
    payload_for_second = documents.signing_payload(doc, 1)
    assert payload_for_second == documents.encode_canonical(stack.inst)
    assert documents.decode(documents.encode_canonical(doc)) == doc


# ---------------------------------------------------------------------------
# Installation verification and state digests
# ---------------------------------------------------------------------------

def _store_with_firmware(stack, fw_doc) -> Store:
    """A store holding the stack's manufacturer and device plus one firmware document."""
    store = Store(stack.root)
    for kind, doc in (("manufacturer", stack.mcrt), ("device", stack.dcrt), ("firmware", fw_doc)):
        store.register(kind, doc)
    return store


def test_verify_installation_end_to_end(stack):
    assert _store_with_firmware(stack, stack.fw_doc).register("installation", stack.inst) == 4


def test_verify_installation_uuid_mismatch(stack, rng):
    store = _store_with_firmware(stack, stack.fw_doc)
    _, other_dcrt = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "other", rng)
    store.register("device", other_dcrt)
    forged = _mutate(stack.inst, documents.INST_UUID, documents.subject_uuid(other_dcrt))
    with pytest.raises(ChainInvalid):
        store.register("installation", forged)


def test_verify_installation_wrong_firmware(stack):
    other_fw = documents.sign_firmware(b"other image", "other v9", stack.mfr_sk, stack.mcrt)
    with pytest.raises(ConstraintViolation):
        _store_with_firmware(stack, other_fw).register("installation", stack.inst)


def test_state_digest_matches_manual_concatenation(stack):
    cfg = documents.make_configuration_document(b"cfg-payload", stack.dev.uuid, 1, stack.dev.secret_key)
    expected = hashlib.sha256(
        documents.encode_canonical(stack.inst) + documents.encode_canonical(cfg)
    ).digest()
    assert documents.state_digest(stack.inst, cfg, stack.dev.uuid) == expected


def test_state_digest_uses_empty_configuration_stand_in(stack):
    empty = documents.empty_configuration_document(stack.dev.uuid)
    assert empty.signatures == ()
    assert documents.config_seq(empty) == 0
    assert empty.field(documents.CFG_DIGEST) == hashlib.sha256(b"").digest()
    expected = hashlib.sha256(
        documents.encode_canonical(stack.inst) + documents.encode_canonical(empty)
    ).digest()
    assert documents.state_digest(stack.inst, None, stack.dev.uuid) == expected


def test_configuration_seq_bounds(stack):
    with pytest.raises(ValueError):
        documents.make_configuration_document(b"x", stack.dev.uuid, 0, stack.dev.secret_key)
    doc = documents.make_configuration_document(b"x", stack.dev.uuid, 2**64 - 1, stack.dev.secret_key)
    assert documents.config_seq(doc) == 2**64 - 1


def test_document_file_round_trip(tmp_path, stack):
    path = tmp_path / "mcrt.tltdoc"
    documents.save_document(stack.mcrt, path)
    assert path.read_bytes() == documents.encode_canonical(stack.mcrt)
    assert documents.load_document(path) == stack.mcrt
