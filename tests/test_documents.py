from __future__ import annotations

import hashlib
import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlt import crypto, documents
from tlt.device import device_birth
from tlt.documents import Document
from tlt.errors import ChainInvalid, ConstraintViolation, FileUnwritable, InvalidKey, MalformedDocument
from tlt.store import Store


def _mutate(doc: Document, tag: int, value: bytes) -> Document:
    """Rebuild a document with one field replaced, keeping its signature."""
    values = list(doc.values)
    values[tag - 1] = value
    return Document(doc.doc_type, tuple(values), doc.signature)


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
    a = Document(documents.DOC_ROOT, (b"info", _PK))
    b = Document(documents.DOC_ROOT, (b"info", _PK))
    assert documents.encode_canonical(a) == documents.encode_canonical(b)


def test_swapping_field_values_changes_encoding_and_digest():
    alpha, beta = b"\x01alpha".ljust(len(_PK), b"."), b"\x01beta".ljust(len(_PK), b".")
    a = Document(documents.DOC_ROOT, (alpha, beta))
    b = Document(documents.DOC_ROOT, (beta, alpha))
    assert documents.encode_canonical(a) != documents.encode_canonical(b)
    assert documents.doc_digest(a) != documents.doc_digest(b)


@pytest.mark.parametrize("suite", [0x00, 0x02, 0xFF])
@pytest.mark.parametrize("cert", ["root", "mcrt", "dcrt"])
def test_a_key_field_of_another_suite_is_malformed(stack, cert, suite):
    """A certificate exists only with a suite-0x01 key, so embedded_public_key cannot fail on it."""
    doc = getattr(stack, cert)
    tag = documents._TYPES[doc.doc_type].key_tag
    with pytest.raises(MalformedDocument, match=f"key has unsupported suite 0x{suite:02x}$"):
        _mutate(doc, tag, bytes([suite]) + doc.field(tag)[1:])


def test_encode_rejects_non_ascending_tags():
    """Tags exist only on the wire, so decode refuses any field whose tag is not its position."""

    def root(*tagged: tuple[int, bytes]) -> bytes:
        fields = b"".join(bytes([t]) + documents.prefixed(v) for t, v in tagged)
        return bytes([documents.DOC_ROOT, len(tagged)]) + fields

    documents.decode(root((1, b"x"), (2, _PK)))
    for tagged in ([(2, _PK), (1, b"x")], [(1, b"x"), (1, _PK)], [(0, b"x"), (2, _PK)], [(1, b"x"), (3, _PK)]):
        with pytest.raises(MalformedDocument, match="^root document missing field 0x0[12]$"):
            documents.decode(root(*tagged))


def _wire(doc_type: int, values) -> bytes:
    """The unsigned wire bytes of values, encoded by hand: for values that Document refuses to hold."""
    fields = b"".join(bytes([tag]) + documents.prefixed(value) for tag, value in enumerate(values, 1))
    return bytes([doc_type, len(values)]) + fields


def test_a_document_with_an_extra_value_is_malformed(stack):
    """The field count is checked: a trailing value would otherwise encode and decode to itself."""
    extra = (*stack.root.values, b"extra")
    with pytest.raises(MalformedDocument, match="^root document has wrong field count$"):
        Document(documents.DOC_ROOT, extra)
    with pytest.raises(MalformedDocument, match="^root document has wrong field count$"):
        documents.decode(_wire(documents.DOC_ROOT, extra))


def test_a_signed_device_certificate_with_a_version_1_uuid_is_malformed(stack):
    """decode checks the UUID version itself; make_device_certificate refuses such a UUID before signing."""
    uuid = bytearray(stack.dev.uuid)
    uuid[6] = (uuid[6] & 0x0F) | 0x10  # version 1, variant bits kept
    values = list(stack.dcrt.values)
    values[documents.DEV_UUID - 1] = bytes(uuid)
    body = _wire(documents.DOC_DEVICE, values)
    signed = body + crypto.key_id(crypto.public_key_of(stack.mfr_sk)) + crypto.sign(stack.mfr_sk, body)
    with pytest.raises(MalformedDocument, match="^device uuid is not a valid random UUID$"):
        documents.decode(signed)


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
        except MalformedDocument:
            outcomes["malformed"] += 1
        else:
            assert documents.encode_canonical(doc) == blob
            outcomes["ok"] += 1
    assert outcomes["malformed"] > 0


def test_every_flip_and_cut_is_refused_or_decodes_to_itself(stack):
    """decode accepts only canonical bytes (C5 relies on it): each single-bit flip and each
    truncation of an honest document of each type is malformed or encodes back to itself."""
    for doc in _docs_by_type(stack).values():
        encoded = documents.encode_canonical(doc)
        flips = (
            encoded[:i] + bytes([encoded[i] ^ 1 << bit]) + encoded[i + 1 :]
            for i in range(len(encoded))
            for bit in range(8)
        )
        for blob in itertools.chain(flips, (encoded[:n] for n in range(len(encoded)))):
            try:
                decoded = documents.decode(blob)
            except MalformedDocument:
                continue
            assert documents.encode_canonical(decoded) == blob


def _field_value(doc_type: int, tag: int, length: int | None):
    if doc_type == documents.DOC_DEVICE and tag == documents.DEV_UUID:
        return st.uuids(version=4).map(lambda u: u.bytes)
    if tag == documents._TYPES[doc_type].key_tag:
        return st.binary(min_size=crypto.PUBLIC_KEY_LEN, max_size=crypto.PUBLIC_KEY_LEN).map(lambda k: b"\x01" + k)
    return st.binary(max_size=40) if length is None else st.binary(min_size=length, max_size=length)


def _layout_fields(doc_type: int):
    lengths = documents._TYPES[doc_type].lengths
    return st.tuples(*(_field_value(doc_type, tag, length) for tag, length in enumerate(lengths, 1)))


_layout_shapes = st.sampled_from(sorted(documents.DOC_TYPE_NAMES)).flatmap(
    lambda doc_type: st.tuples(st.just(doc_type), _layout_fields(doc_type))
)
_signature = st.one_of(st.just(b""), st.binary(min_size=documents.SIG_ENTRY_LEN, max_size=documents.SIG_ENTRY_LEN))


@settings(max_examples=200)
@given(_layout_shapes, _signature)
def test_canonical_stability_property(shape, signature):
    doc = Document(*shape, signature)
    encoded = documents.encode_canonical(doc)
    assert documents.decode(encoded) == doc


# Mostly wrong shapes, sometimes exactly a layout; the type, the count and the
# lengths may be off, and the signature entry may be absent, one byte short or
# long, or two. Wrong tags exist only on the wire (test_every_flip_and_cut_...).
_any_shapes = st.one_of(
    _layout_shapes,
    st.tuples(st.integers(0, 8), st.lists(st.binary(max_size=40), max_size=5).map(tuple)),
)
_any_signature = st.sampled_from([0, 79, 80, 81, 160]).flatmap(lambda n: st.binary(min_size=n, max_size=n))


@settings(max_examples=200)
@given(_any_shapes, _any_signature)
def test_any_shape_is_refused_or_round_trips(shape, signature):
    """A Document exists only in a shape that encodes and decodes back to itself."""
    try:
        doc = Document(*shape, signature)
    except MalformedDocument:
        return
    assert documents.decode(documents.encode_canonical(doc)) == doc


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def test_root_certificate_self_verifies(stack):
    assert stack.root.doc_type == 0x01
    assert len(stack.root.signature) == documents.SIG_ENTRY_LEN
    documents.verify_chain([stack.root], stack.root)


def test_root_certificate_tamper_detected(stack):
    info = stack.root.field(documents.ROOT_INFO)
    tampered = _mutate(stack.root, documents.ROOT_INFO, b"X" + info[1:])
    with pytest.raises(ChainInvalid, match="^root does not self-verify: signature on root document does not verify$"):
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
    dev_key = bytes([dev_pk.suite_id]) + dev_pk.data
    forged = Document(
        documents.DOC_DEVICE, (b"clone", dev_key, crypto.generate_uuid(rng), stack.mcrt.field(documents.MFR_ID))
    )
    forged = documents.sign(forged, b_sk)
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
    unsigned = Document(stack.mcrt.doc_type, stack.mcrt.values)
    with pytest.raises(ChainInvalid, match="^manufacturer document is unsigned$"):
        documents.verify_chain([unsigned, stack.root], stack.root)


def test_verify_chain_rejects_unsigned_root(stack):
    unsigned = Document(stack.root.doc_type, stack.root.values)
    with pytest.raises(ChainInvalid, match="^root does not self-verify: root document is unsigned$"):
        documents.verify_chain([unsigned], unsigned)


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
    with pytest.raises(ChainInvalid, match="^signature on manufacturer document does not verify$"):
        documents.verify_chain([tampered, stack.root], stack.root)


def test_a_document_carries_at_most_one_signature(stack):
    """Each document is signed once, by its issuer; a second entry is malformed wherever it comes from."""
    entry = stack.mcrt.signature
    with pytest.raises(MalformedDocument, match="^signature entry is 160 bytes, not 80$"):
        Document(stack.mcrt.doc_type, stack.mcrt.values, entry + entry)
    # the authority signs the whole honest certificate again: a valid second entry by the same issuer
    honest = documents.encode_canonical(stack.mcrt)
    second = entry[: crypto.KEY_ID_LEN] + crypto.sign(stack.authority_sk, honest)
    with pytest.raises(MalformedDocument, match="^signature entry is 160 bytes, not 80$"):
        documents.decode(honest + second)
    with pytest.raises(MalformedDocument, match="^manufacturer document is already signed$"):
        documents.sign(stack.mcrt, stack.authority_sk)


# ---------------------------------------------------------------------------
# The chain of trust's shape, per document type
# ---------------------------------------------------------------------------

_TYPE_IDS = sorted(documents.DOC_TYPE_NAMES)

# The paper's five issuing edges: child type -> the one type that issues it.
_PAPER_EDGES = {
    documents.DOC_MANUFACTURER: documents.DOC_ROOT,
    documents.DOC_DEVICE: documents.DOC_MANUFACTURER,
    documents.DOC_FIRMWARE: documents.DOC_MANUFACTURER,
    documents.DOC_INSTALLATION: documents.DOC_DEVICE,
    documents.DOC_CONFIGURATION: documents.DOC_DEVICE,
}


def _docs_by_type(stack) -> dict[int, Document]:
    """One honest document of each type, all from the stack's one manufacturer and device."""
    cfg = documents.make_configuration_document(b"cfg", stack.dev.uuid, 1, stack.dev.secret_key)
    return {doc.doc_type: doc for doc in (stack.root, stack.mcrt, stack.dcrt, stack.fw_doc, stack.inst, cfg)}


@pytest.mark.parametrize("issuer_type", _TYPE_IDS, ids=documents.DOC_TYPE_NAMES.get)
@pytest.mark.parametrize("child_type", _TYPE_IDS, ids=documents.DOC_TYPE_NAMES.get)
def test_only_the_paper_edges_issue(stack, child_type, issuer_type):
    """A child over an honest chain from an issuer of each type verifies only on the paper's edges."""
    docs = _docs_by_type(stack)
    chain = [docs[child_type], docs[issuer_type]]
    while chain[-1].doc_type != documents.DOC_ROOT:
        chain.append(docs[_PAPER_EDGES[chain[-1].doc_type]])
    if _PAPER_EDGES.get(child_type) == issuer_type:
        documents.verify_chain(chain, stack.root)
    else:
        child, issuer = documents.DOC_TYPE_NAMES[child_type], documents.DOC_TYPE_NAMES[issuer_type]
        with pytest.raises(ChainInvalid, match=f"^{issuer} document cannot issue {child} documents$"):
            documents.verify_chain(chain, stack.root)


@pytest.mark.parametrize("doc_type", _TYPE_IDS, ids=documents.DOC_TYPE_NAMES.get)
def test_per_type_accessors(stack, doc_type):
    doc = _docs_by_type(stack)[doc_type]
    name = documents.DOC_TYPE_NAMES[doc_type]
    mfr = (documents.DOC_MANUFACTURER, stack.mcrt.field(documents.MFR_ID))
    dev = (documents.DOC_DEVICE, stack.dev.uuid)
    certificate_key, issuer_key = {
        documents.DOC_ROOT: (None, None),
        documents.DOC_MANUFACTURER: (mfr, None),
        documents.DOC_DEVICE: (dev, mfr),
        documents.DOC_FIRMWARE: (None, mfr),
        documents.DOC_INSTALLATION: (None, dev),
        documents.DOC_CONFIGURATION: (None, dev),
    }[doc_type]
    assert documents.certificate_key(doc) == certificate_key
    assert documents.issuer_key(doc) == issuer_key

    keys = {
        documents.DOC_ROOT: crypto.public_key_of(stack.authority_sk),
        documents.DOC_MANUFACTURER: crypto.public_key_of(stack.mfr_sk),
        documents.DOC_DEVICE: stack.dev.public_key,
    }
    if doc_type in keys:
        assert documents.embedded_public_key(doc) == keys[doc_type]
    else:
        with pytest.raises(MalformedDocument, match=f"^{name} documents carry no key$"):
            documents.embedded_public_key(doc)

    if doc_type in (documents.DOC_DEVICE, documents.DOC_INSTALLATION, documents.DOC_CONFIGURATION):
        assert documents.subject_uuid(doc) == stack.dev.uuid
    else:
        with pytest.raises(MalformedDocument, match="^document carries no device uuid$"):
            documents.subject_uuid(doc)

    n = len(doc.values)
    assert tuple(doc.field(tag) for tag in range(1, n + 1)) == doc.values
    for tag in (0, n + 1):
        with pytest.raises(MalformedDocument, match=f"^no field 0x{tag:02x} in {name} document$"):
            doc.field(tag)


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
    assert empty.signature == b""
    assert documents.config_seq(empty) == 0
    assert empty.field(documents.CFG_DIGEST) == hashlib.sha256(b"").digest()
    expected = hashlib.sha256(
        documents.encode_canonical(stack.inst) + documents.encode_canonical(empty)
    ).digest()
    assert documents.state_digest(stack.inst, None, stack.dev.uuid) == expected


def test_configuration_seq_bounds(stack):
    for seq in (0, 2**64):
        with pytest.raises(ConstraintViolation):
            documents.make_configuration_document(b"x", stack.dev.uuid, seq, stack.dev.secret_key)
    doc = documents.make_configuration_document(b"x", stack.dev.uuid, 2**64 - 1, stack.dev.secret_key)
    assert documents.config_seq(doc) == 2**64 - 1


def test_document_file_round_trip(tmp_path, stack):
    path = tmp_path / "mcrt.tltdoc"
    documents.write_files({path: documents.encode_canonical(stack.mcrt)})
    assert documents.load_document(path) == stack.mcrt


def test_write_files_never_replaces_a_file_that_appeared_meanwhile(tmp_path, monkeypatch):
    path, fsync = tmp_path / "out.tltdoc", os.fsync

    def another_writer_creates_it(fd):
        path.write_bytes(b"theirs")
        fsync(fd)

    monkeypatch.setattr(documents.os, "fsync", another_writer_creates_it)
    with pytest.raises(FileUnwritable, match=f"^{path}: File exists$"):
        documents.write_files({path: b"ours"})
    assert path.read_bytes() == b"theirs"
    assert os.listdir(tmp_path) == ["out.tltdoc"]  # no temp file left


def test_write_files_outlives_a_temp_file_left_by_a_killed_writer(tmp_path):
    path = tmp_path / "s.tltlog"
    (tmp_path / f".s.tltlog.{os.getpid()}.tmp").write_bytes(b"a killed writer with this pid left it")
    documents.write_files({path: b"log"})
    assert os.listdir(tmp_path) == ["s.tltlog"]
    assert path.read_bytes() == b"log"
