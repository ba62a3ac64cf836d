from __future__ import annotations

import pytest

from tlt import crypto, documents
from tlt.device import device_birth
from tlt.documents import Document
from tlt.errors import (
    ChainInvalid,
    ConstraintViolation,
    CorruptLog,
    DuplicateUuid,
    MalformedDocument,
    NotFound,
    UnknownIssuer,
)
from tlt.store import Store, load_store

from conftest import build_stack


# ---------------------------------------------------------------------------
# Initialisation
# ---------------------------------------------------------------------------

def test_init_and_empty_lookup(stack, rng):
    st = Store(stack.root)
    with pytest.raises(NotFound):
        st.lookup_device(crypto.generate_uuid(rng))


def test_init_rejects_corrupted_root(stack):
    fields = tuple(
        (t, b"Evil Authority" if t == documents.ROOT_INFO else v) for t, v in stack.root.fields
    )
    corrupted = Document(stack.root.doc_type, fields, stack.root.signatures)
    with pytest.raises(ChainInvalid):
        Store(corrupted)


def test_empty_store_round_trip(tmp_path, stack):
    st = Store(stack.root)
    path = tmp_path / "s.tltlog"
    st.persist(path)
    loaded = load_store(path)
    assert loaded.records == st.records
    assert loaded.root == st.root


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

def test_register_manufacturer_then_device(stack, rng):
    st = Store(stack.root)
    assert st.register("manufacturer", stack.mcrt) == 1
    assert st.register("device", stack.dcrt) == 2


def test_register_device_under_unregistered_manufacturer(stack):
    st = Store(stack.root)
    with pytest.raises(UnknownIssuer):
        st.register("device", stack.dcrt)


def test_register_duplicate_uuid(stack):
    st = Store(stack.root)
    st.register("manufacturer", stack.mcrt)
    st.register("device", stack.dcrt)
    with pytest.raises(DuplicateUuid):
        st.register("device", stack.dcrt)


def test_register_rejects_kind_mismatch(stack):
    st = Store(stack.root)
    with pytest.raises(ConstraintViolation, match="^document type 0x02 does not match record kind device$"):
        st.register("device", stack.mcrt)
    with pytest.raises(ConstraintViolation, match="^document type 0x02 does not match record kind firmware$"):
        st.register("firmware", stack.mcrt)
    with pytest.raises(ConstraintViolation, match="^the root is fixed at store creation$"):
        st.register("root", stack.root)
    with pytest.raises(ConstraintViolation, match="^unknown record kind 'nonsense'$"):
        st.register("nonsense", stack.mcrt)
    assert len(st.records) == 1


def test_register_rejects_tampered_document(stack):
    st = Store(stack.root)
    fields = tuple(
        (t, b"Shady Acme" if t == documents.MFR_INFO else v) for t, v in stack.mcrt.fields
    )
    tampered = Document(stack.mcrt.doc_type, fields, stack.mcrt.signatures)
    with pytest.raises(ChainInvalid):
        st.register("manufacturer", tampered)


def test_register_rejects_duplicate_manufacturer_id(stack):
    st = Store(stack.root)
    st.register("manufacturer", stack.mcrt)
    with pytest.raises(ConstraintViolation):
        st.register("manufacturer", stack.mcrt)


def test_register_firmware_requires_registered_manufacturer(stack):
    st = Store(stack.root)
    with pytest.raises(UnknownIssuer):
        st.register("firmware", stack.fw_doc)


def test_register_installation_requires_device_and_firmware(stack):
    st = Store(stack.root)
    st.register("manufacturer", stack.mcrt)
    with pytest.raises(UnknownIssuer):
        st.register("installation", stack.inst)  # device unknown
    st.register("device", stack.dcrt)
    with pytest.raises(ConstraintViolation):
        st.register("installation", stack.inst)  # firmware unknown
    st.register("firmware", stack.fw_doc)
    assert st.register("installation", stack.inst) == 4


def test_register_configuration_requires_installation(stack):
    st = Store(stack.root)
    st.register("manufacturer", stack.mcrt)
    st.register("device", stack.dcrt)
    cfg = stack.dev.apply_configuration(b"early", 1)
    with pytest.raises(ConstraintViolation):
        st.register("configuration", cfg)


def test_register_configuration_sequence_monotonic(stack):
    cfg1 = stack.dev.apply_configuration(b"one", 1)
    stack.store.register("configuration", cfg1)
    cfg2 = stack.dev.apply_configuration(b"two", 2)
    stack.store.register("configuration", cfg2)
    with pytest.raises(ConstraintViolation):
        stack.store.register("configuration", cfg1)


def test_rejected_register_leaves_the_store_unchanged(stack):
    """Every admission check runs before the store writes anything."""
    st, dev = stack.store, stack.dev
    d_installed = dev.compute_state_digest()
    st.register("configuration", dev.apply_configuration(b"one", 1))
    d_configured = dev.compute_state_digest()
    dev2, dcrt2 = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "second lock", stack.rng)
    st.register("device", dcrt2)

    fw2 = documents.sign_firmware(b"unregistered image", "lock-9000 v2.0", stack.mfr_sk, stack.mcrt)
    inst2 = documents.make_installation_document(fw2, dev.uuid, "slot=1", dev.secret_key)
    early_cfg = documents.make_configuration_document(b"early", dev2.uuid, 1, dev2.secret_key)
    stale_cfg = documents.make_configuration_document(b"stale", dev.uuid, 1, dev.secret_key)
    rejected = [
        ("device", dcrt2, DuplicateUuid),
        ("manufacturer", stack.mcrt, ConstraintViolation),
        ("firmware", stack.fw_doc, ConstraintViolation),
        ("installation", inst2, ConstraintViolation),
        ("configuration", early_cfg, ConstraintViolation),
        ("configuration", stale_cfg, ConstraintViolation),
    ]
    # The digests the store knows, and the ones the rejected records would add.
    digests = [
        d_installed,
        d_configured,
        documents.state_digest(inst2, dev.cfg, dev.uuid),
        documents.state_digest(stack.inst, stale_cfg, dev.uuid),
    ]

    def answer(lookup, *args):
        try:
            return lookup(*args)
        except NotFound as exc:
            return f"NotFound: {exc}"

    def observed():
        return [list(st.records)] + [
            (answer(st.lookup_device, uuid), answer(st.current_state_digest, uuid),
             [answer(st.lookup_state, uuid, d) for d in digests])
            for uuid in (dev.uuid, dev2.uuid)
        ]

    before = observed()
    assert before[1][1] == d_configured and before[2][1].startswith("NotFound")
    for kind, doc, error in rejected:
        with pytest.raises(error):
            st.register(kind, doc)
        assert observed() == before, kind


def test_register_cross_manufacturer_device_rejected(stack, rng):
    st = Store(stack.root)
    st.register("manufacturer", stack.mcrt)
    # second manufacturer registered, then used to sign a device claiming the first's id
    b_pk, b_sk = crypto.generate_keypair(rng)
    mcrt_b = documents.make_manufacturer_certificate("B Corp", b_pk, stack.authority_sk, rng)
    st.register("manufacturer", mcrt_b)
    dev_pk, _ = crypto.generate_keypair(rng)
    forged = Document(
        documents.DOC_DEVICE,
        (
            (documents.DEV_INFO, b"forged"),
            (documents.DEV_PUBKEY, bytes([dev_pk.suite_id]) + dev_pk.data),
            (documents.DEV_UUID, crypto.generate_uuid(rng)),
            (documents.DEV_MFR_ID, stack.mcrt.field(documents.MFR_ID)),
        ),
    )
    forged = documents.append_signature(forged, b_sk)
    with pytest.raises((ChainInvalid, ConstraintViolation)):
        st.register("device", forged)


def test_register_document_without_fields_is_malformed(stack):
    """A document missing the field that names its issuer fails as a TltError, not a KeyError."""
    st = Store(stack.root)
    with pytest.raises(MalformedDocument):
        st.register("device", Document(documents.DOC_DEVICE, ()))
    with pytest.raises(MalformedDocument):
        st.register("installation", Document(documents.DOC_INSTALLATION, ()))


# ---------------------------------------------------------------------------
# Lookups
# ---------------------------------------------------------------------------

def test_lookup_device_view(stack):
    view = stack.store.lookup_device(stack.dev.uuid)
    assert view.certificate.field(documents.DEV_INFO) == b"lock-9000 smart lock"
    assert view.mfr_certificate.field(documents.MFR_INFO) == b"Acme Devices"
    assert view.public_key == stack.dev.public_key
    documents.verify_chain([view.certificate, view.mfr_certificate, stack.root], stack.root)


def test_lookup_unknown_device(stack, rng):
    with pytest.raises(NotFound):
        stack.store.lookup_device(crypto.generate_uuid(rng))


def test_lookup_state_current(stack):
    digest = stack.dev.compute_state_digest()
    view = stack.store.lookup_state(stack.dev.uuid, digest)
    assert view.current
    assert view.fw_meta == "lock-9000 v1.0"


def test_lookup_state_superseded_after_update(stack):
    old_digest = stack.dev.compute_state_digest()
    image2 = b"image two"
    fw2 = documents.sign_firmware(image2, "lock-9000 v2.0", stack.mfr_sk, stack.mcrt)
    stack.store.register("firmware", fw2)
    inst2 = stack.dev.install_firmware(fw2, image2, [stack.mcrt], "slot=0")
    stack.store.register("installation", inst2)

    old_view = stack.store.lookup_state(stack.dev.uuid, old_digest)
    assert not old_view.current
    new_view = stack.store.lookup_state(stack.dev.uuid, stack.dev.compute_state_digest())
    assert new_view.current
    assert new_view.fw_meta == "lock-9000 v2.0"


def test_lookup_state_unknown_digest(stack, rng):
    with pytest.raises(NotFound):
        stack.store.lookup_state(stack.dev.uuid, rng.bytes(32))


def test_state_entry_tracks_configuration(stack):
    cfg = stack.dev.apply_configuration(b"prod settings", 3)
    stack.store.register("configuration", cfg)
    view = stack.store.lookup_state(stack.dev.uuid, stack.dev.compute_state_digest())
    assert view.current


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def test_admission_soundness_every_record_reverifies(stack):
    st = stack.store
    for doc in st.records:
        if doc.doc_type == documents.DOC_ROOT:
            documents.verify_chain([doc], st.root)
        elif doc.doc_type == documents.DOC_MANUFACTURER:
            documents.verify_chain([doc, st.root], st.root)
        elif doc.doc_type in (documents.DOC_DEVICE, documents.DOC_FIRMWARE):
            mcrt = st.records[1]
            documents.verify_chain([doc, mcrt, st.root], st.root)
        else:
            dcrt, mcrt = st.records[3], st.records[1]
            documents.verify_chain([doc, dcrt, mcrt, st.root], st.root)


def test_index_consistency(stack):
    uuid = stack.dev.uuid
    cfg = stack.dev.apply_configuration(b"indexed", 1)
    stack.store.register("configuration", cfg)
    for cfg_doc, current in ((None, False), (cfg, True)):
        digest = documents.state_digest(stack.inst, cfg_doc, uuid)
        assert stack.store.lookup_state(uuid, digest).current == current


def test_monotone_sequence_numbers(stack, tmp_path):
    """The persisted log numbers its records 0, 1, 2, ... and names each by its type."""
    path = tmp_path / "s.tltlog"
    stack.store.persist(path)
    columns = [line.split(" ")[:2] for line in path.read_text().splitlines()]
    assert [seq for _, seq in columns] == [str(i) for i in range(len(stack.store.records))]
    assert [kind for kind, _ in columns] == [documents.DOC_TYPE_NAMES[doc.doc_type] for doc in stack.store.records]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _populated_store(tmp_path):
    """1 root, 1 mfr, 2 devices, 2 firmware, 2 installs, 2 configs = 10 records."""
    stack = build_stack(seed=777)
    st = stack.store
    dev2, dcrt2 = device_birth(stack.mcrt, stack.mfr_sk, stack.root, "thermostat", stack.rng)
    st.register("device", dcrt2)
    image2 = b"thermo image"
    fw2 = documents.sign_firmware(image2, "thermo v1", stack.mfr_sk, stack.mcrt)
    st.register("firmware", fw2)
    inst2 = dev2.install_firmware(fw2, image2, [stack.mcrt], "slot=0")
    st.register("installation", inst2)
    cfg1 = stack.dev.apply_configuration(b"lock cfg", 1)
    st.register("configuration", cfg1)
    cfg2 = dev2.apply_configuration(b"thermo cfg", 1)
    st.register("configuration", cfg2)
    path = tmp_path / "full.tltlog"
    st.persist(path)
    return stack, dev2, path


def test_persist_load_round_trip(tmp_path):
    stack, dev2, path = _populated_store(tmp_path)
    st = stack.store
    assert len(st.records) == 10
    loaded = load_store(path)
    assert loaded.records == st.records
    for dev in (stack.dev, dev2):
        assert loaded.lookup_device(dev.uuid) == st.lookup_device(dev.uuid)
        digest = dev.compute_state_digest()
        assert loaded.lookup_state(dev.uuid, digest) == st.lookup_state(dev.uuid, digest)


def test_log_format_is_hex_lines(tmp_path):
    _, _, path = _populated_store(tmp_path)
    for i, line in enumerate(path.read_text().splitlines()):
        kind, seq, hexpart = line.split(" ")
        assert int(seq) == i
        doc = documents.decode(bytes.fromhex(hexpart))
        assert kind == documents.DOC_TYPE_NAMES[doc.doc_type]
        assert hexpart == hexpart.lower()


def test_corrupt_log_detected(tmp_path):
    _, _, path = _populated_store(tmp_path)
    blob = bytearray(path.read_bytes())
    # flip a byte inside the last record's hex payload
    pos = len(blob) - 10
    blob[pos] ^= 0x01
    bad = tmp_path / "bad.tltlog"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CorruptLog) as exc_info:
        load_store(bad)
    assert exc_info.value.seq == 9


def test_corrupt_root_record_detected(tmp_path):
    _, _, path = _populated_store(tmp_path)
    lines = path.read_text().splitlines()
    kind, seq, hexpart = lines[0].split(" ")
    flipped = ("0" if hexpart[20] != "0" else "1") + hexpart[21:]
    lines[0] = f"{kind} {seq} {hexpart[:20]}{flipped}"
    bad = tmp_path / "badroot.tltlog"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptLog) as exc_info:
        load_store(bad)
    assert exc_info.value.seq == 0


def test_load_rejects_bad_sequence(tmp_path):
    _, _, path = _populated_store(tmp_path)
    lines = path.read_text().splitlines()
    lines[4] = lines[4].replace(" 4 ", " 7 ", 1)
    bad = tmp_path / "badseq.tltlog"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptLog) as exc_info:
        load_store(bad)
    assert exc_info.value.seq == 4


def test_load_rejects_uppercase_hex(tmp_path):
    _, _, path = _populated_store(tmp_path)
    lines = path.read_text().splitlines()
    kind, seq, hexpart = lines[2].split(" ")
    lines[2] = f"{kind} {seq} {hexpart.upper()}"
    bad = tmp_path / "badcase.tltlog"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptLog) as exc_info:
        load_store(bad)
    assert exc_info.value.seq == 2


def test_load_rejects_document_text_that_is_not_lowercase_hex(tmp_path, stack):
    st = Store(stack.root)
    st.register("manufacturer", stack.mcrt)
    path = tmp_path / "two.tltlog"
    st.persist(path)
    root_line, mfr_line = path.read_text().splitlines()
    kind, seq, hexpart = mfr_line.split(" ")
    assert "a" in hexpart
    bad_texts = [
        "",
        hexpart[:-1],
        hexpart.upper(),
        hexpart.replace("a", "A", 1),
        hexpart + "\r",
        *(hexpart[:2] + space + hexpart[2:] for space in "\r\t\x0b"),
        hexpart[:4] + "zz" + hexpart[6:],
        "0x" + hexpart,
    ]
    bad = tmp_path / "bad.tltlog"
    for text in bad_texts:
        bad.write_text(f"{root_line}\n{kind} {seq} {text}\n")
        with pytest.raises(CorruptLog) as exc_info:
            load_store(bad)
        assert exc_info.value.seq == 1, repr(text)
        assert str(exc_info.value) == "record 1: document bytes are not lowercase hex", repr(text)


def test_load_rejects_kind_that_does_not_name_the_document(tmp_path):
    _, _, path = _populated_store(tmp_path)
    lines = path.read_text().splitlines()
    for seq, kind in ((1, "firmware"), (1, "root"), (3, "root"), (2, "nonsense")):
        edited = list(lines)
        edited[seq] = kind + edited[seq][edited[seq].index(" ") :]
        bad = tmp_path / "badkind.tltlog"
        bad.write_text("\n".join(edited) + "\n")
        with pytest.raises(CorruptLog) as exc_info:
            load_store(bad)
        assert exc_info.value.seq == seq, kind


def test_log_cut_anywhere_in_its_last_record_fails_at_that_record(tmp_path, stack):
    """A cut inside the last line is a CorruptLog at its seq; at a line boundary the shorter store loads."""
    path = tmp_path / "s.tltlog"
    stack.store.persist(path)
    blob = path.read_bytes()
    last_seq = len(stack.store.records) - 1
    last_start = blob.rindex(b"\n", 0, -1) + 1
    for n in range(last_start, len(blob)):
        path.write_bytes(blob[:n])
        if n in (last_start, len(blob) - 1):  # the whole previous record, or all but the final LF
            kept = last_seq if n == last_start else last_seq + 1
            assert load_store(path).records == stack.store.records[:kept], n
            continue
        with pytest.raises(CorruptLog) as exc_info:
            load_store(path)
        assert exc_info.value.seq == last_seq, n


def test_load_rejects_non_ascii_and_non_canonical_lines(tmp_path, stack):
    st = Store(stack.root)
    st.register("manufacturer", stack.mcrt)
    path = tmp_path / "two.tltlog"
    st.persist(path)
    blob = path.read_bytes()
    root_end = blob.index(b"\n")  # the newline belongs to the record it ends
    bad = tmp_path / "bad.tltlog"
    for pos in range(len(blob)):
        flipped = bytearray(blob)
        flipped[pos] ^= 0x80
        bad.write_bytes(bytes(flipped))
        with pytest.raises(CorruptLog) as exc_info:
            load_store(bad)
        assert exc_info.value.seq == (0 if pos <= root_end else 1), pos

    lines = blob.decode().splitlines()
    for seq_text in ("01", "\u00b2", "\u0661"):  # leading zero, superscript two, Arabic-Indic one
        kind, _, hexpart = lines[1].split(" ")
        bad.write_bytes(f"{lines[0]}\n{kind} {seq_text} {hexpart}\n".encode())
        with pytest.raises(CorruptLog) as exc_info:
            load_store(bad)
        assert exc_info.value.seq == 1, seq_text

    bad.write_bytes(blob.replace(b"\n", b"\r\n"))
    with pytest.raises(CorruptLog) as exc_info:
        load_store(bad)
    assert exc_info.value.seq == 0
