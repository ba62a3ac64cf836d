from __future__ import annotations

import os
import signal
import subprocess
import sys
import tracemalloc

import pytest

from tlt import crypto, documents
from tlt.device import device_birth, load_device
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

from conftest import build_stack, subprocess_env, write_device


# ---------------------------------------------------------------------------
# Initialisation
# ---------------------------------------------------------------------------

def test_init_and_empty_lookup(stack, rng):
    st = Store(stack.root)
    with pytest.raises(NotFound):
        st.lookup_device(crypto.generate_uuid(rng))


def test_init_rejects_corrupted_root(stack):
    corrupted = Document(stack.root.doc_type, (b"Evil Authority", *stack.root.values[1:]), stack.root.signature)
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
    tampered = Document(stack.mcrt.doc_type, (b"Shady Acme", *stack.mcrt.values[1:]), stack.mcrt.signature)
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
    dev_key = bytes([dev_pk.suite_id]) + dev_pk.data
    forged = Document(
        documents.DOC_DEVICE, (b"forged", dev_key, crypto.generate_uuid(rng), stack.mcrt.field(documents.MFR_ID))
    )
    forged = documents.sign(forged, b_sk)
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


@pytest.mark.parametrize("owner, name", [(documents, "decode"), (Store, "__init__"), (Store, "register")])
def test_load_lets_a_program_fault_through(tmp_path, stack, monkeypatch, owner, name):
    """Only a refused record is a CorruptLog; a crash while replaying is not laundered into one."""
    path = tmp_path / "s.tltlog"
    stack.store.persist(path)

    def crash(*_args, **_kwargs):
        raise RuntimeError("fault in the program")

    monkeypatch.setattr(owner, name, crash)
    with pytest.raises(RuntimeError, match="^fault in the program$"):
        load_store(path)


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


def test_load_rejects_a_log_that_does_not_begin_with_the_root(tmp_path):
    _, _, path = _populated_store(tmp_path)
    lines = path.read_text().splitlines()
    lines[0] = "manufacturer" + lines[0][lines[0].index(" ") :]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptLog) as exc_info:
        load_store(path)
    assert (exc_info.value.seq, str(exc_info.value)) == (0, "record 0: log must begin with the root")


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


def test_load_reads_lines_as_a_split_on_lf_would(tmp_path, stack):
    """An empty file, a lone LF, a trailing blank line and a blank line between records."""
    path = tmp_path / "s.tltlog"
    stack.store.persist(path)
    blob, n = path.read_bytes(), len(stack.store.records)
    root_end = blob.index(b"\n") + 1
    cases = [
        (b"", 0, "empty store log"),
        (b"\n", 0, "record 0: malformed line"),
        (blob + b"\n", n, f"record {n}: malformed line"),
        (blob[:root_end] + b"\n" + blob[root_end:], 1, "record 1: malformed line"),
    ]
    for text, seq, message in cases:
        path.write_bytes(text)
        with pytest.raises(CorruptLog) as exc_info:
            load_store(path)
        assert (exc_info.value.seq, str(exc_info.value)) == (seq, message), text[:80]


def test_load_streams_the_log(tmp_path, stack):
    """A replay holds about one record at a time beyond what the loaded store keeps, not the log text."""
    for seq in range(1, 331):
        stack.store.register("configuration", stack.dev.apply_configuration(b"cfg %d" % seq, seq))
    path = tmp_path / "s.tltlog"
    stack.store.persist(path)
    size = path.stat().st_size
    assert size >= 100_000
    tracemalloc.start()
    try:
        loaded = load_store(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.records == stack.store.records
    assert peak - retained < size / 2


# Rewrites `source`'s store or device state over `target` with writes past `limit` bytes refused.
_CUT_SHORT = """
import errno, resource, signal, sys
from tlt import device, documents, errors, store
writer, source, target, limit = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
state = store.load_store(source) if writer == "persist" else device.load_device(source)
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG instead
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
try:
    if writer == "persist":
        state.persist(target)
    else:
        documents.write_files({target: device.encode_device(state)}, {target})  # as `tlt device configure` does
except errors.FileUnwritable as exc:
    print(errno.errorcode[exc.__cause__.errno])
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs POSIX file size limits")
@pytest.mark.parametrize("writer", ["persist", "tltdev"])
def test_a_rewrite_cut_short_leaves_the_previous_file(tmp_path, stack, writer):
    """A store log or device state file whose rewrite fails partway is still the old file, and loads."""
    if writer == "persist":
        old, new, load = tmp_path / "s.tltlog", tmp_path / "next.tltlog", load_store
        stack.store.persist(old)
        stack.store.register("configuration", stack.dev.apply_configuration(b"cfg", 1))
        stack.store.persist(new)
    else:
        old, new, load = tmp_path / "d.tltdev", tmp_path / "next.tltdev", load_device
        write_device(stack.dev, old)
        stack.dev.apply_configuration(b"cfg", 1)
        write_device(stack.dev, new)
    before, files = old.read_bytes(), sorted(os.listdir(tmp_path))
    limit = new.stat().st_size // 2
    child = subprocess.run(
        [sys.executable, "-c", _CUT_SHORT, writer, str(new), str(old), str(limit)],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert child.stdout == "EFBIG\n", child.stderr
    assert old.read_bytes() == before
    load(old)
    assert sorted(os.listdir(tmp_path)) == files
