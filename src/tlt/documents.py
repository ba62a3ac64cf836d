"""Canonical documents and chain-of-trust verification.

Every signed artefact in the ecosystem (certificates, firmware documents,
installation and configuration proofs) is a Document: a type, its field values
in layout order, and at most one signature, made by its issuer. One table,
_TYPES, holds each type's name, field lengths, key and id fields, and issuer.
A Document is well-formed by construction (see Document), so every document
read from disk, a socket or a `.tltdev` file fails closed where it is decoded.
verify_chain, the one chain-of-trust check, returns None or raises ChainInvalid
naming the first check that failed.

Wire format (the `.tltdoc` file content is exactly these bytes):

    doc_type     1 byte   (0x01..0x06)
    field_count  1 byte
    fields       field_count times: tag(1) || length(4, big-endian) || value
    signature    absent (unsigned) or signer_hint(16) || signature(64)

Field tags exist only on the wire: a field's tag is its position in its
type's layout, 0x01 upward, written by the encoder and checked by decode, so
the encoding is injective and byte-stable. The signature covers the body,
i.e. the byte prefix that precedes it: doc_type, field_count and fields. The
signer hint is the key id of the signing key and is checked during
verification, so every byte of a document is covered by some check.

Reader and prefixed are the one way binary formats (documents, `.tltdev`
files, store answers) are read and written; Reader fails closed.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import crypto
from .crypto import DIGEST_LEN, UUID_LEN, PublicKey, SecretKey
from .errors import ChainInvalid, ConstraintViolation, FileUnwritable, InvalidKey, MalformedDocument

DOC_ROOT = 0x01
DOC_MANUFACTURER = 0x02
DOC_DEVICE = 0x03
DOC_FIRMWARE = 0x04
DOC_INSTALLATION = 0x05
DOC_CONFIGURATION = 0x06

# Field tags, per document type: a tag is its field's position in the type's layout, from 0x01.
ROOT_INFO = 0x01
ROOT_PUBKEY = 0x02

MFR_INFO = 0x01
MFR_ID = 0x02
MFR_PUBKEY = 0x03

DEV_INFO = 0x01
DEV_PUBKEY = 0x02
DEV_UUID = 0x03
DEV_MFR_ID = 0x04

FW_META = 0x01
FW_IMAGE_DIGEST = 0x02
FW_MFR_ID = 0x03

INST_FW_DOC_DIGEST = 0x01
INST_UUID = 0x02
INST_INFO = 0x03

CFG_DIGEST = 0x01
CFG_UUID = 0x02
CFG_SEQ = 0x03

MFR_ID_LEN = 16
SIG_ENTRY_LEN = crypto.KEY_ID_LEN + crypto.SIGNATURE_LEN  # signer_hint || signature
_PK_FIELD_LEN = 1 + crypto.PUBLIC_KEY_LEN
_FIELD_HEADER = struct.Struct(">BI")  # tag, value length


class _DocType(NamedTuple):
    name: str
    lengths: tuple[int | None, ...]  # the value with tag i has lengths[i - 1] bytes; None: any length
    key_tag: int | None = None       # tag of the embedded public key
    id_tag: int | None = None        # tag of the id its children name it by
    issuer: int | None = None        # the only doc_type that may issue (sign) it
    issuer_tag: int | None = None    # tag naming its issuer, by the issuer's id_tag value


# The one table of document types, and so the chain of trust's shape: the root
# (the one trust anchor, self-signed, naming no issuer) issues manufacturers; a
# manufacturer its devices and firmware; a device its installation and configuration proofs.
_TYPES = {
    DOC_ROOT: _DocType("root", (None, _PK_FIELD_LEN), ROOT_PUBKEY),
    DOC_MANUFACTURER: _DocType("manufacturer", (None, MFR_ID_LEN, _PK_FIELD_LEN), MFR_PUBKEY, MFR_ID, DOC_ROOT),
    DOC_DEVICE: _DocType(
        "device", (None, _PK_FIELD_LEN, UUID_LEN, MFR_ID_LEN), DEV_PUBKEY, DEV_UUID, DOC_MANUFACTURER, DEV_MFR_ID
    ),
    DOC_FIRMWARE: _DocType("firmware", (None, DIGEST_LEN, MFR_ID_LEN), issuer=DOC_MANUFACTURER, issuer_tag=FW_MFR_ID),
    DOC_INSTALLATION: _DocType("installation", (DIGEST_LEN, UUID_LEN, None), issuer=DOC_DEVICE, issuer_tag=INST_UUID),
    DOC_CONFIGURATION: _DocType("configuration", (DIGEST_LEN, UUID_LEN, 8), issuer=DOC_DEVICE, issuer_tag=CFG_UUID),
}
DOC_TYPE_NAMES = {doc_type: t.name for doc_type, t in _TYPES.items()}

DOC_FILE_EXT = ".tltdoc"


@dataclass(frozen=True)
class Document:
    """Canonical signed artefact. Immutable; signing returns a new value.

    Well-formed by construction: its type is in _TYPES, values holds one value
    per field, in layout order, at the length _TYPES fixes for it, a key field is
    suite 0x01 (Ed25519) followed by its key, a device certificate's UUID is a
    version-4 UUID, and the signature is empty (unsigned) or one entry,
    signer_hint(16) || signature(64), as on the wire. Anything else raises
    MalformedDocument, so embedded_public_key never fails on a Document.
    """

    doc_type: int
    values: tuple[bytes, ...]
    signature: bytes = b""

    def __post_init__(self):
        t = _TYPES.get(self.doc_type)
        if t is None:
            raise MalformedDocument(f"unknown doc_type 0x{self.doc_type:02x}")
        if len(self.values) != len(t.lengths):
            raise MalformedDocument(f"{t.name} document has wrong field count")
        for tag, (value, want_len) in enumerate(zip(self.values, t.lengths), 1):
            if want_len is not None and len(value) != want_len:
                raise MalformedDocument(f"field 0x{tag:02x} has wrong length")
        if t.key_tag is not None and (suite := self.field(t.key_tag)[0]) != crypto.SUITE_ED25519_SHA256:
            raise MalformedDocument(f"{t.name} key has unsupported suite 0x{suite:02x}")
        if self.doc_type == DOC_DEVICE and not crypto.is_uuid4(self.field(DEV_UUID)):
            raise MalformedDocument("device uuid is not a valid random UUID")
        if len(self.signature) not in (0, SIG_ENTRY_LEN):
            raise MalformedDocument(f"signature entry is {len(self.signature)} bytes, not {SIG_ENTRY_LEN}")

    def field(self, tag: int) -> bytes:
        if not 0 < tag <= len(self.values):
            raise MalformedDocument(f"no field 0x{tag:02x} in {DOC_TYPE_NAMES[self.doc_type]} document")
        return self.values[tag - 1]


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

def prefixed(value: bytes) -> bytes:
    """len(value) as 4 big-endian bytes, then value: what Reader.prefixed reads."""
    return len(value).to_bytes(4, "big") + value


class Reader:
    """Cursor over untrusted bytes; each read goes through take, the one bounds check (MalformedDocument)."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._pos = 0

    def take(self, n: int) -> bytes:
        start = self._pos
        end = start + n
        if end > len(self._data):
            raise MalformedDocument(f"truncated: {n} bytes wanted at offset {start}")
        self._pos = end
        return self._data[start:end]

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def prefixed(self) -> bytes:
        return self.take(self.u32())

    def flag(self) -> bool:
        value = self.u8()
        if value > 1:
            raise MalformedDocument(f"flag byte is {value}, expected 0 or 1")
        return value == 1

    def rest(self) -> bytes:
        out = self._data[self._pos :]
        self._pos = len(self._data)
        return out

    def end(self) -> None:
        if self._pos != len(self._data):
            raise MalformedDocument(f"{len(self._data) - self._pos} trailing bytes")


# Both public encoders call _body, never each other: each call of either is one encode.
def encode_canonical(doc: Document) -> bytes:
    """Deterministic byte encoding; every Document has one."""
    return _body(doc) + doc.signature


def signing_payload(doc: Document) -> bytes:
    """The bytes the signature covers: the encoding without its signature entry."""
    return _body(doc)


def _body(doc: Document) -> bytes:
    out = bytearray((doc.doc_type, len(doc.values)))
    for tag, value in enumerate(doc.values, 1):
        out += _FIELD_HEADER.pack(tag, len(value))
        out += value
    return bytes(out)


def decode(data: bytes) -> Document:
    """Exact inverse of encode_canonical; raises MalformedDocument otherwise."""
    r = Reader(data)
    doc_type, field_count = r.take(2)
    values = []
    for tag in range(1, field_count + 1):
        found, length = _FIELD_HEADER.unpack(r.take(_FIELD_HEADER.size))
        if found != tag:
            raise MalformedDocument(f"{DOC_TYPE_NAMES.get(doc_type, 'unknown')} document missing field 0x{tag:02x}")
        values.append(r.take(length))
    return Document(doc_type, tuple(values), r.rest())


def sign(doc: Document, sk: SecretKey) -> Document:
    """The document signed by sk; MalformedDocument if it is already signed."""
    if doc.signature:
        raise MalformedDocument(f"{DOC_TYPE_NAMES[doc.doc_type]} document is already signed")
    sig = crypto.sign(sk, signing_payload(doc))
    return Document(doc.doc_type, doc.values, crypto.key_id(crypto.public_key_of(sk)) + sig)


def doc_digest(doc: Document) -> bytes:
    """Digest of the full canonical encoding (identity of a document)."""
    return crypto.digest(encode_canonical(doc))


def load_document(path) -> Document:
    return decode(crypto.read_file(path))


def write_files(files: dict, replace=()) -> None:
    """The one file writer: stage each path's bytes in an owner-only sibling temp file (fsynced), refuse a path not in
    replace that exists, then place each in order: by os.replace if it is in replace (a file the caller read), else by
    os.link, which never replaces a file (one made since the check included). A failure before the first placement
    leaves every path as it was; an OSError is a FileUnwritable naming the path."""
    staged = {}
    try:
        for path, data in files.items():
            tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
            tmp.unlink(missing_ok=True)  # left by a killed writer with this pid
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            staged[path] = tmp
            with open(fd, "wb") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
        for path in staged:  # such as an output another writer made while this one waited for a lock
            if path not in replace and os.path.lexists(path):
                raise FileUnwritable(f"{path}: File exists")
        for path, tmp in staged.items():
            (os.replace if path in replace else os.link)(tmp, path)
    except OSError as exc:
        raise FileUnwritable(f"{path}: {exc.strerror}") from exc
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)  # already gone after a replace


# ---------------------------------------------------------------------------
# Field helpers
# ---------------------------------------------------------------------------

def embedded_public_key(doc: Document) -> PublicKey:
    """Public key carried by a certificate-type document."""
    t = _TYPES[doc.doc_type]
    if t.key_tag is None:
        raise MalformedDocument(f"{t.name} documents carry no key")
    raw = doc.field(t.key_tag)  # Document fixes its length and suite
    return PublicKey(raw[0], raw[1:])


def issuer_key(doc: Document) -> tuple[int, bytes] | None:
    """(doc_type, id) of the certificate that must sign doc; None if the root signs it or it is the root."""
    t = _TYPES[doc.doc_type]
    return None if t.issuer_tag is None else (t.issuer, doc.field(t.issuer_tag))


def certificate_key(doc: Document) -> tuple[int, bytes] | None:
    """(doc_type, id) under which a manufacturer or device certificate is found, else None."""
    tag = _TYPES[doc.doc_type].id_tag
    return None if tag is None else (doc.doc_type, doc.field(tag))


def subject_uuid(doc: Document) -> bytes:
    """The UUID of the device a document is about: its own, or its signing device's."""
    key = certificate_key(doc) or issuer_key(doc)
    if key is None or key[0] != DOC_DEVICE:
        raise MalformedDocument("document carries no device uuid")
    return key[1]


def config_seq(doc: Document) -> int:
    return int.from_bytes(doc.field(CFG_SEQ), "big")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def check_manufacturer_key(mfr_sk: SecretKey, mfr_cert: Document) -> None:
    """InvalidKey unless mfr_cert is a manufacturer certificate for mfr_sk's public key."""
    if mfr_cert.doc_type != DOC_MANUFACTURER or crypto.public_key_of(mfr_sk) != embedded_public_key(mfr_cert):
        raise InvalidKey("secret key does not match the manufacturer certificate")


def make_root_certificate(info: str, public_key: PublicKey, secret_key: SecretKey) -> Document:
    """Self-signed root anchoring all chain verification."""
    if crypto.public_key_of(secret_key) != public_key:
        raise InvalidKey("secret key does not match the authority public key")
    return sign(Document(DOC_ROOT, (info.encode(), crypto.key_bytes(public_key))), secret_key)


def make_manufacturer_certificate(
    mfr_info: str, mfr_pk: PublicKey, authority_sk: SecretKey, rng=None
) -> Document:
    """Authority-signed manufacturer certificate with a fresh 16-byte id."""
    mfr_id = crypto.random_bytes(MFR_ID_LEN, rng)
    doc = Document(DOC_MANUFACTURER, (mfr_info.encode(), mfr_id, crypto.key_bytes(mfr_pk)))
    return sign(doc, authority_sk)


def make_device_certificate(
    dinf: str, device_pk: PublicKey, uuid: bytes, mfr_cert: Document, mfr_sk: SecretKey
) -> Document:
    """Manufacturer-signed device certificate binding info, key and UUID."""
    check_manufacturer_key(mfr_sk, mfr_cert)
    if not crypto.is_uuid4(uuid):
        raise ConstraintViolation("device uuid is not a valid random UUID")
    _, mfr_id = certificate_key(mfr_cert)
    doc = Document(DOC_DEVICE, (dinf.encode(), crypto.key_bytes(device_pk), bytes(uuid), mfr_id))
    return sign(doc, mfr_sk)


def sign_firmware(fw_image: bytes, fw_meta: str, mfr_sk: SecretKey, mfr_cert: Document) -> Document:
    """Manufacturer-signed firmware document over the image digest."""
    check_manufacturer_key(mfr_sk, mfr_cert)
    _, mfr_id = certificate_key(mfr_cert)
    doc = Document(DOC_FIRMWARE, (fw_meta.encode(), crypto.digest(fw_image), mfr_id))
    return sign(doc, mfr_sk)


def make_installation_document(
    fw_doc: Document, uuid: bytes, instinfo: str, device_sk: SecretKey
) -> Document:
    """Device-signed confirmation that fw_doc's firmware was installed.

    Stores the digest of the firmware document rather than the document
    itself; the store keeps the full form, so the digest is always
    resolvable.
    """
    doc = Document(DOC_INSTALLATION, (doc_digest(fw_doc), bytes(uuid), instinfo.encode()))
    return sign(doc, device_sk)


def make_configuration_document(
    cfg_payload: bytes, uuid: bytes, seq: int, device_sk: SecretKey
) -> Document:
    """Device-signed record of the configuration payload digest."""
    if not 0 < seq <= 0xFFFFFFFFFFFFFFFF:
        raise ConstraintViolation("configuration sequence must be a positive 64-bit integer")
    doc = Document(DOC_CONFIGURATION, (crypto.digest(cfg_payload), bytes(uuid), seq.to_bytes(8, "big")))
    return sign(doc, device_sk)


def empty_configuration_document(uuid: bytes) -> Document:
    """Unsigned stand-in used before a device receives any configuration.

    seq 0 is reserved for this form, so the first real configuration must
    use seq >= 1.
    """
    return Document(DOC_CONFIGURATION, (crypto.digest(b""), bytes(uuid), (0).to_bytes(8, "big")))


def state_digest(inst_doc: Document, cfg_doc: Document | None, uuid: bytes) -> bytes:
    """Digest keying a device's firmware+configuration state.

    Shared by the device (when answering challenges) and the store (when
    indexing admitted records); both sides must concatenate identically.
    """
    cfg = cfg_doc if cfg_doc is not None else empty_configuration_document(uuid)
    return crypto.digest(encode_canonical(inst_doc) + encode_canonical(cfg))


# ---------------------------------------------------------------------------
# Chain verification
# ---------------------------------------------------------------------------

def signatures_verify(doc: Document, issuer_pk: PublicKey) -> None:
    """ChainInvalid unless doc is signed and its signature verifies under issuer_pk."""
    name = DOC_TYPE_NAMES[doc.doc_type]
    if not doc.signature:
        raise ChainInvalid(f"{name} document is unsigned")
    if doc.signature[: crypto.KEY_ID_LEN] != crypto.key_id(issuer_pk):
        raise ChainInvalid("signer hint does not match the issuing key")
    if not crypto.verify(issuer_pk, signing_payload(doc), doc.signature[crypto.KEY_ID_LEN :]):
        raise ChainInvalid(f"signature on {name} document does not verify")


def verify_chain(chain: list[Document] | tuple[Document, ...], root: Document) -> None:
    """Verify a leaf-to-root document chain against a trust anchor.

    The chain is ordered leaf first and must end with the root itself. Each
    document's signature must verify under the embedded key of the next
    document (always suite 0x01: Document refuses any other), the final
    document must byte-equal the anchor and self-verify, and identity bindings
    must hold: each document's issuer is of the type _TYPES allows and
    carries the id the document names it by (issuer_key), i.e. the
    manufacturer id or the device UUID.

    Returns None; the first failed check raises ChainInvalid with its reason.
    """
    if not chain:
        raise ChainInvalid("empty chain")

    anchor = chain[-1]
    if anchor.doc_type != DOC_ROOT:
        raise ChainInvalid("chain does not end at a root certificate")
    if encode_canonical(anchor) != encode_canonical(root):
        raise ChainInvalid("chain root differs from the trust anchor")
    try:
        signatures_verify(anchor, embedded_public_key(anchor))
    except ChainInvalid as exc:
        raise ChainInvalid(f"root does not self-verify: {exc}") from None

    for child, issuer in zip(chain, chain[1:]):
        child_name, issuer_name = DOC_TYPE_NAMES[child.doc_type], DOC_TYPE_NAMES[issuer.doc_type]
        if issuer.doc_type != _TYPES[child.doc_type].issuer:
            raise ChainInvalid(f"{issuer_name} document cannot issue {child_name} documents")
        if issuer_key(child) not in (None, certificate_key(issuer)):
            raise ChainInvalid(f"{child_name} document names another {issuer_name}")
        signatures_verify(child, embedded_public_key(issuer))
