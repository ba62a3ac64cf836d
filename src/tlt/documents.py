"""Canonical documents and chain-of-trust verification.

Every signed artefact in the ecosystem (certificates, firmware documents,
installation and configuration proofs) is a Document: a type tag, an ordered
field list, and zero or more appended signatures. A Document is well-formed by
construction: its constructor raises MalformedDocument unless the fields are
exactly its type's layout (_REQUIRED_FIELDS) and every key field names suite
0x01, so every document read from disk, a socket or a `.tltdev` file fails
closed where it is decoded. verify_chain, the one chain-of-trust check,
returns None or raises ChainInvalid naming the first check that failed.

Wire format (the `.tltdoc` file content is exactly these bytes):

    doc_type     1 byte   (0x01..0x06)
    field_count  1 byte
    fields       field_count times: tag(1) || length(4, big-endian) || value
    signatures   repeated to end: signer_hint(16) || signature(64)

Field tags are strictly ascending within a document, so the encoding is
injective and byte-stable. Signature i covers the canonical encoding of the
doc_type, all fields, and signatures 0..i-1, i.e. the byte prefix that
precedes it. The signer hint is the key id of the signing key and is checked
during verification, so every byte of a document is covered by some check.

Reader and prefixed are the one way binary formats (documents, `.tltdev`
files, store answers) are read and written; Reader fails closed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

from . import crypto
from .crypto import PublicKey, SecretKey
from .errors import ChainInvalid, ConstraintViolation, InvalidKey, MalformedDocument

DOC_ROOT = 0x01
DOC_MANUFACTURER = 0x02
DOC_DEVICE = 0x03
DOC_FIRMWARE = 0x04
DOC_INSTALLATION = 0x05
DOC_CONFIGURATION = 0x06

DOC_TYPE_NAMES = {
    DOC_ROOT: "root",
    DOC_MANUFACTURER: "manufacturer",
    DOC_DEVICE: "device",
    DOC_FIRMWARE: "firmware",
    DOC_INSTALLATION: "installation",
    DOC_CONFIGURATION: "configuration",
}

# Field tags, per document type. Tags are meaningful only together with the
# doc_type; numbering restarts at 0x01 for each type and stays ascending.
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
SIG_ENTRY_LEN = crypto.KEY_ID_LEN + crypto.SIGNATURE_LEN
_SIG_ENTRY = struct.Struct(f"{crypto.KEY_ID_LEN}s{crypto.SIGNATURE_LEN}s")  # signer_hint || signature
_PK_FIELD_LEN = 1 + crypto.PUBLIC_KEY_LEN
_U32 = struct.Struct(">I")

# The chain of trust's shape: child doc_type -> (the only doc_type that may
# issue (sign) it, the child's tag naming that issuer, the issuer's tag holding
# the same id). The root names no issuer: it is the one trust anchor.
_ISSUERS = {
    DOC_MANUFACTURER: (DOC_ROOT, None, None),
    DOC_DEVICE: (DOC_MANUFACTURER, DEV_MFR_ID, MFR_ID),
    DOC_FIRMWARE: (DOC_MANUFACTURER, FW_MFR_ID, MFR_ID),
    DOC_INSTALLATION: (DOC_DEVICE, INST_UUID, DEV_UUID),
    DOC_CONFIGURATION: (DOC_DEVICE, CFG_UUID, DEV_UUID),
}
# issuing doc_type -> tag of the id its children name it by
_CERTIFICATE_ID_TAG = {issuer: tag for issuer, _, tag in _ISSUERS.values() if tag is not None}

# doc_type -> tag of the embedded public key, for types that carry one
_EMBEDDED_KEY_TAG = {
    DOC_ROOT: ROOT_PUBKEY,
    DOC_MANUFACTURER: MFR_PUBKEY,
    DOC_DEVICE: DEV_PUBKEY,
}

# doc_type -> exact required field layout: (tag, fixed_length or None)
_REQUIRED_FIELDS = {
    DOC_ROOT: ((ROOT_INFO, None), (ROOT_PUBKEY, _PK_FIELD_LEN)),
    DOC_MANUFACTURER: ((MFR_INFO, None), (MFR_ID, MFR_ID_LEN), (MFR_PUBKEY, _PK_FIELD_LEN)),
    DOC_DEVICE: (
        (DEV_INFO, None),
        (DEV_PUBKEY, _PK_FIELD_LEN),
        (DEV_UUID, crypto.UUID_LEN),
        (DEV_MFR_ID, MFR_ID_LEN),
    ),
    DOC_FIRMWARE: ((FW_META, None), (FW_IMAGE_DIGEST, crypto.DIGEST_LEN), (FW_MFR_ID, MFR_ID_LEN)),
    DOC_INSTALLATION: (
        (INST_FW_DOC_DIGEST, crypto.DIGEST_LEN),
        (INST_UUID, crypto.UUID_LEN),
        (INST_INFO, None),
    ),
    DOC_CONFIGURATION: (
        (CFG_DIGEST, crypto.DIGEST_LEN),
        (CFG_UUID, crypto.UUID_LEN),
        (CFG_SEQ, 8),
    ),
}

DOC_FILE_EXT = ".tltdoc"


@dataclass(frozen=True)
class Document:
    """Canonical signed artefact. Immutable; signing returns a new value.

    Well-formed by construction: the fields follow _REQUIRED_FIELDS[doc_type]
    tag for tag, at their fixed lengths, a key field is suite 0x01 (Ed25519)
    followed by its key, a device certificate's UUID is a version-4 UUID, and
    each signature entry is signer_hint(16) || signature(64). Anything else
    raises MalformedDocument, so embedded_public_key never fails on a Document.
    """

    doc_type: int
    fields: tuple[tuple[int, bytes], ...]
    signatures: tuple[tuple[bytes, bytes], ...] = ()

    def __post_init__(self):
        layout = _REQUIRED_FIELDS.get(self.doc_type)
        if layout is None:
            raise MalformedDocument(f"unknown doc_type 0x{self.doc_type:02x}")
        name = DOC_TYPE_NAMES[self.doc_type]
        if len(self.fields) != len(layout):
            raise MalformedDocument(f"{name} document has wrong field count")
        for (tag, value), (want_tag, want_len) in zip(self.fields, layout):
            if tag != want_tag:
                raise MalformedDocument(f"{name} document missing field 0x{want_tag:02x}")
            if want_len is not None and len(value) != want_len:
                raise MalformedDocument(f"field 0x{tag:02x} has wrong length")
        key_tag = _EMBEDDED_KEY_TAG.get(self.doc_type)
        if key_tag is not None and (suite := self.field(key_tag)[0]) != crypto.SUITE_ED25519_SHA256:
            raise MalformedDocument(f"{name} key has unsupported suite 0x{suite:02x}")
        if self.doc_type == DOC_DEVICE and not crypto.is_uuid4(self.field(DEV_UUID)):
            raise MalformedDocument("device uuid is not a valid random UUID")
        for hint, sig in self.signatures:
            if len(hint) != crypto.KEY_ID_LEN or len(sig) != crypto.SIGNATURE_LEN:
                raise MalformedDocument("malformed signature entry")

    def field(self, tag: int) -> bytes:
        for t, value in self.fields:
            if t == tag:
                return value
        raise MalformedDocument(f"no field 0x{tag:02x} in {DOC_TYPE_NAMES[self.doc_type]} document")


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

def prefixed(value: bytes) -> bytes:
    """len(value) as 4 big-endian bytes, then value: what Reader.prefixed reads."""
    return len(value).to_bytes(4, "big") + value


class Reader:
    """Bounds-checked cursor over untrusted bytes; any misread raises MalformedDocument."""

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
        pos = self._pos
        if pos >= len(self._data):
            raise MalformedDocument(f"truncated: 1 byte wanted at offset {pos}")
        self._pos = pos + 1
        return self._data[pos]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def prefixed(self) -> bytes:
        # Checks bounds itself, as u8 does, since decode calls both once per field.
        data, pos = self._data, self._pos
        end = pos + 4
        if end <= len(data):
            end += _U32.unpack_from(data, pos)[0]
        if end > len(data):
            raise MalformedDocument(f"truncated: length-prefixed value at offset {pos}")
        self._pos = end
        return data[pos + 4 : end]

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


def encode_canonical(doc: Document) -> bytes:
    """Deterministic byte encoding; every Document has one."""
    return _encode(doc, len(doc.signatures))


def signing_payload(doc: Document, num_signatures: int) -> bytes:
    """The bytes covered by signature number num_signatures (0-based)."""
    return _encode(doc, num_signatures)


def _encode(doc: Document, num_signatures: int) -> bytes:
    out = bytearray([doc.doc_type, len(doc.fields)])
    for tag, value in doc.fields:
        out.append(tag)
        out += prefixed(value)
    for hint, sig in doc.signatures[:num_signatures]:
        out += hint
        out += sig
    return bytes(out)


def decode(data: bytes) -> Document:
    """Exact inverse of encode_canonical; raises MalformedDocument otherwise."""
    r = Reader(data)
    doc_type, field_count = r.take(2)
    fields = tuple((r.u8(), r.prefixed()) for _ in range(field_count))
    entries = r.rest()
    if len(entries) % SIG_ENTRY_LEN != 0:
        raise MalformedDocument("trailing bytes are not whole signature entries")
    return Document(doc_type, fields, tuple(_SIG_ENTRY.iter_unpack(entries)))


def append_signature(doc: Document, sk: SecretKey) -> Document:
    """Sign the document's current canonical bytes and append the signature."""
    pk = crypto.public_key_of(sk)
    sig = crypto.sign(sk, signing_payload(doc, len(doc.signatures)))
    return Document(doc.doc_type, doc.fields, doc.signatures + ((crypto.key_id(pk), sig),))


def doc_digest(doc: Document) -> bytes:
    """Digest of the full canonical encoding (identity of a document)."""
    return crypto.digest(encode_canonical(doc))


def save_document(doc: Document, path) -> None:
    Path(path).write_bytes(encode_canonical(doc))


def load_document(path) -> Document:
    return decode(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# Field helpers
# ---------------------------------------------------------------------------

def embedded_public_key(doc: Document) -> PublicKey:
    """Public key carried by a certificate-type document."""
    tag = _EMBEDDED_KEY_TAG.get(doc.doc_type)
    if tag is None:
        raise MalformedDocument(f"{DOC_TYPE_NAMES[doc.doc_type]} documents carry no key")
    raw = doc.field(tag)  # Document fixes its length and suite
    return PublicKey(raw[0], raw[1:])


def _pk_field(pk: PublicKey) -> bytes:
    return bytes([pk.suite_id]) + pk.data


def issuer_key(doc: Document) -> tuple[int, bytes] | None:
    """(doc_type, id) of the certificate that must sign doc; None if the root signs it or it is the root."""
    issuer_type, tag, _ = _ISSUERS.get(doc.doc_type, (None, None, None))
    return None if tag is None else (issuer_type, doc.field(tag))


def certificate_key(doc: Document) -> tuple[int, bytes] | None:
    """(doc_type, id) under which a manufacturer or device certificate is found, else None."""
    tag = _CERTIFICATE_ID_TAG.get(doc.doc_type)
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

def _unsigned(doc_type: int, *values: bytes) -> Document:
    """Unsigned document whose field values follow _REQUIRED_FIELDS[doc_type] in order."""
    layout = _REQUIRED_FIELDS[doc_type]
    return Document(doc_type, tuple((tag, value) for (tag, _), value in zip(layout, values, strict=True)))


def check_manufacturer_key(mfr_sk: SecretKey, mfr_cert: Document) -> None:
    """InvalidKey unless mfr_cert is a manufacturer certificate for mfr_sk's public key."""
    if mfr_cert.doc_type != DOC_MANUFACTURER or crypto.public_key_of(mfr_sk) != embedded_public_key(mfr_cert):
        raise InvalidKey("secret key does not match the manufacturer certificate")


def make_root_certificate(info: str, public_key: PublicKey, secret_key: SecretKey) -> Document:
    """Self-signed root anchoring all chain verification."""
    if crypto.public_key_of(secret_key) != public_key:
        raise InvalidKey("secret key does not match the authority public key")
    return append_signature(_unsigned(DOC_ROOT, info.encode(), _pk_field(public_key)), secret_key)


def make_manufacturer_certificate(
    mfr_info: str, mfr_pk: PublicKey, authority_sk: SecretKey, rng=None
) -> Document:
    """Authority-signed manufacturer certificate with a fresh 16-byte id."""
    mfr_id = crypto.random_bytes(MFR_ID_LEN, rng)
    doc = _unsigned(DOC_MANUFACTURER, mfr_info.encode(), mfr_id, _pk_field(mfr_pk))
    return append_signature(doc, authority_sk)


def make_device_certificate(
    dinf: str, device_pk: PublicKey, uuid: bytes, mfr_cert: Document, mfr_sk: SecretKey
) -> Document:
    """Manufacturer-signed device certificate binding info, key and UUID."""
    check_manufacturer_key(mfr_sk, mfr_cert)
    if not crypto.is_uuid4(uuid):
        raise ConstraintViolation("device uuid is not a valid random UUID")
    _, mfr_id = certificate_key(mfr_cert)
    doc = _unsigned(DOC_DEVICE, dinf.encode(), _pk_field(device_pk), bytes(uuid), mfr_id)
    return append_signature(doc, mfr_sk)


def sign_firmware(fw_image: bytes, fw_meta: str, mfr_sk: SecretKey, mfr_cert: Document) -> Document:
    """Manufacturer-signed firmware document over the image digest."""
    check_manufacturer_key(mfr_sk, mfr_cert)
    _, mfr_id = certificate_key(mfr_cert)
    doc = _unsigned(DOC_FIRMWARE, fw_meta.encode(), crypto.digest(fw_image), mfr_id)
    return append_signature(doc, mfr_sk)


def make_installation_document(
    fw_doc: Document, uuid: bytes, instinfo: str, device_sk: SecretKey
) -> Document:
    """Device-signed confirmation that fw_doc's firmware was installed.

    Stores the digest of the firmware document rather than the document
    itself; the store keeps the full form, so the digest is always
    resolvable.
    """
    doc = _unsigned(DOC_INSTALLATION, doc_digest(fw_doc), bytes(uuid), instinfo.encode())
    return append_signature(doc, device_sk)


def make_configuration_document(
    cfg_payload: bytes, uuid: bytes, seq: int, device_sk: SecretKey
) -> Document:
    """Device-signed record of the configuration payload digest."""
    if not 0 < seq <= 0xFFFFFFFFFFFFFFFF:
        raise ValueError("configuration sequence must be a positive 64-bit integer")
    doc = _unsigned(DOC_CONFIGURATION, crypto.digest(cfg_payload), bytes(uuid), seq.to_bytes(8, "big"))
    return append_signature(doc, device_sk)


def empty_configuration_document(uuid: bytes) -> Document:
    """Unsigned stand-in used before a device receives any configuration.

    seq 0 is reserved for this form, so the first real configuration must
    use seq >= 1.
    """
    return _unsigned(DOC_CONFIGURATION, crypto.digest(b""), bytes(uuid), (0).to_bytes(8, "big"))


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
    """ChainInvalid unless doc is signed and every signature verifies under issuer_pk."""
    if not doc.signatures:
        raise ChainInvalid(f"{DOC_TYPE_NAMES[doc.doc_type]} document is unsigned")
    want_hint = crypto.key_id(issuer_pk)
    for i, (hint, sig) in enumerate(doc.signatures):
        if hint != want_hint:
            raise ChainInvalid("signer hint does not match the issuing key")
        if not crypto.verify(issuer_pk, signing_payload(doc, i), sig):
            raise ChainInvalid(f"signature {i} on {DOC_TYPE_NAMES[doc.doc_type]} document does not verify")


def verify_chain(chain: list[Document] | tuple[Document, ...], root: Document) -> None:
    """Verify a leaf-to-root document chain against a trust anchor.

    The chain is ordered leaf first and must end with the root itself. Each
    document's signatures must verify under the embedded key of the next
    document (always suite 0x01: Document refuses any other), the final
    document must byte-equal the anchor and self-verify, and identity bindings
    must hold: each document's issuer is of the type _ISSUERS allows and
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
    if len(anchor.signatures) != 1:
        raise ChainInvalid("root certificate must carry exactly one signature")
    try:
        signatures_verify(anchor, embedded_public_key(anchor))
    except ChainInvalid as exc:
        raise ChainInvalid(f"root does not self-verify: {exc}") from None

    for child, issuer in zip(chain, chain[1:]):
        if issuer.doc_type != _ISSUERS.get(child.doc_type, (None,))[0]:
            raise ChainInvalid(
                f"{DOC_TYPE_NAMES[issuer.doc_type]} document cannot issue "
                f"{DOC_TYPE_NAMES[child.doc_type]} documents"
            )
        if issuer_key(child) not in (None, certificate_key(issuer)):
            child_name, issuer_name = DOC_TYPE_NAMES[child.doc_type], DOC_TYPE_NAMES[issuer.doc_type]
            raise ChainInvalid(f"{child_name} document names another {issuer_name}")
        signatures_verify(child, embedded_public_key(issuer))
