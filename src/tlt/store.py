"""Central trust store: registration, lookups, append-only persistence.

Every record is admitted only after full chain verification against the
store's root. Its issuers come from registered records, found by following
documents.issuer_key up to the root; a missing one raises UnknownIssuer
naming its type ("device is not registered"). Store.register then admits
each document type in one branch that makes every check for that type (no
duplicate certificate, registered firmware, an installation before any
configuration, a rising configuration seq) before it writes anything, so a
rejected record leaves the store as it was. The store computes each state
digest itself from the device's latest installation and configuration and
keeps every digest a device has had, so the index is derivable from the log.

Log format (`.tltlog`): one ASCII line per record, each ending in LF,

    <kind> <seq> <lowercase hex of canonical document bytes>

<kind> is the name of the document's type (documents.DOC_TYPE_NAMES) and must
match its type byte. Sequence numbers are plain decimal, start at 0 (the root)
and increase by one per record; records are never rewritten. Loading replays
and revalidates every record and aborts with CorruptLog naming the offending
sequence number.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import crypto, documents
from .documents import Document
from .errors import (
    ChainInvalid,
    ConstraintViolation,
    CorruptLog,
    DuplicateUuid,
    NotFound,
    UnknownIssuer,
)

_DOC_TYPE_BY_KIND = {name: doc_type for doc_type, name in documents.DOC_TYPE_NAMES.items()}


@dataclass(frozen=True)
class StoreRecord:
    kind: str  # the name of doc's type
    doc: Document
    seq: int


@dataclass(frozen=True)
class DeviceView:
    """What a verifier learns about a registered device."""

    uuid: bytes
    dinf: str
    public_key: crypto.PublicKey
    mfr_info: str
    certificate: Document
    mfr_certificate: Document

    @classmethod
    def from_certificates(cls, dcrt: Document, mcrt: Document) -> DeviceView:
        """View of a device certificate and its issuer; the UUID is the certificate's."""
        return cls(
            uuid=documents.subject_uuid(dcrt),
            dinf=dcrt.field(documents.DEV_INFO).decode(errors="replace"),
            public_key=documents.embedded_public_key(dcrt),
            mfr_info=mcrt.field(documents.MFR_INFO).decode(errors="replace"),
            certificate=dcrt,
            mfr_certificate=mcrt,
        )


@dataclass(frozen=True)
class StateView:
    """What a verifier learns about a reported state digest."""

    uuid: bytes
    state_digest: bytes
    fw_meta: str
    cfg_seq: int
    current: bool
    inst_ref: int | None = None
    cfg_ref: int | None = None


class Store:
    """In-memory store over an append-only record log. Single writer."""

    def __init__(self, root: Document):
        result = documents.verify_chain([root], root)
        if not result:
            raise ChainInvalid(f"root does not self-verify: {result.reason}")
        self.root = root
        self.records: list[StoreRecord] = [StoreRecord("root", root, 0)]
        self._certs: dict[tuple[int, bytes], int] = {}  # documents.certificate_key -> seq
        self._firmware: dict[bytes, int] = {}    # doc digest -> seq
        # uuid -> (current state digest, installation seq, configuration seq or None)
        self._current: dict[bytes, tuple[bytes, int, int | None]] = {}
        # (uuid, state digest) -> (inst_ref, cfg_ref), for every state a device has had
        self._state_index: dict[tuple[bytes, bytes], tuple[int, int | None]] = {}

    # -- registration ------------------------------------------------------

    def register(self, kind: str, doc: Document) -> int:
        """Admit a document after chain verification; returns its sequence.

        kind must be the name of doc's type. Issuers are resolved from
        registered records, never supplied by the caller.
        """
        doc_type = _DOC_TYPE_BY_KIND.get(kind)
        if doc_type is None:
            raise ConstraintViolation(f"unknown record kind {kind!r}")
        if doc_type == documents.DOC_ROOT:
            raise ConstraintViolation("the root is fixed at store creation")
        if doc.doc_type != doc_type:
            raise ConstraintViolation(
                f"document type 0x{doc.doc_type:02x} does not match record kind {kind}"
            )

        intermediates = self._resolve_intermediates(doc)
        result = documents.verify_chain([doc, *intermediates, self.root], self.root)
        if not result:
            if result.constraint:
                raise ConstraintViolation(result.reason)
            raise ChainInvalid(result.reason)

        # One branch per type: every check runs before the first write.
        seq = len(self.records)
        if doc.doc_type == documents.DOC_FIRMWARE:
            self._firmware[documents.doc_digest(doc)] = seq
        elif doc.doc_type in (documents.DOC_MANUFACTURER, documents.DOC_DEVICE):
            key = documents.certificate_key(doc)
            if key in self._certs:
                if doc.doc_type == documents.DOC_DEVICE:
                    raise DuplicateUuid("a device with this UUID is already registered")
                raise ConstraintViolation("manufacturer id already registered")
            self._certs[key] = seq
        else:
            uuid = documents.subject_uuid(doc)
            _, inst_ref, cfg_ref = self._current.get(uuid, (None, None, None))
            cfg_doc = self.records[cfg_ref].doc if cfg_ref is not None else None
            if doc.doc_type == documents.DOC_INSTALLATION:
                if doc.field(documents.INST_FW_DOC_DIGEST) not in self._firmware:
                    raise ConstraintViolation("installation references unregistered firmware")
                inst_ref, inst_doc = seq, doc
            else:
                if inst_ref is None:
                    raise ConstraintViolation("no installation registered for this device")
                latest_seq = documents.config_seq(cfg_doc) if cfg_doc is not None else 0
                if documents.config_seq(doc) <= latest_seq:
                    raise ConstraintViolation(f"configuration sequence must exceed {latest_seq}")
                inst_doc, cfg_ref, cfg_doc = self.records[inst_ref].doc, seq, doc
            digest = documents.state_digest(inst_doc, cfg_doc, uuid)
            self._state_index[(uuid, digest)] = (inst_ref, cfg_ref)
            self._current[uuid] = (digest, inst_ref, cfg_ref)
        self.records.append(StoreRecord(kind, doc, seq))
        return seq

    def _resolve_intermediates(self, doc: Document) -> list[Document]:
        """The registered certificates between doc and the root, nearest first."""
        chain = []
        key = documents.issuer_key(doc)
        while key is not None:
            seq = self._certs.get(key)
            if seq is None:
                raise UnknownIssuer(f"{documents.DOC_TYPE_NAMES[key[0]]} is not registered")
            chain.append(self.records[seq].doc)
            key = documents.issuer_key(chain[-1])
        return chain

    # -- lookups -----------------------------------------------------------

    def lookup_device(self, uuid: bytes) -> DeviceView:
        seq = self._certs.get((documents.DOC_DEVICE, bytes(uuid)))
        if seq is None:
            raise NotFound("unknown device UUID")
        dcrt = self.records[seq].doc
        return DeviceView.from_certificates(dcrt, *self._resolve_intermediates(dcrt))

    def lookup_state(self, uuid: bytes, state_digest: bytes) -> StateView:
        refs = self._state_index.get((bytes(uuid), bytes(state_digest)))
        if refs is None:
            raise NotFound("no state entry for this digest")
        inst_ref, cfg_ref = refs
        inst_doc = self.records[inst_ref].doc
        fw_seq = self._firmware[inst_doc.field(documents.INST_FW_DOC_DIGEST)]
        fw_meta = self.records[fw_seq].doc.field(documents.FW_META).decode(errors="replace")
        cfg_seq = (
            documents.config_seq(self.records[cfg_ref].doc)
            if cfg_ref is not None
            else 0
        )
        return StateView(
            uuid=bytes(uuid),
            state_digest=bytes(state_digest),
            fw_meta=fw_meta,
            cfg_seq=cfg_seq,
            current=self._current.get(bytes(uuid), (None,))[0] == bytes(state_digest),
            inst_ref=inst_ref,
            cfg_ref=cfg_ref,
        )

    def current_state_digest(self, uuid: bytes) -> bytes:
        """Latest state digest the store expects for a device."""
        current = self._current.get(bytes(uuid))
        if current is None:
            raise NotFound("no state registered for this device")
        return current[0]

    # -- persistence -------------------------------------------------------

    def persist(self, path) -> None:
        lines = [
            f"{rec.kind} {rec.seq} {documents.encode_canonical(rec.doc).hex()}"
            for rec in self.records
        ]
        Path(path).write_text("\n".join(lines) + "\n")


def load_store(path) -> Store:
    """Replay and revalidate a record log; CorruptLog on any failure."""
    lines = Path(path).read_bytes().split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if not lines:
        raise CorruptLog("empty store log", seq=0)

    store: Store | None = None
    for i, line in enumerate(lines):
        try:  # UnicodeDecodeError is a ValueError too
            kind, seq_text, hex_text = line.decode("ascii").split(" ")
        except ValueError:
            raise CorruptLog(f"record {i}: malformed line", seq=i) from None
        if seq_text != str(i):
            raise CorruptLog(f"record {i}: bad sequence number {seq_text!r}", seq=i)
        if not _is_lower_hex(hex_text):
            raise CorruptLog(f"record {i}: document bytes are not lowercase hex", seq=i)
        try:
            doc = documents.decode(bytes.fromhex(hex_text))
        except Exception as exc:
            raise CorruptLog(f"record {i}: {exc}", seq=i) from None

        if i == 0:
            if kind != "root":
                raise CorruptLog("record 0: log must begin with the root", seq=0)
            try:
                store = Store(doc)
            except Exception as exc:
                raise CorruptLog(f"record 0: {exc}", seq=0) from None
        else:
            try:
                store.register(kind, doc)
            except Exception as exc:
                raise CorruptLog(f"record {i}: {exc}", seq=i) from None
    return store


def _is_lower_hex(s: str) -> bool:
    return len(s) > 0 and len(s) % 2 == 0 and all(c in "0123456789abcdef" for c in s)
