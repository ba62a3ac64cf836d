"""Central trust store: registration, lookups, append-only persistence.

Every record is admitted only after full chain verification against the
store's root, with issuers resolved from already-registered records. State
index entries are recomputed by the store itself at admission time from the
latest installation and configuration for a UUID, so the index is always
derivable from the log.

Log format (`.tltlog`): one record per line,

    <kind> <seq> <lowercase hex of canonical document bytes>

Sequence numbers start at 0 (the root) and increase by one per record;
records are never rewritten. Loading replays and revalidates every record
and aborts with CorruptLog naming the offending sequence number.
"""

from __future__ import annotations

import enum
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

STORE_FILE_EXT = ".tltlog"


class RecordKind(enum.Enum):
    ROOT = "root"
    MANUFACTURER = "manufacturer"
    DEVICE = "device"
    FIRMWARE = "firmware"
    INSTALLATION = "installation"
    CONFIGURATION = "configuration"


_KIND_TO_DOC_TYPE = {
    RecordKind.ROOT: documents.DOC_ROOT,
    RecordKind.MANUFACTURER: documents.DOC_MANUFACTURER,
    RecordKind.DEVICE: documents.DOC_DEVICE,
    RecordKind.FIRMWARE: documents.DOC_FIRMWARE,
    RecordKind.INSTALLATION: documents.DOC_INSTALLATION,
    RecordKind.CONFIGURATION: documents.DOC_CONFIGURATION,
}
_KIND_BY_NAME = {k.value: k for k in RecordKind}


@dataclass(frozen=True)
class StoreRecord:
    kind: RecordKind
    doc: Document
    seq: int


@dataclass(frozen=True)
class DeviceView:
    """What a verifier learns about a registered device."""

    uuid: bytes
    dinf: str
    public_key: crypto.PublicKey
    mfr_id: bytes
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
            mfr_id=dcrt.field(documents.DEV_MFR_ID),
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


@dataclass(frozen=True)
class StateIndexEntry:
    uuid: bytes
    state_digest: bytes
    inst_ref: int
    cfg_ref: int | None


class Store:
    """In-memory store over an append-only record log. Single writer."""

    def __init__(self, root: Document):
        result = documents.verify_chain([root], root)
        if not result:
            raise ChainInvalid(f"root does not self-verify: {result.reason}")
        self.root = root
        self.records: list[StoreRecord] = [StoreRecord(RecordKind.ROOT, root, 0)]
        self._mfrs: dict[bytes, int] = {}        # mfr_id -> seq
        self._devices: dict[bytes, int] = {}     # uuid -> seq
        self._firmware: dict[bytes, int] = {}    # doc digest -> seq
        self._latest_inst: dict[bytes, int] = {} # uuid -> seq
        self._latest_cfg: dict[bytes, int] = {}  # uuid -> seq
        self._state_index: dict[tuple[bytes, bytes], StateIndexEntry] = {}
        self._current_state: dict[bytes, bytes] = {}

    # -- registration ------------------------------------------------------

    def register(self, kind: RecordKind | str, doc: Document) -> int:
        """Admit a document after chain verification; returns its sequence.

        Issuers are resolved from registered records, never supplied by the
        caller.
        """
        if isinstance(kind, str):
            if kind not in _KIND_BY_NAME:
                raise ConstraintViolation(f"unknown record kind {kind!r}")
            kind = _KIND_BY_NAME[kind]
        if kind == RecordKind.ROOT:
            raise ConstraintViolation("the root is fixed at store creation")
        if doc.doc_type != _KIND_TO_DOC_TYPE[kind]:
            raise ConstraintViolation(
                f"document type 0x{doc.doc_type:02x} does not match record kind {kind.value}"
            )

        intermediates = self._resolve_intermediates(kind, doc)
        result = documents.verify_chain([doc, *intermediates, self.root], self.root)
        if not result:
            if result.constraint:
                raise ConstraintViolation(result.reason)
            raise ChainInvalid(result.reason)

        self._check_admission_constraints(kind, doc)
        seq = len(self.records)
        self.records.append(StoreRecord(kind, doc, seq))
        self._index_record(kind, doc, seq)
        return seq

    def _resolve_intermediates(self, kind: RecordKind, doc: Document) -> list[Document]:
        if kind == RecordKind.MANUFACTURER:
            return []
        if kind in (RecordKind.DEVICE, RecordKind.FIRMWARE):
            mfr_seq = self._mfrs.get(documents.issuer_id(doc))
            if mfr_seq is None:
                raise UnknownIssuer("manufacturer is not registered")
            return [self.records[mfr_seq].doc]
        # installation / configuration chain through their device certificate
        dev_seq = self._devices.get(documents.subject_uuid(doc))
        if dev_seq is None:
            raise UnknownIssuer("device is not registered")
        dcrt = self.records[dev_seq].doc
        mfr_seq = self._mfrs.get(documents.issuer_id(dcrt))
        if mfr_seq is None:  # pragma: no cover - devices only admit under registered mfrs
            raise UnknownIssuer("manufacturer is not registered")
        return [dcrt, self.records[mfr_seq].doc]

    def _check_admission_constraints(self, kind: RecordKind, doc: Document) -> None:
        if kind == RecordKind.MANUFACTURER:
            if doc.field(documents.MFR_ID) in self._mfrs:
                raise ConstraintViolation("manufacturer id already registered")
        elif kind == RecordKind.DEVICE:
            if documents.subject_uuid(doc) in self._devices:
                raise DuplicateUuid("a device with this UUID is already registered")
        elif kind == RecordKind.INSTALLATION:
            if doc.field(documents.INST_FW_DOC_DIGEST) not in self._firmware:
                raise ConstraintViolation("installation references unregistered firmware")
        elif kind == RecordKind.CONFIGURATION:
            uuid = documents.subject_uuid(doc)
            if uuid not in self._latest_inst:
                raise ConstraintViolation("no installation registered for this device")
            latest = self._latest_cfg.get(uuid)
            latest_seq = documents.config_seq(self.records[latest].doc) if latest is not None else 0
            if documents.config_seq(doc) <= latest_seq:
                raise ConstraintViolation(
                    f"configuration sequence must exceed {latest_seq}"
                )

    def _index_record(self, kind: RecordKind, doc: Document, seq: int) -> None:
        if kind == RecordKind.MANUFACTURER:
            self._mfrs[doc.field(documents.MFR_ID)] = seq
        elif kind == RecordKind.DEVICE:
            self._devices[documents.subject_uuid(doc)] = seq
        elif kind == RecordKind.FIRMWARE:
            self._firmware[documents.doc_digest(doc)] = seq
        elif kind == RecordKind.INSTALLATION:
            self._latest_inst[documents.subject_uuid(doc)] = seq
            self._update_state_index(documents.subject_uuid(doc))
        elif kind == RecordKind.CONFIGURATION:
            self._latest_cfg[documents.subject_uuid(doc)] = seq
            self._update_state_index(documents.subject_uuid(doc))

    def _update_state_index(self, uuid: bytes) -> None:
        inst_ref = self._latest_inst[uuid]
        cfg_ref = self._latest_cfg.get(uuid)
        inst_doc = self.records[inst_ref].doc
        cfg_doc = self.records[cfg_ref].doc if cfg_ref is not None else None
        digest = documents.state_digest(inst_doc, cfg_doc, uuid)
        self._state_index[(uuid, digest)] = StateIndexEntry(uuid, digest, inst_ref, cfg_ref)
        self._current_state[uuid] = digest

    # -- lookups -----------------------------------------------------------

    def lookup_device(self, uuid: bytes) -> DeviceView:
        seq = self._devices.get(bytes(uuid))
        if seq is None:
            raise NotFound("unknown device UUID")
        dcrt = self.records[seq].doc
        mcrt = self.records[self._mfrs[documents.issuer_id(dcrt)]].doc
        return DeviceView.from_certificates(dcrt, mcrt)

    def lookup_state(self, uuid: bytes, state_digest: bytes) -> StateView:
        entry = self._state_index.get((bytes(uuid), bytes(state_digest)))
        if entry is None:
            raise NotFound("no state entry for this digest")
        inst_doc = self.records[entry.inst_ref].doc
        fw_seq = self._firmware[inst_doc.field(documents.INST_FW_DOC_DIGEST)]
        fw_meta = self.records[fw_seq].doc.field(documents.FW_META).decode(errors="replace")
        cfg_seq = (
            documents.config_seq(self.records[entry.cfg_ref].doc)
            if entry.cfg_ref is not None
            else 0
        )
        return StateView(
            uuid=bytes(uuid),
            state_digest=bytes(state_digest),
            fw_meta=fw_meta,
            cfg_seq=cfg_seq,
            current=self._current_state.get(bytes(uuid)) == bytes(state_digest),
            inst_ref=entry.inst_ref,
            cfg_ref=entry.cfg_ref,
        )

    def current_state_digest(self, uuid: bytes) -> bytes:
        """Latest state digest the store expects for a device."""
        digest = self._current_state.get(bytes(uuid))
        if digest is None:
            raise NotFound("no state registered for this device")
        return digest

    def state_entries(self) -> list[StateIndexEntry]:
        return list(self._state_index.values())

    # -- persistence -------------------------------------------------------

    def persist(self, path) -> None:
        lines = [
            f"{rec.kind.value} {rec.seq} {documents.encode_canonical(rec.doc).hex()}"
            for rec in self.records
        ]
        Path(path).write_text("\n".join(lines) + "\n")


def load_store(path) -> Store:
    """Replay and revalidate a record log; CorruptLog on any failure."""
    text = Path(path).read_text()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CorruptLog("empty store log", seq=0)

    store: Store | None = None
    for i, line in enumerate(lines):
        try:
            kind_name, seq_text, hex_text = line.split(" ")
        except ValueError:
            raise CorruptLog(f"record {i}: malformed line", seq=i) from None
        kind = _KIND_BY_NAME.get(kind_name)
        if kind is None:
            raise CorruptLog(f"record {i}: unknown kind {kind_name!r}", seq=i)
        if not seq_text.isdigit() or int(seq_text) != i:
            raise CorruptLog(f"record {i}: bad sequence number {seq_text!r}", seq=i)
        if not _is_lower_hex(hex_text):
            raise CorruptLog(f"record {i}: document bytes are not lowercase hex", seq=i)
        try:
            doc = documents.decode(bytes.fromhex(hex_text))
        except Exception as exc:
            raise CorruptLog(f"record {i}: {exc}", seq=i) from None

        if i == 0:
            if kind != RecordKind.ROOT:
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
