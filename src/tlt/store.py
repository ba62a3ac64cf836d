"""Central trust store: registration, lookups, append-only persistence.

Every record is admitted only after full chain verification against the
store's root. Its issuers come from registered records, found by following
documents.issuer_key up to the root; a missing one raises UnknownIssuer
naming its type ("device is not registered"). Store.register then admits
each document type in one branch that makes every check for that type (no
duplicate certificate or firmware, registered firmware, an installation
before any configuration, a rising configuration seq) before it writes
anything, so a rejected record leaves the store as it was. The store
computes each state digest itself from the device's latest installation and
configuration and keeps every digest a device has had, so the index is
derivable from the log.

Log format (`.tltlog`): one ASCII line per record, each ending in LF,

    <kind> <seq> <lowercase hex of canonical document bytes>

<kind> is the name of the document's type (documents.DOC_TYPE_NAMES) and must
match its type byte. Sequence numbers are plain decimal, start at 0 (the root)
and increase by one per record; records are never rewritten. Loading streams
the log one line at a time, replaying and revalidating each record as it is
read, and aborts with CorruptLog naming the offending sequence number
(FileUnreadable if the log cannot be opened); it never holds the whole log
text. Store.persist rewrites the whole file atomically: a sibling temp file
renamed over the old log (documents.write_files), so a concurrent load sees
the old log or the new one, never a torn one. CLI writers serialize on a lock
across load, register and persist, so none loses another's record.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import crypto, documents
from .documents import Document
from .errors import ConstraintViolation, CorruptLog, DuplicateUuid, FileUnreadable, NotFound, TltError, UnknownIssuer

_DOC_TYPE_BY_KIND = {name: doc_type for doc_type, name in documents.DOC_TYPE_NAMES.items()}


@dataclass(frozen=True)
class DeviceView:
    """What a verifier learns about a registered device: its certificate chain, and so its key."""

    certificate: Document
    mfr_certificate: Document

    @functools.cached_property
    def public_key(self) -> crypto.PublicKey:
        return documents.embedded_public_key(self.certificate)


@dataclass(frozen=True)
class StateView:
    """What a verifier learns about a reported state digest."""

    current: bool
    fw_meta: str


class Store:
    """In-memory store over an append-only record log. Single writer."""

    def __init__(self, root: Document):
        documents.verify_chain([root], root)
        self.root = root
        self.records: list[Document] = [root]  # a record's seq is its index
        self._certs: dict[tuple[int, bytes], int] = {}  # documents.certificate_key -> seq
        self._firmware: dict[bytes, int] = {}    # doc digest -> seq
        # uuid -> (current state digest, installation seq, configuration seq or None)
        self._current: dict[bytes, tuple[bytes, int, int | None]] = {}
        # (uuid, state digest) -> installation seq, for every state a device has had
        self._state_index: dict[tuple[bytes, bytes], int] = {}

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

        documents.verify_chain([doc, *self._resolve_intermediates(doc), self.root], self.root)

        # One branch per type: every check runs before the first write.
        seq = len(self.records)
        if doc.doc_type == documents.DOC_FIRMWARE:
            digest = documents.doc_digest(doc)
            if digest in self._firmware:
                raise ConstraintViolation("firmware already registered")
            self._firmware[digest] = seq
        elif (key := documents.certificate_key(doc)) is not None:
            if key in self._certs:
                if doc.doc_type == documents.DOC_DEVICE:
                    raise DuplicateUuid("a device with this UUID is already registered")
                raise ConstraintViolation("manufacturer id already registered")
            self._certs[key] = seq
        else:
            uuid = documents.subject_uuid(doc)
            _, inst_ref, cfg_ref = self._current.get(uuid, (None, None, None))
            cfg_doc = self.records[cfg_ref] if cfg_ref is not None else None
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
                inst_doc, cfg_ref, cfg_doc = self.records[inst_ref], seq, doc
            digest = documents.state_digest(inst_doc, cfg_doc, uuid)
            self._state_index[(uuid, digest)] = inst_ref
            self._current[uuid] = (digest, inst_ref, cfg_ref)
        self.records.append(doc)
        return seq

    def _resolve_intermediates(self, doc: Document) -> list[Document]:
        """The registered certificates between doc and the root, nearest first."""
        chain = []
        key = documents.issuer_key(doc)
        while key is not None:
            seq = self._certs.get(key)
            if seq is None:
                raise UnknownIssuer(f"{documents.DOC_TYPE_NAMES[key[0]]} is not registered")
            chain.append(self.records[seq])
            key = documents.issuer_key(chain[-1])
        return chain

    # -- lookups -----------------------------------------------------------

    def lookup_device(self, uuid: bytes) -> DeviceView:
        seq = self._certs.get((documents.DOC_DEVICE, bytes(uuid)))
        if seq is None:
            raise NotFound("unknown device UUID")
        dcrt = self.records[seq]
        return DeviceView(dcrt, *self._resolve_intermediates(dcrt))

    def lookup_state(self, uuid: bytes, state_digest: bytes) -> StateView:
        uuid, state_digest = bytes(uuid), bytes(state_digest)
        inst_seq = self._state_index.get((uuid, state_digest))
        if inst_seq is None:
            raise NotFound("no state entry for this digest")
        fw_seq = self._firmware[self.records[inst_seq].field(documents.INST_FW_DOC_DIGEST)]
        return StateView(
            current=self._current[uuid][0] == state_digest,
            fw_meta=self.records[fw_seq].field(documents.FW_META).decode(errors="replace"),
        )

    def current_state_digest(self, uuid: bytes) -> bytes:
        """Latest state digest the store expects for a device."""
        current = self._current.get(bytes(uuid))
        if current is None:
            raise NotFound("no state registered for this device")
        return current[0]

    # -- persistence -------------------------------------------------------

    def persist(self, path) -> None:
        log = "".join(
            f"{documents.DOC_TYPE_NAMES[doc.doc_type]} {seq} {documents.encode_canonical(doc).hex()}\n"
            for seq, doc in enumerate(self.records)
        )
        documents.write_files({path: log.encode()}, replace=True)


def load_store(path) -> Store:
    """Replay and revalidate a record log; CorruptLog on a refused record, a program fault propagates."""
    store: Store | None = None
    try:
        log = open(path, "rb")
    except OSError as exc:
        raise FileUnreadable(exc) from None
    with log:
        for i, line in enumerate(log):
            try:  # UnicodeDecodeError is a ValueError too
                kind, seq_text, hex_text = line.removesuffix(b"\n").decode("ascii").split(" ")
            except ValueError:
                raise CorruptLog(f"record {i}: malformed line", seq=i) from None
            if seq_text != str(i):
                raise CorruptLog(f"record {i}: bad sequence number {seq_text!r}", seq=i)
            try:
                raw = bytes.fromhex(hex_text)
            except ValueError:
                raw = b""
            if not raw or raw.hex() != hex_text:  # fromhex accepts upper case and skips whitespace
                raise CorruptLog(f"record {i}: document bytes are not lowercase hex", seq=i)
            try:
                doc = documents.decode(raw)
            except TltError as exc:
                raise CorruptLog(f"record {i}: {exc}", seq=i) from None

            if i == 0:
                if kind != "root":
                    raise CorruptLog("record 0: log must begin with the root", seq=0)
                try:
                    store = Store(doc)
                except TltError as exc:
                    raise CorruptLog(f"record 0: {exc}", seq=0) from None
            else:
                try:
                    store.register(kind, doc)
                except TltError as exc:
                    raise CorruptLog(f"record {i}: {exc}", seq=i) from None
    if store is None:
        raise CorruptLog("empty store log", seq=0)
    return store
