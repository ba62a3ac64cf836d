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
configuration and keeps every digest a device has had; its index holds the
documents themselves and is derivable from the log.

Log format (`.tltlog`): one ASCII line per record, each ending in LF,

    <kind> <seq> <lowercase hex of canonical document bytes>

<kind> is the name of the document's type (documents.DOC_TYPE_NAMES) and must
match its type byte. Sequence numbers are plain decimal, start at 0 (the root)
and increase by one per record; records are never rewritten. Loading streams
the log one line at a time, replaying and revalidating each record as it is
read, and aborts with CorruptLog naming the offending sequence number
(FileUnreadable if the log cannot be opened or read); it never holds the whole
log text. Store.persist writes the whole log and a command's other output
files in one staged write (documents.write_files) that places the log first,
by rename over the old one: a concurrent load sees the old log or the new one,
never a torn one, and placing the log commits. Writers serialize on
locked(path) across load, register and persist, so none loses a record.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import os
from dataclasses import dataclass
from pathlib import Path

from . import crypto, documents
from .documents import Document
from .errors import ConstraintViolation, CorruptLog, DuplicateUuid, FileUnreadable, MalformedDocument, NotFound
from .errors import StoreUnavailable, TltError, UnknownIssuer


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
        self._certs: dict[tuple[int, bytes], Document] = {}  # documents.certificate_key -> certificate
        self._firmware: dict[bytes, Document] = {}  # doc digest -> firmware document
        # uuid -> (current state digest, installation, configuration or None)
        self._current: dict[bytes, tuple[bytes, Document, Document | None]] = {}
        # (uuid, state digest) -> its installed firmware document, for every state a device has had
        self._states: dict[tuple[bytes, bytes], Document] = {}

    # -- registration ------------------------------------------------------

    def register(self, kind: str, doc: Document) -> int:
        """Admit a document after chain verification; returns its sequence.

        kind must be the name of doc's type. Issuers are resolved from
        registered records, never supplied by the caller.
        """
        if kind not in documents.DOC_TYPE_NAMES.values():
            raise ConstraintViolation(f"unknown record kind {kind!r}")
        if kind == "root":
            raise ConstraintViolation("the root is fixed at store creation")
        if documents.DOC_TYPE_NAMES[doc.doc_type] != kind:
            raise ConstraintViolation(f"document type 0x{doc.doc_type:02x} does not match record kind {kind}")

        documents.verify_chain([doc, *self._resolve_intermediates(doc), self.root], self.root)

        # One branch per type: every check runs before the first write.
        if doc.doc_type == documents.DOC_FIRMWARE:
            digest = documents.doc_digest(doc)
            if digest in self._firmware:
                raise ConstraintViolation("firmware already registered")
            self._firmware[digest] = doc
        elif (key := documents.certificate_key(doc)) is not None:
            if key in self._certs:
                if doc.doc_type == documents.DOC_DEVICE:
                    raise DuplicateUuid("a device with this UUID is already registered")
                raise ConstraintViolation("manufacturer id already registered")
            self._certs[key] = doc
        else:
            uuid = documents.subject_uuid(doc)
            _, inst, cfg = self._current.get(uuid, (None, None, None))
            if doc.doc_type == documents.DOC_INSTALLATION:
                if doc.field(documents.INST_FW_DOC_DIGEST) not in self._firmware:
                    raise ConstraintViolation("installation references unregistered firmware")
                inst = doc
            else:
                if inst is None:
                    raise ConstraintViolation("no installation registered for this device")
                latest_seq = documents.config_seq(cfg) if cfg is not None else 0
                if documents.config_seq(doc) <= latest_seq:
                    raise ConstraintViolation(f"configuration sequence must exceed {latest_seq}")
                cfg = doc
            digest = documents.state_digest(inst, cfg, uuid)
            self._states[(uuid, digest)] = self._firmware[inst.field(documents.INST_FW_DOC_DIGEST)]
            self._current[uuid] = (digest, inst, cfg)
        self.records.append(doc)
        return len(self.records) - 1

    def _resolve_intermediates(self, doc: Document) -> list[Document]:
        """The registered certificates between doc and the root, nearest first."""
        chain = []
        key = documents.issuer_key(doc)
        while key is not None:
            cert = self._certs.get(key)
            if cert is None:
                raise UnknownIssuer(f"{documents.DOC_TYPE_NAMES[key[0]]} is not registered")
            chain.append(cert)
            key = documents.issuer_key(cert)
        return chain

    # -- lookups -----------------------------------------------------------

    def lookup_device(self, uuid: bytes) -> DeviceView:
        dcrt = self._certs.get((documents.DOC_DEVICE, bytes(uuid)))
        if dcrt is None:
            raise NotFound("unknown device UUID")
        return DeviceView(dcrt, *self._resolve_intermediates(dcrt))

    def lookup_state(self, uuid: bytes, state_digest: bytes) -> StateView:
        uuid, state_digest = bytes(uuid), bytes(state_digest)
        fw_doc = self._states.get((uuid, state_digest))
        if fw_doc is None:
            raise NotFound("no state entry for this digest")
        return StateView(
            current=self._current[uuid][0] == state_digest,
            fw_meta=fw_doc.field(documents.FW_META).decode(errors="replace"),
        )

    def current_state_digest(self, uuid: bytes) -> bytes:
        """Latest state digest the store expects for a device."""
        current = self._current.get(bytes(uuid))
        if current is None:
            raise NotFound("no state registered for this device")
        return current[0]

    # -- persistence -------------------------------------------------------

    def persist(self, path, files=None, replace=()) -> None:
        """Replace the log at path, then write files (path -> bytes, new unless in replace), in one staged write."""
        log = "".join(
            f"{documents.DOC_TYPE_NAMES[doc.doc_type]} {seq} {documents.encode_canonical(doc).hex()}\n"
            for seq, doc in enumerate(self.records)
        )
        documents.write_files({path: log.encode(), **(files or {})}, {path, *replace})


@contextlib.contextmanager
def locked(path):
    """The writers' exclusive lock on the store at path; persist replaces the log, so it locks the directory."""
    try:
        fd = os.open(Path(path).parent, os.O_RDONLY)
    except OSError as exc:
        raise FileUnreadable(exc) from None
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError as exc:
            raise StoreUnavailable(f"{path}: cannot lock: {exc.strerror}") from None
        yield
    finally:
        os.close(fd)  # releases the lock


def _record(line: bytes, seq: int) -> tuple[str, Document]:
    """The kind and document of the log line for record seq; MalformedDocument unless it is in the log format."""
    try:  # UnicodeDecodeError is a ValueError too
        kind, seq_text, hex_text = line.removesuffix(b"\n").decode("ascii").split(" ")
    except ValueError:
        raise MalformedDocument("malformed line") from None
    if seq_text != str(seq):
        raise MalformedDocument(f"bad sequence number {seq_text!r}")
    try:
        raw = bytes.fromhex(hex_text)
    except ValueError:
        raw = b""
    if not raw or raw.hex() != hex_text:  # fromhex accepts upper case and skips whitespace
        raise MalformedDocument("document bytes are not lowercase hex")
    return kind, documents.decode(raw)


def load_store(path) -> Store:
    """Replay and revalidate a record log; CorruptLog on a refused record, a program fault propagates."""
    store: Store | None = None
    try:
        with open(path, "rb") as log:
            for i, line in enumerate(log):
                try:
                    kind, doc = _record(line, i)
                    if i:
                        store.register(kind, doc)
                    elif kind == "root":
                        store = Store(doc)
                    else:
                        raise ConstraintViolation("log must begin with the root")
                except TltError as exc:
                    raise CorruptLog(f"record {i}: {exc}", seq=i) from None
    except OSError as exc:  # opening or reading the log
        raise FileUnreadable(exc) from None
    if store is None:
        raise CorruptLog("empty store log", seq=0)
    return store
