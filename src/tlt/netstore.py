"""Line-oriented query protocol exposing a store over a local socket.

Requests (one per line, space-separated, hex arguments):

    DEV <uuid-hex>
    STATE <uuid-hex> <digest-hex>

A line over MAX_REQUEST_LINE bytes, newline included, gets BADREQ and a hang-up.
A connection that sends nothing for IDLE_TIMEOUT seconds is closed without a
reply. The client rejects a response line over MAX_RESPONSE_LINE bytes,
newline included, instead of buffering it.

Responses:

    OK <hex payload>      the client raises ParseError if the payload is not hex
    ERR <code>            codes: NOTFOUND, BADREQ

DEV payload: len(4, big-endian) || device certificate || len(4) ||
manufacturer certificate. The client raises ParseError unless the second is
the certificate the first names as its issuer (documents.issuer_key). STATE
payload: current flag(1) || inst_ref(4) || cfg_ref(4, 0xffffffff when none) ||
cfg_seq(8) || firmware metadata (UTF-8).

The server is read-only: all writes happen in the owning process before it
starts serving, which keeps the store's single-writer contract trivially
satisfied.
"""

from __future__ import annotations

import socket
import socketserver
import threading

from . import documents
from .errors import MalformedDocument, NotFound, ParseError, TltError
from .store import DeviceView, StateView, Store

_NO_REF = 0xFFFFFFFF
# The longest valid request (STATE) is 104 bytes with its newline.
MAX_REQUEST_LINE = 1024
# Certificate info strings are user text, so a DEV answer has no fixed size;
# the test fixtures' DEV answer is 710 bytes with its newline.
MAX_RESPONSE_LINE = 65536
# Twice StoreClient's default timeout: a connection silent this long is dropped.
IDLE_TIMEOUT = 10.0


# ---------------------------------------------------------------------------
# Payload codecs (shared by server and client)
# ---------------------------------------------------------------------------

def encode_device_payload(view: DeviceView) -> bytes:
    dcrt = documents.encode_canonical(view.certificate)
    mcrt = documents.encode_canonical(view.mfr_certificate)
    return len(dcrt).to_bytes(4, "big") + dcrt + len(mcrt).to_bytes(4, "big") + mcrt


def decode_device_payload(payload: bytes, uuid: bytes) -> DeviceView:
    if len(payload) < 4:
        raise ParseError("truncated device payload")
    n = int.from_bytes(payload[:4], "big")
    dcrt_bytes = payload[4 : 4 + n]
    rest = payload[4 + n :]
    if len(dcrt_bytes) != n or len(rest) < 4:
        raise ParseError("truncated device payload")
    m = int.from_bytes(rest[:4], "big")
    mcrt_bytes = rest[4 : 4 + m]
    if len(mcrt_bytes) != m or len(rest) != 4 + m:
        raise ParseError("trailing bytes in device payload")
    try:
        dcrt, mcrt = documents.decode(dcrt_bytes), documents.decode(mcrt_bytes)
        if dcrt.doc_type != documents.DOC_DEVICE or documents.issuer_key(dcrt) != documents.certificate_key(mcrt):
            raise ParseError("device payload is not a device certificate followed by its issuer's")
        view = DeviceView.from_certificates(dcrt, mcrt)
    except MalformedDocument as exc:
        raise ParseError(f"malformed device payload: {exc}") from None
    if view.uuid != bytes(uuid):
        raise ParseError("device certificate is for another UUID")
    return view


def encode_state_payload(view: StateView) -> bytes:
    inst_ref = view.inst_ref if view.inst_ref is not None else _NO_REF
    cfg_ref = view.cfg_ref if view.cfg_ref is not None else _NO_REF
    return (
        bytes([1 if view.current else 0])
        + inst_ref.to_bytes(4, "big")
        + cfg_ref.to_bytes(4, "big")
        + view.cfg_seq.to_bytes(8, "big")
        + view.fw_meta.encode()
    )


def decode_state_payload(payload: bytes, uuid: bytes, state_digest: bytes) -> StateView:
    if len(payload) < 17:
        raise ParseError("truncated state payload")
    inst_ref = int.from_bytes(payload[1:5], "big")
    cfg_ref = int.from_bytes(payload[5:9], "big")
    return StateView(
        uuid=bytes(uuid),
        state_digest=bytes(state_digest),
        fw_meta=payload[17:].decode(errors="replace"),
        cfg_seq=int.from_bytes(payload[9:17], "big"),
        current=payload[0] == 1,
        inst_ref=None if inst_ref == _NO_REF else inst_ref,
        cfg_ref=None if cfg_ref == _NO_REF else cfg_ref,
    )


def handle_request_line(store: Store, line: str) -> str:
    """Map one request line to one response line."""
    parts = line.strip().split(" ")
    try:
        if parts[0] == "DEV" and len(parts) == 2:
            view = store.lookup_device(bytes.fromhex(parts[1]))
            return "OK " + encode_device_payload(view).hex()
        if parts[0] == "STATE" and len(parts) == 3:
            view = store.lookup_state(bytes.fromhex(parts[1]), bytes.fromhex(parts[2]))
            return "OK " + encode_state_payload(view).hex()
    except NotFound:
        return "ERR NOTFOUND"
    except ValueError:
        return "ERR BADREQ"
    return "ERR BADREQ"


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        self.connection.settimeout(IDLE_TIMEOUT)
        try:
            while raw := self.rfile.readline(MAX_REQUEST_LINE + 1):
                too_long = len(raw) > MAX_REQUEST_LINE
                line = raw.decode(errors="replace").rstrip("\r\n")
                if not line and not too_long:
                    continue
                response = "ERR BADREQ" if too_long else handle_request_line(self.server.tlt_store, line)
                self.wfile.write((response + "\n").encode())
                self.wfile.flush()
                if too_long:
                    return  # the rest of the line is never read
        except TimeoutError:
            return  # an idle client is dropped; the server closes the socket after handle()


class StoreServer(socketserver.ThreadingTCPServer):
    """Serves read-only queries for one store.

    serve_forever() serves on the calling thread; start()/stop() (or the
    context manager) serve on a background thread instead.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, store: Store, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.tlt_store = store
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.server_close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class StoreClient:
    """Store query interface over the line protocol.

    Exposes the same lookup_device/lookup_state surface as Store, so a
    verifier can use either interchangeably.
    """

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._addr = (host, port)
        self._timeout = timeout

    def _query(self, request: str) -> str:
        with socket.create_connection(self._addr, timeout=self._timeout) as sock:
            sock.sendall((request + "\n").encode())
            with sock.makefile("rb") as reply:
                raw = reply.readline(MAX_RESPONSE_LINE + 1)
        if len(raw) > MAX_RESPONSE_LINE:
            raise TltError("store response too long")
        return raw.decode(errors="replace").rstrip("\r\n")

    def _payload(self, request: str) -> bytes:
        response = self._query(request)
        # A reply may be up to MAX_RESPONSE_LINE long; errors quote only its start.
        if response.startswith("OK "):
            try:
                return bytes.fromhex(response[3:])
            except ValueError:
                raise ParseError(f"store answer is not hex: {repr(response)[:80]}") from None
        if response == "ERR NOTFOUND":
            raise NotFound(request.split(" ")[0].lower() + " lookup failed")
        raise TltError(f"store protocol error: {repr(response)[:80]}")

    def lookup_device(self, uuid: bytes) -> DeviceView:
        payload = self._payload(f"DEV {bytes(uuid).hex()}")
        return decode_device_payload(payload, uuid)

    def lookup_state(self, uuid: bytes, state_digest: bytes) -> StateView:
        payload = self._payload(f"STATE {bytes(uuid).hex()} {bytes(state_digest).hex()}")
        return decode_state_payload(payload, uuid, state_digest)
