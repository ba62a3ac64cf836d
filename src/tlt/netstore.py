"""Line-oriented query protocol exposing a store over a local socket.

Requests (one per line, space-separated, hex arguments):

    DEV <uuid-hex>
    STATE <uuid-hex> <digest-hex>

Responses:

    OK <hex payload>
    ERR <code>            codes: NOTFOUND, BADREQ

DEV payload: len(4, big-endian) || device certificate || len(4) ||
manufacturer certificate. STATE payload: current flag(1) || inst_ref(4) ||
cfg_ref(4, 0xffffffff when none) || cfg_seq(8) || firmware metadata (UTF-8).

The server is read-only: all writes happen in the owning process before it
starts serving, which keeps the store's single-writer contract trivially
satisfied.
"""

from __future__ import annotations

import socket
import socketserver
import threading

from . import documents
from .errors import NotFound, ParseError, TltError
from .store import DeviceView, StateView, Store

_NO_REF = 0xFFFFFFFF


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
    view = DeviceView.from_certificates(documents.decode(dcrt_bytes), documents.decode(mcrt_bytes))
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
        for raw in self.rfile:
            line = raw.decode(errors="replace").rstrip("\r\n")
            if not line:
                continue
            response = handle_request_line(self.server.tlt_store, line)
            self.wfile.write((response + "\n").encode())
            self.wfile.flush()
            self.server.note_request()


class StoreServer(socketserver.ThreadingTCPServer):
    """Serves read-only queries for one store; run via start()/stop()."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, store: Store, host: str = "127.0.0.1", port: int = 0, max_requests: int = 0):
        super().__init__((host, port), _Handler)
        self.tlt_store = store
        self.max_requests = max_requests
        self._served = 0
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self.done = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def note_request(self) -> None:
        with self._lock:
            self._served += 1
            if self.max_requests and self._served >= self.max_requests:
                self.done.set()
                threading.Thread(target=self.shutdown, daemon=True).start()

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
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = sock.recv(4096)
                if not chunk:
                    break
                buf += chunk
        return buf.decode(errors="replace").rstrip("\r\n")

    def _payload(self, request: str) -> bytes:
        response = self._query(request)
        if response.startswith("OK "):
            return bytes.fromhex(response[3:])
        if response == "ERR NOTFOUND":
            raise NotFound(request.split(" ")[0].lower() + " lookup failed")
        raise TltError(f"store protocol error: {response!r}")

    def lookup_device(self, uuid: bytes) -> DeviceView:
        payload = self._payload(f"DEV {bytes(uuid).hex()}")
        return decode_device_payload(payload, uuid)

    def lookup_state(self, uuid: bytes, state_digest: bytes) -> StateView:
        payload = self._payload(f"STATE {bytes(uuid).hex()} {bytes(state_digest).hex()}")
        return decode_state_payload(payload, uuid, state_digest)
