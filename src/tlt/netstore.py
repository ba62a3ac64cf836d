"""Line-oriented query protocol exposing a store over a local socket.

Requests (one per line, space-separated, hex arguments):

    DEV <uuid-hex>
    STATE <uuid-hex> <digest-hex>

A connection carries any number of request lines, each answered by exactly one
line (a blank one gets BADREQ); one over MAX_REQUEST_LINE bytes, newline
included, gets BADREQ and a hang-up. One silent for IDLE_TIMEOUT (twice
TIMEOUT) seconds is closed without a reply; StoreServer.stop() closes the rest.
A StoreClient sends one lookup at a time, under a lock, down one connection and
drops it after anything but a reply line of at most MAX_RESPONSE_LINE bytes,
newline included. It resends once, on a new one, if a reused connection ends
before any reply byte (as after the idle drop), and raises StoreUnavailable
when the socket fails: refused, reset, hung up before the reply's newline, or
silent for TIMEOUT seconds. close() or `with` closes it.

A StoreClient keeps each DEV answer it decoded, by UUID, for its lifetime: the
store admits one certificate per UUID and never rewrites a record, so that
answer cannot change. Nothing else is kept; every STATE answer (its current
flag goes stale) and failed DEV lookup is asked again.

Responses:

    OK <hex payload>      the client raises ParseError if the payload is not hex
    ERR <code>            codes: NOTFOUND, BADREQ

DEV payload: len(4, big-endian) || device certificate || len(4) ||
manufacturer certificate. The client raises ParseError on a cut or extended
payload or a malformed certificate (one that documents.decode refuses), and
unless the second is the certificate the first names as its issuer
(documents.issuer_key) and the first names the UUID asked for. STATE
payload: current flag(1) || firmware metadata (UTF-8). The client raises
ParseError on an empty payload or a flag other than 0 or 1.

A StoreServer only reads its Store, so a resend is safe. `tlt store serve`
serves the log as it loaded it, while other `tlt` commands write the log: after
`device configure --store`, a kept old copy of the device still gets
verified_current over `--connect`.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import threading
import weakref

from . import documents
from .errors import MalformedDocument, NotFound, ParseError, StoreUnavailable, TltError
from .store import DeviceView, StateView, Store

# The longest valid request (STATE) is 104 bytes with its newline.
MAX_REQUEST_LINE = 1024
# Certificate info strings are user text, so a DEV answer has no fixed size;
# the test fixtures' DEV answer is 710 bytes with its newline.
MAX_RESPONSE_LINE = 65536
# StoreClient waits this long to connect and for each reply; the server drops a connection silent for twice that.
TIMEOUT = 5.0
IDLE_TIMEOUT = 2 * TIMEOUT


# ---------------------------------------------------------------------------
# Payload codecs (shared by server and client)
# ---------------------------------------------------------------------------

def encode_device_payload(view: DeviceView) -> bytes:
    dcrt = documents.encode_canonical(view.certificate)
    mcrt = documents.encode_canonical(view.mfr_certificate)
    return documents.prefixed(dcrt) + documents.prefixed(mcrt)


def decode_device_payload(payload: bytes, uuid: bytes) -> DeviceView:
    try:
        r = documents.Reader(payload)
        dcrt, mcrt = documents.decode(r.prefixed()), documents.decode(r.prefixed())
        r.end()
        if dcrt.doc_type != documents.DOC_DEVICE or documents.issuer_key(dcrt) != documents.certificate_key(mcrt):
            raise ParseError("device payload is not a device certificate followed by its issuer's")
        if documents.subject_uuid(dcrt) != bytes(uuid):
            raise ParseError("device certificate is for another UUID")
        return DeviceView(dcrt, mcrt)
    except MalformedDocument as exc:
        raise ParseError(f"malformed device payload: {exc}") from None


def encode_state_payload(view: StateView) -> bytes:
    return bytes([view.current]) + view.fw_meta.encode()


def decode_state_payload(payload: bytes) -> StateView:
    try:
        r = documents.Reader(payload)
        return StateView(current=r.flag(), fw_meta=r.rest().decode(errors="replace"))
    except MalformedDocument as exc:
        raise ParseError(f"malformed state payload: {exc}") from None


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
        with contextlib.suppress(TimeoutError, ConnectionError):  # idle or reset: the socket is closed after handle()
            while raw := self.rfile.readline(MAX_REQUEST_LINE + 1):
                if len(raw) > MAX_REQUEST_LINE:
                    self.wfile.write(b"ERR BADREQ\n")
                    return  # the rest of the line is never read
                response = handle_request_line(self.server.tlt_store, raw.decode(errors="replace").rstrip("\r\n"))
                self.wfile.write((response + "\n").encode())  # unbuffered: sent before the next read


class StoreServer(socketserver.ThreadingTCPServer):
    """Serves read-only queries for one store on a background thread, from start() (or `with`) to stop()."""

    allow_reuse_address = True

    def __init__(self, store: Store, host: str = "127.0.0.1", port: int = 0):
        self._open = weakref.WeakSet()  # accepted sockets; set before a failed bind calls server_close()
        super().__init__((host, port), _Handler)
        self.tlt_store = store
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)  # stop() waits out one poll
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:  # shutdown() waits for a serve_forever loop that start() ran
            self.shutdown()
            self._thread.join(timeout=5)
        self.server_close()

    def process_request(self, request, client_address):
        self._open.add(request)
        super().process_request(request, client_address)

    def server_close(self) -> None:
        for request in list(self._open):  # so the handler threads joined below end now
            with contextlib.suppress(OSError):
                request.shutdown(socket.SHUT_RDWR)
        super().server_close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class StoreClient(contextlib.AbstractContextManager):
    """Store query interface over the line protocol, on one reused connection.

    Exposes the same lookup_device/lookup_state surface as Store, so a
    verifier can use either interchangeably.
    """

    def __init__(self, host: str, port: int):
        self._addr = (host, port)
        self._name = f"store at {host}:{port}"  # as errors name it
        self._lock = threading.RLock()  # one request in flight; re-entered when a lookup calls close()
        self._sock = self._reply = None  # the connection and its buffered reader
        self._devices: dict[bytes, DeviceView] = {}  # every DEV answer decoded, by UUID; never evicted

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                self._reply.close()
                self._sock.close()
                self._sock = self._reply = None

    __del__ = close  # a client nobody closed is closed quietly

    def __exit__(self, *exc):
        self.close()

    def _query(self, request: str) -> str:
        raw = b""
        with self._lock:
            try:
                for reused in (self._sock is not None, False):  # a resend goes on a new connection
                    if not reused:
                        self.close()
                        self._sock = socket.create_connection(self._addr, timeout=TIMEOUT)
                        self._reply = self._sock.makefile("rb")
                    with contextlib.suppress(*((ConnectionResetError, BrokenPipeError) if reused else ())):
                        self._sock.sendall((request + "\n").encode())
                        if self._reply.peek(1) or not reused:
                            break  # a reply has begun, or this connection is new
                raw = self._reply.readline(MAX_RESPONSE_LINE + 1)
            except OSError as exc:  # refused, reset or timed out
                raise StoreUnavailable(f"{self._name}: {exc}") from None
            finally:
                if not raw.endswith(b"\n"):
                    self.close()
        if len(raw) > MAX_RESPONSE_LINE:
            raise TltError("store response too long")
        if not raw.endswith(b"\n"):  # the store hung up mid-reply
            raise StoreUnavailable(f"{self._name}: connection closed before a whole reply line")
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
        uuid = bytes(uuid)
        with self._lock:  # threads that miss together ask once
            if (view := self._devices.get(uuid)) is None:
                view = self._devices[uuid] = decode_device_payload(self._payload(f"DEV {uuid.hex()}"), uuid)
        return view

    def lookup_state(self, uuid: bytes, state_digest: bytes) -> StateView:
        payload = self._payload(f"STATE {bytes(uuid).hex()} {bytes(state_digest).hex()}")
        return decode_state_payload(payload)
