from __future__ import annotations

import contextlib
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from tlt import crypto, device, documents, netstore, verifier
from tlt.errors import NotFound, ParseError, StoreUnavailable, TltError
from tlt.netstore import StoreClient, StoreServer, handle_request_line
from tlt.verifier import StateCheck, Verifier

from conftest import subprocess_env, write_device


def _raw_query(addr, line: str) -> str:
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall((line + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            buf += chunk
    return buf.decode().rstrip("\n")


@contextlib.contextmanager
def _stand_in(reply: bytes):
    """A server on 127.0.0.1 that answers one request line with `reply` and keeps the socket open."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    done = threading.Event()

    def serve_one():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as request:
            request.readline()
            conn.sendall(reply)
            done.wait(5)

    thread = threading.Thread(target=serve_one, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        done.set()
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()


def _count_accepts(server: StoreServer) -> list:
    """Record each connection `server` accepts from now on, as bench/tracer.py counts them."""
    accepts = []
    get_request = server.get_request

    def counted():
        accepts.append(None)
        return get_request()

    server.get_request = counted
    return accepts


def _count_requests(monkeypatch, first: str | None = None) -> list:
    """Record each request line the server handles from now on; answer the first with `first` if given."""
    requests = []
    handle = netstore.handle_request_line

    def counted(store, line):
        requests.append(line)
        return first if first is not None and len(requests) == 1 else handle(store, line)

    monkeypatch.setattr(netstore, "handle_request_line", counted)
    return requests


def _more_devices(stack, n: int) -> list:
    """n more devices of the stack's manufacturer, each registered with its firmware installed."""
    devices = []
    for i in range(n):
        dev, dcrt = device.device_birth(stack.mcrt, stack.mfr_sk, stack.root, f"lock {i}", stack.rng)
        stack.store.register("device", dcrt)
        stack.store.register("installation", dev.install_firmware(stack.fw_doc, stack.fw_image, [stack.mcrt], "slot=0"))
        devices.append(dev)
    return devices


def _dev_payload(*docs) -> bytes:
    return b"".join(
        len(raw).to_bytes(4, "big") + raw for raw in map(documents.encode_canonical, docs)
    )


# ---------------------------------------------------------------------------
# Request handling (no socket)
# ---------------------------------------------------------------------------

def test_dev_request_round_trip(stack):
    response = handle_request_line(stack.store, f"DEV {stack.dev.uuid.hex()}")
    assert response.startswith("OK ")
    view = netstore.decode_device_payload(bytes.fromhex(response[3:]), stack.dev.uuid)
    assert view == stack.store.lookup_device(stack.dev.uuid)


def test_state_request_round_trip(stack):
    digest = stack.dev.compute_state_digest()
    response = handle_request_line(stack.store, f"STATE {stack.dev.uuid.hex()} {digest.hex()}")
    assert response.startswith("OK ")
    view = netstore.decode_state_payload(bytes.fromhex(response[3:]))
    assert view == stack.store.lookup_state(stack.dev.uuid, digest)


def test_state_answer_is_current_flag_then_firmware_metadata(stack):
    """The STATE answer carries exactly current(1) || fw_meta."""
    old_digest = stack.dev.compute_state_digest()
    fw_meta = stack.fw_doc.field(documents.FW_META)
    request = f"STATE {stack.dev.uuid.hex()} {old_digest.hex()}"
    assert handle_request_line(stack.store, request) == "OK " + (b"\x01" + fw_meta).hex()

    stack.store.register("configuration", stack.dev.apply_configuration(b"newer", 1))
    assert handle_request_line(stack.store, request).startswith("OK 00")


@pytest.mark.parametrize(
    "payload",
    [b"", b"\x02" + bytes(16), b"\xff" + bytes(16) + b"lock-9000 v1.0"],
    ids=["empty", "flag-2", "flag-ff"],
)
def test_bad_state_payload_rejected(stack, payload):
    """A STATE payload that is empty or whose flag is neither 0 nor 1 is a ParseError, never a verdict."""
    with pytest.raises(ParseError):
        netstore.decode_state_payload(payload)
    with _stand_in(b"OK " + payload.hex().encode() + b"\n") as addr:
        with pytest.raises(ParseError):
            StoreClient(*addr).lookup_state(stack.dev.uuid, stack.dev.compute_state_digest())


def test_every_cut_and_extension_of_a_dev_answer_is_a_parse_error(stack):
    """A DEV payload cut short at any byte, or with one byte appended, is a ParseError, never a view."""
    uuid = stack.dev.uuid
    payload = netstore.encode_device_payload(stack.store.lookup_device(uuid))
    assert netstore.decode_device_payload(payload, uuid) == stack.store.lookup_device(uuid)
    cuts = ((f"cut to {n} bytes", payload[:n]) for n in range(len(payload)))
    extensions = ((f"0x{b:02x} appended", payload + bytes([b])) for b in (0x00, 0x01, 0xFF))
    for case, corrupt in (*cuts, *extensions):
        try:
            netstore.decode_device_payload(corrupt, uuid)
        except ParseError:
            continue
        pytest.fail(f"{case}: decoded without a ParseError")


@pytest.mark.parametrize(
    "bad_key", [lambda key: key[:-1], lambda key: b"\x07" + key[1:]], ids=["one-byte-short", "suite-0x07"]
)
def test_a_dev_answer_with_a_malformed_certificate_is_a_parse_error(stack, bad_key):
    """A device certificate whose key field is one byte short or names suite 0x07, in otherwise valid framing, is a ParseError."""
    uuid = stack.dev.uuid
    view = stack.store.lookup_device(uuid)
    encoded, key = documents.encode_canonical(view.certificate), view.certificate.field(documents.DEV_PUBKEY)
    bad = encoded.replace(documents.prefixed(key), documents.prefixed(bad_key(key)))
    assert bad != encoded
    payload = documents.prefixed(bad) + documents.prefixed(documents.encode_canonical(view.mfr_certificate))
    with pytest.raises(ParseError, match="malformed device payload"):
        netstore.decode_device_payload(payload, uuid)


def test_not_found_and_bad_requests(stack, rng):
    assert handle_request_line(stack.store, f"DEV {crypto.generate_uuid(rng).hex()}") == "ERR NOTFOUND"
    assert handle_request_line(stack.store, "DEV nothex") == "ERR BADREQ"
    assert handle_request_line(stack.store, "DEV") == "ERR BADREQ"
    assert handle_request_line(stack.store, "FETCH everything") == "ERR BADREQ"
    assert handle_request_line(stack.store, f"STATE {stack.dev.uuid.hex()}") == "ERR BADREQ"


# ---------------------------------------------------------------------------
# Server and client over TCP
# ---------------------------------------------------------------------------

def test_client_lookups_match_in_process(stack):
    with StoreServer(stack.store, port=0) as server:
        host, port = server.address
        client = StoreClient(host, port)
        assert client.lookup_device(stack.dev.uuid) == stack.store.lookup_device(stack.dev.uuid)
        digest = stack.dev.compute_state_digest()
        assert client.lookup_state(stack.dev.uuid, digest) == stack.store.lookup_state(
            stack.dev.uuid, digest
        )


def test_stop_returns_promptly(stack):
    server = StoreServer(stack.store, port=0)
    server.start()
    assert _raw_query(server.address, "DEV") == "ERR BADREQ"  # the serve loop is polling
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.25


def test_busy_port_is_an_os_error(stack):
    """A failed bind raises its OSError; server_close(), which it calls, must not fail first."""
    with StoreServer(stack.store, port=0) as server:
        with pytest.raises(OSError):
            StoreServer(stack.store, port=server.address[1])


def test_client_not_found(stack, rng):
    with StoreServer(stack.store, port=0) as server:
        host, port = server.address
        client = StoreClient(host, port)
        with pytest.raises(NotFound):
            client.lookup_device(crypto.generate_uuid(rng))
        with pytest.raises(NotFound):
            client.lookup_state(stack.dev.uuid, rng.bytes(32))


def test_server_handles_garbage_lines(stack):
    with StoreServer(stack.store, port=0) as server:
        assert _raw_query(server.address, "???") == "ERR BADREQ"
        assert _raw_query(server.address, "DEV zz zz zz") == "ERR BADREQ"


def test_server_rejects_overlong_line(stack):
    """A request with no newline in sight is answered and dropped, not buffered."""
    with StoreServer(stack.store, port=0) as server:
        with socket.create_connection(server.address, timeout=2) as sock:
            sock.sendall(b"D" * 4096)
            reply = sock.makefile("rb")
            assert reply.readline() == b"ERR BADREQ\n"
            with contextlib.suppress(ConnectionResetError):  # unread input may turn FIN into RST
                assert reply.read() == b""
        client = StoreClient(*server.address)
        assert client.lookup_device(stack.dev.uuid) == stack.store.lookup_device(stack.dev.uuid)


def test_server_drops_idle_connection(stack, monkeypatch, capfd):
    """A client that connects and says nothing does not hold a server thread."""
    monkeypatch.setattr(netstore, "IDLE_TIMEOUT", 0.2)
    with StoreServer(stack.store, port=0) as server:
        with socket.create_connection(server.address, timeout=2) as sock:
            assert sock.recv(1) == b""
        client = StoreClient(*server.address)
        assert client.lookup_device(stack.dev.uuid) == stack.store.lookup_device(stack.dev.uuid)
    assert capfd.readouterr().err == ""


def test_server_ends_quietly_when_a_client_resets(stack, capfd):
    """A client that resets its connection mid-conversation leaves no traceback on stderr."""
    with StoreServer(stack.store, port=0) as server:
        ended = threading.Event()
        shutdown_request = server.shutdown_request

        def note_end(request):
            shutdown_request(request)
            ended.set()

        server.shutdown_request = note_end  # called after the handler, and after any traceback
        with socket.create_connection(server.address, timeout=2) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))  # close sends RST
            sock.sendall(f"DEV {stack.dev.uuid.hex()}\n".encode() * 2)
        assert ended.wait(5)
        assert capfd.readouterr().err == ""
        with StoreClient(*server.address) as client:
            assert client.lookup_device(stack.dev.uuid) == stack.store.lookup_device(stack.dev.uuid)


def test_one_client_makes_one_connection(stack):
    """100 DEV and 100 STATE lookups go down one connection."""
    digest = stack.dev.compute_state_digest()
    with StoreServer(stack.store, port=0) as server:
        accepts = _count_accepts(server)
        with StoreClient(*server.address) as client:
            for _ in range(100):
                assert client.lookup_device(stack.dev.uuid) == stack.store.lookup_device(stack.dev.uuid)
                assert client.lookup_state(stack.dev.uuid, digest) == stack.store.lookup_state(stack.dev.uuid, digest)
    assert len(accepts) == 1


def test_client_reconnects_after_the_idle_drop(stack, monkeypatch):
    """The server drops an idle connection; the next lookup resends on a new one."""
    monkeypatch.setattr(netstore, "IDLE_TIMEOUT", 0.2)
    digest = stack.dev.compute_state_digest()
    with StoreServer(stack.store, port=0) as server:
        accepts = _count_accepts(server)
        with StoreClient(*server.address) as client:
            assert client.lookup_device(stack.dev.uuid) == stack.store.lookup_device(stack.dev.uuid)
            time.sleep(0.5)
            assert client.lookup_state(stack.dev.uuid, digest) == stack.store.lookup_state(stack.dev.uuid, digest)
    assert len(accepts) == 2


@pytest.mark.parametrize("fault", ["cut-mid-line", "over-long"])
def test_client_never_reuses_a_connection_after_a_bad_reply(stack, monkeypatch, fault):
    """The first connection answers once, badly, and then says nothing; later ones answer honestly.

    The bad answer is not kept: the second lookup asks again, and the third is answered from the
    honest answer the second kept.
    """
    requests = _count_requests(monkeypatch)
    honest = (handle_request_line(stack.store, f"DEV {stack.dev.uuid.hex()}") + "\n").encode()
    # over-long: a client that kept reading this stream would next read the "\n" and then a stale answer
    first = honest[: len(honest) // 2] if fault == "cut-mid-line" else b"O" * 65_537 + b"\n" + honest
    handle = netstore._Handler.handle

    def bad_first(handler):
        if len(accepts) > 1:
            return handle(handler)
        handler.rfile.readline()
        handler.wfile.write(first)
        handler.rfile.read()  # silent until the client hangs up or the server stops

    monkeypatch.setattr(netstore._Handler, "handle", bad_first)
    with StoreServer(stack.store, port=0) as server:
        accepts = _count_accepts(server)
        with StoreClient(*server.address, timeout=0.5) as client:
            with pytest.raises(StoreUnavailable if fault == "cut-mid-line" else TltError):
                client.lookup_device(stack.dev.uuid)
            assert client.lookup_device(stack.dev.uuid) == stack.store.lookup_device(stack.dev.uuid)
            assert len(requests) == 1  # the bad first answer came from the stand-in handler
            assert client.lookup_device(stack.dev.uuid) == stack.store.lookup_device(stack.dev.uuid)
            assert len(requests) == 1
    assert len(accepts) == 2


@pytest.mark.parametrize(
    "answer, error",
    [("ERR NOTFOUND", NotFound), ("ERR BADREQ", TltError), ("OK 00000000", ParseError)],
    ids=["not-found", "protocol-error", "parse-error"],
)
def test_a_failed_dev_lookup_is_asked_again(stack, monkeypatch, answer, error):
    """A DEV lookup that failed on a whole reply line keeps nothing: the next one asks again, on the same connection."""
    requests = _count_requests(monkeypatch, first=answer)
    uuid = stack.dev.uuid
    with StoreServer(stack.store, port=0) as server:
        accepts = _count_accepts(server)
        with StoreClient(*server.address) as client:
            with pytest.raises(TltError) as excinfo:
                client.lookup_device(uuid)
            assert type(excinfo.value) is error
            for _ in range(3):
                assert client.lookup_device(uuid) == stack.store.lookup_device(uuid)
    assert requests == [f"DEV {uuid.hex()}"] * 2
    assert len(accepts) == 1


def test_a_client_asks_for_each_device_once(stack, rng, monkeypatch):
    """Exchanges that meet each device several times make one DEV request per registered device.

    An unregistered device is asked for at every exchange, and every exchange asks for its state.
    """
    devices = [stack.dev, *_more_devices(stack, 3)]
    stranger, _ = device.device_birth(stack.mcrt, stack.mfr_sk, stack.root, "not registered", stack.rng)
    stranger.install_firmware(stack.fw_doc, stack.fw_image, [stack.mcrt], "slot=0")
    requests = _count_requests(monkeypatch)
    with StoreServer(stack.store, port=0) as server, StoreClient(*server.address) as client:
        for _ in range(3):
            for dev in devices:
                assert verifier.run_exchange(client, dev, rng).state_check == StateCheck.VERIFIED_CURRENT
                assert client.lookup_device(dev.uuid) == stack.store.lookup_device(dev.uuid)
            assert verifier.run_exchange(client, stranger, rng).state_check == StateCheck.UNKNOWN_DEVICE
    asked = Counter(" ".join(line.split(" ")[:2]) for line in requests)  # request and UUID
    assert asked == Counter(
        {f"DEV {dev.uuid.hex()}": 1 for dev in devices}
        | {f"STATE {dev.uuid.hex()}": 3 for dev in devices}
        | {f"DEV {stranger.uuid.hex()}": 3}
    )


def test_a_state_answer_is_never_kept(stack):
    """The current flag a client reads follows the store, so a superseded state reads as stale."""
    digest = stack.dev.compute_state_digest()
    with StoreServer(stack.store, port=0) as server, StoreClient(*server.address) as client:
        assert client.lookup_state(stack.dev.uuid, digest).current
        stack.store.register("configuration", stack.dev.apply_configuration(b"newer", 1))  # no request in flight
        assert not client.lookup_state(stack.dev.uuid, digest).current


def test_threads_sharing_a_client_get_their_own_answers(stack, monkeypatch):
    """Eight threads, two per device, share one client: each thread's answers are for its own device.

    Each device's DEV answer is asked for once, however the threads interleave.
    """
    devices = [stack.dev, *_more_devices(stack, 3)]
    requests = _count_requests(monkeypatch)

    def look_up(dev):
        digest = dev.compute_state_digest()
        for _ in range(50):
            assert client.lookup_device(dev.uuid) == stack.store.lookup_device(dev.uuid)
            assert client.lookup_state(dev.uuid, digest) == stack.store.lookup_state(dev.uuid, digest)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter between threads often, to provoke interleaving
    try:
        with StoreServer(stack.store, port=0) as server:
            accepts = _count_accepts(server)
            with StoreClient(*server.address) as client, ThreadPoolExecutor(8) as pool:
                list(pool.map(look_up, devices * 2, timeout=30))  # re-raises the first failure
    finally:
        sys.setswitchinterval(switch)
    assert len(accepts) == 1
    assert sorted(line for line in requests if line.startswith("DEV ")) == sorted(f"DEV {dev.uuid.hex()}" for dev in devices)


def test_stopped_server_answers_nothing(stack):
    """stop() ends the connections still open, so it returns at once and no handler outlives it."""
    server = StoreServer(stack.store, port=0)
    server.start()
    with StoreClient(*server.address) as client:
        assert client.lookup_device(stack.dev.uuid) == stack.store.lookup_device(stack.dev.uuid)
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 1  # not IDLE_TIMEOUT
        assert not [t for t in threading.enumerate() if "process_request_thread" in t.name]
        with pytest.raises(StoreUnavailable):  # a STATE answer is never kept, so this lookup reaches the socket
            client.lookup_state(stack.dev.uuid, stack.dev.compute_state_digest())


def test_stop_returns_on_a_server_never_started(stack):
    """stop() without start() only closes the socket: no serve_forever loop ever ran to wait for."""
    server = StoreServer(stack.store, port=0)
    stopper = threading.Thread(target=server.stop, daemon=True)  # a hang leaves a daemon, not a stuck suite
    stopper.start()
    stopper.join(timeout=2)
    assert not stopper.is_alive()
    assert server.socket.fileno() == -1


def test_client_rejects_overlong_response(stack):
    """A server that never ends its line is cut off, not buffered."""
    with _stand_in(b"O" * 65_537) as addr:  # one byte over the cap, no newline
        client = StoreClient(*addr)
        start = time.monotonic()
        with pytest.raises(TltError) as excinfo:
            client.lookup_device(stack.dev.uuid)
        assert time.monotonic() - start < 2
        assert len(str(excinfo.value)) < 200


def test_client_error_quotes_a_bounded_part_of_the_response(stack):
    """A long line that is no valid answer is not copied whole into the error."""
    with _stand_in(b"X" * 60_000 + b"\n") as addr:  # under the cap, so it is read in full
        with pytest.raises(TltError) as excinfo:
            StoreClient(*addr).lookup_device(stack.dev.uuid)
    assert str(excinfo.value).startswith("store protocol error: 'XXX")
    assert len(str(excinfo.value)) < 200


@pytest.mark.parametrize(
    "answer", [b"OK zz", b"OK 0", b"OK " + b"z" * 60_000], ids=["non-hex", "odd-length", "long"]
)
@pytest.mark.parametrize("lookup", ["device", "state"])
def test_client_rejects_an_answer_that_is_not_hex(stack, answer, lookup):
    """A bad OK payload is a ParseError quoting at most 80 characters, not a bare ValueError."""
    with _stand_in(answer + b"\n") as addr:
        client = StoreClient(*addr)
        with pytest.raises(ParseError) as excinfo:
            if lookup == "device":
                client.lookup_device(stack.dev.uuid)
            else:
                client.lookup_state(stack.dev.uuid, stack.dev.compute_state_digest())
    message = str(excinfo.value)
    assert message.startswith("store answer is not hex: 'OK ")
    assert len(message) <= len("store answer is not hex: ") + 80


def test_verifier_works_over_line_protocol(stack, rng):
    """The verifier accepts either the in-process store or the client."""
    with StoreServer(stack.store, port=0) as server:
        host, port = server.address
        client = StoreClient(host, port)
        verifier = Verifier(rng)
        session, _ = verifier.issue_challenge(stack.dev.uuid)
        response = stack.dev.handle_challenge(session.challenge)
        view = client.lookup_device(stack.dev.uuid)
        verdict = verifier.verify_response(session, response, view, client)
        assert verdict.state_check == StateCheck.VERIFIED_CURRENT
        assert verdict.gate


def test_dev_payload_for_another_uuid_rejected(stack, rng):
    """A server answering DEV for one UUID with another device's certificate."""
    forged = netstore.encode_device_payload(stack.store.lookup_device(stack.dev.uuid))
    with pytest.raises(ParseError):
        netstore.decode_device_payload(forged, crypto.generate_uuid(rng))


def _other_manufacturer(stack):
    pk, _ = crypto.generate_keypair(stack.rng)
    return documents.make_manufacturer_certificate("Other Corp", pk, stack.authority_sk, stack.rng)


@pytest.mark.parametrize(
    "certificates",
    [
        lambda s: (s.root, s.root),
        lambda s: (s.dcrt, s.dcrt),  # DEV_INFO and MFR_INFO share tag 0x01
        lambda s: (s.dcrt, _other_manufacturer(s)),
    ],
    ids=["root-root", "device-device", "device-other-manufacturer"],
)
def test_dev_payload_must_be_a_device_certificate_and_its_issuer(stack, certificates):
    with pytest.raises(ParseError):
        netstore.decode_device_payload(_dev_payload(*certificates(stack)), stack.dev.uuid)


def test_cli_reports_malformed_dev_answer(stack, tmp_path):
    """`verify challenge --connect` against a server that answers DEV with the root twice."""
    write_device(stack.dev, tmp_path / "dev.tltdev")
    reply = b"OK " + _dev_payload(stack.root, stack.root).hex().encode() + b"\n"
    with _stand_in(reply) as (host, port):
        proc = subprocess.run(
            [sys.executable, "-m", "tlt.cli", "verify", "challenge", "--connect", f"{host}:{port}",
             "--device", str(tmp_path / "dev.tltdev")],
            capture_output=True, text=True, env=subprocess_env(), timeout=30,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith("ParseError: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_cli_reports_an_unreachable_store(stack, tmp_path):
    """`verify challenge --connect` to a port nobody listens on is a StoreUnavailable, exit 1."""
    write_device(stack.dev, tmp_path / "dev.tltdev")
    with socket.socket() as probe:  # bound, then closed: the port is free and refuses connections
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    proc = subprocess.run(
        [sys.executable, "-m", "tlt.cli", "verify", "challenge", "--connect", f"127.0.0.1:{port}",
         "--device", str(tmp_path / "dev.tltdev")],
        capture_output=True, text=True, env=subprocess_env(), timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"StoreUnavailable: store at 127.0.0.1:{port}: ")
    assert proc.stderr.count("\n") == 1
