from __future__ import annotations

import contextlib
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tlt import crypto, device, documents, netstore
from tlt.errors import NotFound, ParseError, TltError
from tlt.netstore import StoreClient, StoreServer, handle_request_line
from tlt.verifier import StateCheck, Verifier

SRC = Path(__file__).resolve().parents[1] / "src"


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
    view = netstore.decode_state_payload(bytes.fromhex(response[3:]), stack.dev.uuid, digest)
    assert view == stack.store.lookup_state(stack.dev.uuid, digest)


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
    device.save_device(stack.dev, tmp_path / "dev.tltdev")
    crypto.save_secret_key(stack.dev.secret_key, tmp_path / ("dev" + crypto.SECRET_KEY_EXT))
    reply = b"OK " + _dev_payload(stack.root, stack.root).hex().encode() + b"\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with _stand_in(reply) as (host, port):
        proc = subprocess.run(
            [sys.executable, "-m", "tlt.cli", "verify", "challenge", "--connect", f"{host}:{port}",
             "--device", str(tmp_path / "dev.tltdev")],
            capture_output=True, text=True, env=env, timeout=30,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith("ParseError: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
