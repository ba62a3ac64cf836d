from __future__ import annotations

import socket

import pytest

from tlt import crypto, netstore
from tlt.errors import NotFound, ParseError
from tlt.netstore import StoreClient, StoreServer, handle_request_line
from tlt.verifier import StateCheck, Verifier


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


def test_server_max_requests_shuts_down(stack):
    server = StoreServer(stack.store, port=0, max_requests=2)
    server.start()
    try:
        addr = server.address
        _raw_query(addr, f"DEV {stack.dev.uuid.hex()}")
        _raw_query(addr, f"DEV {stack.dev.uuid.hex()}")
        assert server.done.wait(timeout=5)
    finally:
        server.stop()


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
