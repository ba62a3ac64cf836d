from __future__ import annotations

import contextlib
import errno
import io
import os
import signal
import socket
import stat
import subprocess
import sys
import time

import pytest

from tlt import crypto, documents, netstore, transport
from tlt import store as store_mod
from tlt.cli import main
from tlt.device import encode_device, load_device
from tlt.netstore import StoreClient
from tlt.store import Store, load_store

from conftest import subprocess_env


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TLT_STORE", raising=False)
    return tmp_path


def _provision(ws, capsys) -> dict:
    """authority init -> mfr register -> sign-fw -> device birth/install/configure."""
    steps = [
        ["authority", "init", "--store", "s.tltlog", "--key", "authority.tltkey", "--info", "Root"],
        ["mfr", "register", "--store", "s.tltlog", "--authority-key", "authority.tltkey",
         "--key", "acme.tltkey", "--info", "Acme Devices"],
    ]
    (ws / "fw.bin").write_bytes(b"\x90" * 321)
    steps.append(["mfr", "sign-fw", "--store", "s.tltlog", "--key", "acme.tltkey",
                  "--cert", "acme.tltdoc", "--image", "fw.bin", "--meta", "lock v1.0",
                  "--out", "fw.tltdoc"])
    steps.append(["device", "birth", "--store", "s.tltlog", "--mfr-key", "acme.tltkey",
                  "--mfr-cert", "acme.tltdoc", "--info", "smart lock", "--out", "dev.tltdev"])
    steps.append(["device", "install", "--store", "s.tltlog", "--device", "dev.tltdev",
                  "--fw", "fw.tltdoc", "--image", "fw.bin", "--mfr-cert", "acme.tltdoc"])
    (ws / "cfg.json").write_bytes(b'{"mode":"demo"}')
    steps.append(["device", "configure", "--store", "s.tltlog", "--device", "dev.tltdev",
                  "--config", "cfg.json", "--seq", "1"])
    outputs = []
    for argv in steps:
        assert main(argv) == 0, argv
        outputs.append(capsys.readouterr().out)
    return {"outputs": outputs}


# ---------------------------------------------------------------------------
# Happy-path scripting
# ---------------------------------------------------------------------------

def test_provisioning_smoke(workspace, capsys):
    result = _provision(workspace, capsys)
    assert "root=" in result["outputs"][0]
    assert "mfr_id=" in result["outputs"][1]
    assert "uuid=" in result["outputs"][3]
    st = load_store(workspace / "s.tltlog")
    assert len(st.records) == 6  # root, mfr, fw, device, install, config


def test_verify_challenge_honest_device(workspace, capsys):
    _provision(workspace, capsys)
    assert main(["verify", "challenge", "--store", "s.tltlog", "--device", "dev.tltdev",
                 "--auto-accept"]) == 0
    out = capsys.readouterr().out
    assert "state=verified_current" in out
    assert "gate=1" in out
    assert "ACCEPT" in out


def test_advertise_scan_respond_loop(workspace, capsys):
    _provision(workspace, capsys)
    assert main(["device", "advertise", "--device", "dev.tltdev"]) == 0
    frame_hex = capsys.readouterr().out.strip()
    assert len(bytes.fromhex(frame_hex)) == 19

    assert main(["verify", "scan", "--frame", frame_hex]) == 0
    uuid_hex = capsys.readouterr().out.strip()
    dev = load_device(workspace / "dev.tltdev")
    assert uuid_hex == dev.uuid.hex()

    challenge = crypto.new_nonce()
    assert main(["device", "respond", "--device", "dev.tltdev", "--challenge", challenge.hex()]) == 0
    response = bytes.fromhex(capsys.readouterr().out.strip())
    assert len(response) == 128
    assert response[32:48] == challenge
    assert crypto.verify(dev.public_key, response[:64], response[64:])


def test_respond_accepts_challenge_frame(workspace, capsys):
    _provision(workspace, capsys)
    nonce = crypto.new_nonce()
    frame = transport.encode_data_frame(transport.fragment(transport.MSG_CHALLENGE, nonce)[0])
    assert main(["device", "respond", "--device", "dev.tltdev", "--challenge", frame.hex()]) == 0
    response = bytes.fromhex(capsys.readouterr().out.strip())
    assert response[32:48] == nonce


@pytest.mark.parametrize("msg_type", [transport.MSG_RESPONSE, transport.MSG_FRAGMENT, 0x7F],
                         ids=["response", "fragment", "unknown"])
def test_respond_refuses_a_frame_of_another_type(workspace, capsys, msg_type):
    _provision(workspace, capsys)
    frame = transport.encode_data_frame(transport.fragment(msg_type, crypto.new_nonce())[0])
    assert main(["device", "respond", "--device", "dev.tltdev", "--challenge", frame.hex()]) == 1
    assert capsys.readouterr() == ("", f"ParseError: expected message type 0x01, got 0x{msg_type:02x}\n")


def test_respond_refuses_one_fragment_of_a_challenge(workspace, capsys):
    _provision(workspace, capsys)
    first = transport.encode_data_frame(transport.fragment(transport.MSG_CHALLENGE, bytes(transport.FRAG_PAYLOAD + 1))[0])
    assert main(["device", "respond", "--device", "dev.tltdev", "--challenge", first.hex()]) == 1
    assert capsys.readouterr() == ("", "MissingFragment: missing fragment(s) [1]\n")


def test_store_dump(workspace, capsys):
    _provision(workspace, capsys)
    assert main(["store", "dump", "--store", "s.tltlog"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("0\troot")
    assert lines[5].startswith("5\tconfiguration")


def test_verify_decide(workspace, capsys, monkeypatch):
    _provision(workspace, capsys)
    main(["verify", "challenge", "--store", "s.tltlog", "--device", "dev.tltdev", "--auto-accept"])
    verdict_line = capsys.readouterr().out.splitlines()[0]

    assert main(["verify", "decide", "--auto-accept", "--line", verdict_line]) == 0
    assert capsys.readouterr().out.strip() == "ACCEPT"

    closed = verdict_line.replace("state=verified_current", "state=unknown_state").replace(
        "gate=1", "gate=0"
    )
    assert main(["verify", "decide", "--auto-accept", "--line", closed]) == 1
    assert capsys.readouterr().out.strip() == "REJECT"

    monkeypatch.setattr("builtins.input", lambda _: "y")
    assert main(["verify", "decide", "--line", verdict_line]) == 0


def test_decide_does_not_ask_about_a_closed_gate(workspace, capsys, monkeypatch):
    """`echo y | tlt verify decide --line <closed verdict>` prints REJECT without the accept prompt."""
    monkeypatch.setattr(sys, "stdin", io.StringIO("y\n"))
    assert main(["verify", "decide", "--line", f"VERDICT uuid={_UUID} state=unknown_state gate=0 reason=x"]) == 1
    assert capsys.readouterr().out == "REJECT\n"
    assert sys.stdin.read() == "y\n"  # not read


_UUID = "2f1c9a4e7b3d4c51a8e06d9f1b2c3a47"  # as TrustVerdict.render writes one
_OPEN_VERDICT = f"VERDICT uuid={_UUID} state=verified_current gate=1 reason=ok"


@pytest.mark.parametrize("argv, code", [
    (["verify", "decide", "--line", _OPEN_VERDICT], 1),
    (["verify", "challenge", "--store", "s.tltlog", "--device", "dev.tltdev"], 0),
], ids=["decide", "challenge"])
def test_end_of_stdin_at_the_accept_prompt_reads_as_no(workspace, capsys, monkeypatch, argv, code):
    _provision(workspace, capsys)
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out.endswith("accept interaction? [y/N] REJECT\n") and err == ""


def test_authority_init_never_overwrites(workspace, capsys, monkeypatch):
    _provision(workspace, capsys)  # the store now holds a manufacturer
    kept = ["s.tltlog", "authority.tltkey", "authority.tltpub"]
    before = {name: (workspace / name).read_bytes() for name in kept}

    def no_draw(*_args, **_kwargs):
        raise AssertionError("a key was drawn")

    monkeypatch.setattr(crypto, "generate_keypair", no_draw)
    for store, key in [("s.tltlog", "new.tltkey"), ("new.tltlog", "authority.tltkey")]:
        assert main(["authority", "init", "--store", store, "--key", key]) == 2
        err = capsys.readouterr().err
        assert err.startswith("UsageError: ") and err.count("\n") == 1
    assert {name: (workspace / name).read_bytes() for name in kept} == before
    assert not list(workspace.glob("new.*"))


_REGISTER = ["mfr", "register", "--store", "s.tltlog", "--authority-key", "authority.tltkey", "--info", "Other"]
_SIGN_FW = ["mfr", "sign-fw", "--store", "s.tltlog", "--key", "acme.tltkey", "--cert", "acme.tltdoc",
            "--image", "fw.bin", "--meta", "lock v2.0"]
_BIRTH = ["device", "birth", "--store", "s.tltlog", "--mfr-key", "acme.tltkey", "--mfr-cert", "acme.tltdoc",
          "--info", "other lock"]


@pytest.mark.parametrize("argv, kept", [
    (_REGISTER + ["--key", "acme.tltkey"], ["acme.tltkey", "acme.tltdoc"]),
    (_REGISTER + ["--key", "new.tltkey", "--cert-out", "acme.tltdoc"], ["acme.tltdoc"]),
    (_REGISTER + ["--key", "nodir/new.tltkey"], []),
    (_BIRTH + ["--out", "dev.tltdev"], ["dev.tltdev", "dev.tltkey"]),
    (_BIRTH + ["--out", "nodir/new.tltdev"], []),
    (_SIGN_FW + ["--out", "fw.tltdoc"], ["fw.tltdoc"]),
    (_SIGN_FW + ["--out", "nodir/new.tltdoc"], []),
], ids=["register-again", "register-onto-a-certificate", "register-into-no-directory",
        "birth-again", "birth-into-no-directory", "sign-fw-again", "sign-fw-into-no-directory"])
def test_register_and_birth_never_replace_files(workspace, capsys, monkeypatch, argv, kept):
    """A write onto an existing output, or into a missing directory, is refused before any key or record."""
    _provision(workspace, capsys)
    kept = ["s.tltlog", *kept]
    before = {name: (workspace / name).read_bytes() for name in kept}

    def refuse(what):
        def fail(*_args, **_kwargs):
            raise AssertionError(what)
        return fail

    monkeypatch.setattr(crypto, "generate_keypair", refuse("a key was drawn"))
    monkeypatch.setattr(crypto, "load_secret_key", refuse("a key was loaded"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("UsageError: ") and err.count("\n") == 1
    assert {name: (workspace / name).read_bytes() for name in kept} == before
    assert not list(workspace.glob("new.*")) and not (workspace / "nodir").exists()


def test_sign_fw_of_a_registered_firmware_writes_no_file(workspace, capsys):
    """The store refuses a firmware document it already holds, before sign-fw writes its output."""
    _provision(workspace, capsys)
    before = (workspace / "s.tltlog").read_bytes()
    argv = _SIGN_FW[:-1] + ["lock v1.0", "--out", "again.tltdoc"]  # the provisioned firmware, signed again
    assert main(argv) == 1
    assert capsys.readouterr().err == "ConstraintViolation: firmware already registered\n"
    assert (workspace / "s.tltlog").read_bytes() == before
    assert not (workspace / "again.tltdoc").exists()


# ---------------------------------------------------------------------------
# All-or-nothing writes
# ---------------------------------------------------------------------------

def _files(ws) -> dict:
    return {p.name: p.read_bytes() for p in ws.iterdir()}


def test_an_unwritable_output_leaves_the_store_as_it_was(workspace, capsys):
    assert main(["authority", "init", "--store", "s.tltlog", "--key", "a.tltkey"]) == 0
    capsys.readouterr()
    before = _files(workspace)
    assert main(["mfr", "register", "--store", "s.tltlog", "--authority-key", "a.tltkey", "--key", "m.tltkey",
                 "--info", "acme", "--cert-out", "/proc/version.tltdoc"]) == 1
    assert capsys.readouterr().err.startswith("FileUnwritable: /proc/version.tltdoc: ")
    assert _files(workspace) == before  # no record, no m.tltkey, no temp file


@pytest.mark.parametrize("argv, theirs", [
    (_REGISTER + ["--key", "new.tltkey"], "new.tltkey"),
    (_SIGN_FW + ["--out", "new.tltdoc"], "new.tltdoc"),
    (_BIRTH + ["--out", "new.tltdev"], "new.tltdev"),
], ids=["mfr-register", "mfr-sign-fw", "device-birth"])
def test_an_output_that_appears_while_the_store_is_locked_is_kept(workspace, capsys, monkeypatch, argv, theirs):
    """A concurrent writer creates an output after the command checked it and before it stages its files."""
    _provision(workspace, capsys)
    load = store_mod.load_store

    def another_writer_creates_it(path):
        (workspace / theirs).write_bytes(b"theirs")
        return load(path)

    monkeypatch.setattr(store_mod, "load_store", another_writer_creates_it)
    before = _files(workspace)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"FileUnwritable: {theirs}: File exists\n"
    assert (workspace / theirs).read_bytes() == b"theirs"
    assert not list(workspace.glob(".*.tmp"))
    assert _files(workspace) == {**before, theirs: b"theirs"}  # the log too: no record without its files


def test_every_output_is_owner_only(workspace, capsys):
    umask = os.umask(0o022)
    try:
        _provision(workspace, capsys)
    finally:
        os.umask(umask)
    written = ["s.tltlog", "authority.tltkey", "authority.tltpub", "acme.tltkey", "acme.tltdoc", "fw.tltdoc",
               "dev.tltdev", "dev.tltkey"]
    assert {name: stat.S_IMODE((workspace / name).stat().st_mode) for name in written} == dict.fromkeys(written, 0o600)


class _Faults:
    """The os module as documents.write_files sees it, whose nth write point raises OSError."""

    def __init__(self, n: int):
        self.n, self.points, self.output = n, [], None

    def __getattr__(self, name):
        return getattr(os, name)

    def _point(self, kind: str, output: str) -> None:
        self.points.append((kind, output))
        if len(self.points) == self.n:
            raise OSError(errno.EIO, "injected fault")

    def open(self, tmp, flags, mode):
        self.output = os.path.basename(tmp)[1:].rsplit(".", 2)[0]  # .<name>.<pid>.tmp
        self._point("open", self.output)
        return os.open(tmp, flags, mode)

    def open_file(self, fd, mode):  # the builtin open, for the temp file's writes
        f = open(fd, mode)
        write = f.write

        def faulty_write(data):
            self._point("write", self.output)
            return write(data)

        f.write = faulty_write
        return f

    def fsync(self, fd):
        self._point("fsync", self.output)
        os.fsync(fd)

    def link(self, src, dst):
        self._point("place", os.path.basename(dst))
        os.link(src, dst)

    def replace(self, src, dst):
        self._point("place", os.path.basename(dst))
        os.replace(src, dst)


_INSTALL = ["device", "install", "--store", "s.tltlog", "--device", "dev.tltdev", "--fw", "fw.tltdoc",
            "--image", "fw.bin", "--mfr-cert", "acme.tltdoc", "--instinfo", "slot=1"]
_WRITES = {
    "authority-init": ["authority", "init", "--store", "t.tltlog", "--key", "t.tltkey"],
    "mfr-register": _REGISTER + ["--key", "new.tltkey"],
    "mfr-sign-fw": _SIGN_FW + ["--out", "new.tltdoc"],
    "device-birth": _BIRTH + ["--out", "new.tltdev"],
    "device-install": _INSTALL,
    "device-configure": ["device", "configure", "--store", "s.tltlog", "--device", "dev.tltdev",
                         "--config", "cfg.json", "--seq", "2"],
}


@pytest.mark.parametrize("argv", list(_WRITES.values()), ids=list(_WRITES))
def test_a_failed_write_leaves_the_files_before_or_after(workspace, capsys, monkeypatch, argv):
    """Each write point of the command raises OSError in turn (each temp file's open, write and fsync, then each
    placement; placing the log is the commit). At or before the commit every file is as it was; after it, the store
    and the files placed so far are the new ones. Either way the command exits 1 and names the file it did not write."""
    _provision(workspace, capsys)
    argv = ["--seed", "7", *argv]  # each run draws the same keys, so writes the same bytes
    log = argv[argv.index("--store") + 1]
    before = _files(workspace)
    assert main(argv) == 0
    capsys.readouterr()
    after = _files(workspace)
    outputs = [name for name in after if after[name] != before.get(name) and name != log]
    committed = []
    for n in range(1, 100):
        for name in set(_files(workspace)) - set(before):
            (workspace / name).unlink()
        for name, data in before.items():
            (workspace / name).write_bytes(data)
        faults = _Faults(n)
        with monkeypatch.context() as m:
            m.setattr(documents, "os", faults)
            m.setattr(documents, "open", faults.open_file, raising=False)
            code = main(argv)
        out, err = capsys.readouterr()
        if len(faults.points) < n:
            break
        placed = [name for kind, name in faults.points[:-1] if kind == "place"]
        assert (code, out, err) == (1, "", f"FileUnwritable: {faults.points[-1][1]}: injected fault\n")
        assert _files(workspace) == {**before, **{name: after[name] for name in placed}}
        committed.append(log in placed)
    assert (code, _files(workspace)) == (0, after)  # the first run with no fault left
    assert committed == [False] * (3 * len(outputs) + 4) + [True] * len(outputs)


@pytest.mark.parametrize("with_store", [True, False], ids=["store", "no-store"])
def test_an_install_that_leaves_the_device_failed_writes_nothing(workspace, capsys, with_store):
    """A configuration slot signed by another key keeps the device failed, so the install records nothing."""
    _provision(workspace, capsys)
    dev = load_device(workspace / "dev.tltdev")
    _, foreign_sk = crypto.generate_keypair(crypto.SeededRandomSource(5))
    dev.cfg = documents.make_configuration_document(b"forged", dev.uuid, 2, foreign_sk)
    (workspace / "dev.tltdev").write_bytes(encode_device(dev))
    before = _files(workspace)
    argv = _INSTALL if with_store else [a for a in _INSTALL if a not in ("--store", "s.tltlog")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "NotOperational: device is integrity_failed\n")
    assert _files(workspace) == before


# ---------------------------------------------------------------------------
# Store serving
# ---------------------------------------------------------------------------

def test_serve_rejects_out_of_range_port(workspace, capsys, monkeypatch):
    assert main(["authority", "init", "--store", "s.tltlog", "--key", "a.tltkey"]) == 0
    capsys.readouterr()

    def no_server(*_args, **_kwargs):
        raise AssertionError("a server was started")

    monkeypatch.setattr(netstore, "StoreServer", no_server)
    assert main(["store", "serve", "--store", "s.tltlog", "--port", "99999"]) == 2
    assert capsys.readouterr().err == "UsageError: argument --port: port must be 0..65535, not '99999'\n"


@pytest.mark.parametrize("address, complaint", [
    ("127.0.0.1:99999", "port must be 0..65535, not '99999'"),
    ("nocolon", "port must be 0..65535, not 'nocolon'"),
    ("host:", "port must be 0..65535, not ''"),
    pytest.param("\udcff:7345", "not a host name: '\\udcff'", id="not-utf8-host"),
    pytest.param(f"{'a' * 64}:7345", f"not a host name: '{'a' * 64}'", id="64-byte-label"),  # DNS allows 63
])
def test_challenge_rejects_a_bad_store_address(workspace, capsys, monkeypatch, address, complaint):
    def no_client(*_args, **_kwargs):
        raise AssertionError("a store client was made")

    monkeypatch.setattr(netstore, "StoreClient", no_client)
    assert main(["verify", "challenge", "--connect", address, "--device", "dev.tltdev"]) == 2
    assert capsys.readouterr().err == f"UsageError: argument --connect: {complaint}\n"


@contextlib.contextmanager
def _serving():
    """`tlt store serve --port 0` on s.tltlog in a subprocess; yields the process and its port."""
    with subprocess.Popen(
        [sys.executable, "-m", "tlt.cli", "store", "serve", "--store", "s.tltlog", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
    ) as server:
        try:
            banner = server.stdout.readline().decode()
            assert banner.startswith("serving s.tltlog on 127.0.0.1:")
            yield server, int(banner.rsplit(":", 1)[1])
        finally:
            server.kill()


def test_serve_and_remote_challenge(workspace, capsys):
    _provision(workspace, capsys)
    with _serving() as (server, port):
        dev = load_device(workspace / "dev.tltdev")
        with StoreClient("127.0.0.1", port) as client:
            view = client.lookup_device(dev.uuid)
        assert view.certificate.field(documents.DEV_INFO) == b"smart lock"

        # Development mode shows an unclosed socket as a ResourceWarning; here it is an error.
        challenge = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "tlt.cli",
             "verify", "challenge", "--connect", f"127.0.0.1:{port}", "--device", "dev.tltdev", "--auto-accept"],
            capture_output=True, text=True, env=subprocess_env(), timeout=30,
        )
        assert challenge.returncode == 0
        assert "gate=1" in challenge.stdout
        assert challenge.stderr == ""

        server.send_signal(signal.SIGINT)  # `store serve` runs until interrupted
        _, err = server.communicate(timeout=10)
    assert server.returncode == 0
    assert err == b""


def test_serve_exits_on_sigint_with_a_client_connected(workspace, capsys):
    """A client that keeps its connection open, as StoreClient does, does not hold the server past SIGINT."""
    _provision(workspace, capsys)
    with _serving() as (server, port), StoreClient("127.0.0.1", port) as client:
        client.lookup_device(load_device(workspace / "dev.tltdev").uuid)  # the connection stays open
        started = time.monotonic()
        server.send_signal(signal.SIGINT)
        _, err = server.communicate(timeout=2 * netstore.IDLE_TIMEOUT)
        elapsed = time.monotonic() - started
    assert server.returncode == 0
    assert err == b""
    assert elapsed < 2  # not IDLE_TIMEOUT


def test_serve_on_a_busy_port_is_unavailable(workspace, capsys):
    assert main(["authority", "init", "--store", "s.tltlog", "--key", "a.tltkey"]) == 0
    capsys.readouterr()
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        assert main(["store", "serve", "--store", "s.tltlog", "--port", str(port)]) == 1
    busy = f"[Errno {errno.EADDRINUSE}] {os.strerror(errno.EADDRINUSE)}"
    assert capsys.readouterr() == ("", f"StoreUnavailable: serve on 127.0.0.1:{port}: {busy}\n")


@pytest.mark.parametrize("records", [1, 200])
def test_a_closed_stdout_is_unwritable(workspace, stack, records):
    """`tlt store dump` into a pipe that nobody reads, whether its output is still buffered at the end (1 record) or
    fills the buffer first (200 records)."""
    st = Store(stack.root) if records == 1 else stack.store
    for seq in range(1, records - len(st.records) + 1):
        st.register("configuration", stack.dev.apply_configuration(b"cfg %d" % seq, seq))
    st.persist(workspace / "s.tltlog")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "tlt.cli", "store", "dump", "--store", "s.tltlog"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=subprocess_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert len(load_store(workspace / "s.tltlog").records) == records
    assert (child.returncode, child.stderr) == (1, "FileUnwritable: <stdout>: Broken pipe\n")


def test_a_full_stdout_is_unwritable(workspace, stack):
    """`tlt store dump > /dev/full`: the flush at the end fails with ENOSPC."""
    stack.store.persist(workspace / "s.tltlog")
    with open("/dev/full", "w") as full:
        child = subprocess.run(
            [sys.executable, "-m", "tlt.cli", "store", "dump", "--store", "s.tltlog"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=subprocess_env(), timeout=60,
        )
    assert (child.returncode, child.stderr) == (1, f"FileUnwritable: <stdout>: {os.strerror(errno.ENOSPC)}\n")


def test_an_output_name_too_long_is_unwritable(workspace, capsys):
    assert main(["authority", "init", "--store", "s.tltlog", "--key", "authority.tltkey"]) == 0
    capsys.readouterr()
    before = _files(workspace)
    key = "a" * 300 + ".tltkey"
    assert main(["mfr", "register", "--store", "s.tltlog", "--authority-key", "authority.tltkey", "--key", key,
                 "--info", "acme"]) == 1
    assert capsys.readouterr() == ("", f"FileUnwritable: {key}: {os.strerror(errno.ENAMETOOLONG)}\n")
    assert _files(workspace) == before


def test_a_store_that_cannot_be_locked_is_unavailable(workspace, capsys, monkeypatch):
    assert main(["authority", "init", "--store", "s.tltlog", "--key", "authority.tltkey"]) == 0
    capsys.readouterr()
    before = _files(workspace)

    def no_locks(*_args):
        raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

    monkeypatch.setattr(store_mod.fcntl, "flock", no_locks)
    assert main(["mfr", "register", "--store", "s.tltlog", "--authority-key", "authority.tltkey", "--key", "m.tltkey",
                 "--info", "acme"]) == 1
    assert capsys.readouterr() == ("", f"StoreUnavailable: s.tltlog: cannot lock: {os.strerror(errno.ENOLCK)}\n")
    assert _files(workspace) == before


def test_a_failed_stdin_read_is_unreadable(workspace, capsys, monkeypatch):
    class FailingStdin:
        def readline(self):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(sys, "stdin", FailingStdin())
    assert main(["verify", "decide"]) == 1
    assert capsys.readouterr() == ("", f"FileUnreadable: <stdin>: {os.strerror(errno.EIO)}\n")


# ---------------------------------------------------------------------------
# Threat harness subcommand
# ---------------------------------------------------------------------------

def test_threats_run_all(workspace, capsys):
    assert main(["--seed", "21", "threats", "run"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "7/7 scenarios passed" in out


def test_threats_run_single(workspace, capsys):
    assert main(["--seed", "21", "threats", "run", "TA05"]) == 0
    out = capsys.readouterr().out
    assert "SCENARIO TA05" in out
    assert "state=unknown_device" in out


def test_threats_run_deterministic(workspace, capsys):
    main(["--seed", "77", "threats", "run"])
    first = capsys.readouterr().out
    main(["--seed", "77", "threats", "run"])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# Errors, env defaults, global flags
# ---------------------------------------------------------------------------

_LEAVES = [("authority", "init"), ("mfr", "register"), ("mfr", "sign-fw"), ("device", "birth"),
           ("device", "install"), ("device", "configure"), ("device", "advertise"), ("device", "respond"),
           ("store", "serve"), ("store", "dump"), ("verify", "scan"), ("verify", "challenge"),
           ("verify", "decide"), ("threats", "run")]


@pytest.mark.parametrize("actor, command", _LEAVES, ids=[" ".join(leaf) for leaf in _LEAVES])
def test_every_command_has_help(workspace, capsys, actor, command):
    assert main([actor, command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: tlt {actor} {command} ")


@pytest.mark.parametrize("actor", sorted({actor for actor, _ in _LEAVES}))
def test_an_actor_alone_is_a_missing_subcommand(workspace, capsys, actor):
    assert main([actor]) == 2
    assert capsys.readouterr().err == "UsageError: missing subcommand\n"


def test_unknown_subcommand_exits_2(workspace, capsys):
    assert main(["frobnicate"]) == 2
    assert "UsageError" in capsys.readouterr().err
    assert main(["device", "explode"]) == 2
    assert "UsageError" in capsys.readouterr().err
    assert main([]) == 2


def test_missing_store_flag(workspace, capsys):
    assert main(["authority", "init", "--key", "a.tltkey"]) == 2
    assert "UsageError" in capsys.readouterr().err


def test_store_env_default(workspace, capsys, monkeypatch):
    monkeypatch.setenv("TLT_STORE", str(workspace / "env.tltlog"))
    assert main(["authority", "init", "--key", "authority.tltkey"]) == 0
    assert (workspace / "env.tltlog").exists()


def test_error_code_name_on_stderr(workspace, capsys):
    _provision(workspace, capsys)
    blob = bytearray((workspace / "s.tltlog").read_bytes())
    blob[len(blob) // 2] ^= 0x01
    (workspace / "s.tltlog").write_bytes(bytes(blob))
    assert main(["store", "dump", "--store", "s.tltlog"]) == 1
    assert "CorruptLog" in capsys.readouterr().err


_NOT_UTF8 = "\udcff"  # how argv decodes the byte 0xff


@pytest.mark.parametrize("argv, code, err", [
    (["verify", "decide", "--line", "garbage"], 1, "ParseError: not a VERDICT line\n"),
    (["verify", "decide"], 1, "ParseError: stdin is not utf-8\n"),
    (["verify", "decide", "--line", _OPEN_VERDICT], 1,
     "ParseError: stdin is not utf-8\n"),  # the accept prompt reads stdin
    (["verify", "decide", "--auto-accept", "--line", f"VERDICT uuid={_UUID} state=unknown_state gate=1 reason=x"], 1,
     "ParseError: VERDICT line has gate=1 but state=unknown_state\n"),  # the gate follows the state
    (["device", "respond", "--device", "dev.tltdev", "--challenge", "zz"], 2,
     "UsageError: argument --challenge: not hex: 'zz'\n"),
    (["verify", "scan", "--frame", "zz"], 2, "UsageError: argument --frame: not hex: 'zz'\n"),
    (["authority", "init", "--store", "s.tltlog", "--key", "a.tltkey", "--info", _NOT_UTF8], 2,
     "UsageError: argument --info: not UTF-8: '\\udcff'\n"),
    (["mfr", "sign-fw", "--key", "acme.tltkey", "--cert", "acme.tltdoc", "--image", "fw.bin", "--meta", _NOT_UTF8,
      "--out", "fw.tltdoc"], 2, "UsageError: argument --meta: not UTF-8: '\\udcff'\n"),
    (["device", "install", "--device", "dev.tltdev", "--fw", "fw.tltdoc", "--image", "fw.bin", "--mfr-cert",
      "acme.tltdoc", "--instinfo", _NOT_UTF8], 2, "UsageError: argument --instinfo: not UTF-8: '\\udcff'\n"),
    (["store", "serve", "--store", "s.tltlog", "--host", _NOT_UTF8], 2,
     "UsageError: argument --host: not a host name: '\\udcff'\n"),
    (["authority", "init", "--store", f"{_NOT_UTF8}.tltlog", "--key", "a.tltkey"], 2,
     "UsageError: argument --store: not UTF-8: '\\udcff.tltlog'\n"),
    (["authority", "init", "--store", "s.tltlog", "--key", ""], 2, "UsageError: argument --key: no file name in ''\n"),
    (_BIRTH + ["--out", "/"], 2, "UsageError: argument --out: no file name in '/'\n"),
], ids=["decide-line", "decide-stdin", "decide-prompt", "decide-gate", "respond-challenge", "scan-frame", "init-info",
        "sign-fw-meta", "install-instinfo", "serve-host", "init-store", "init-key", "birth-out"])
def test_bad_input_is_reported_by_its_error_class(workspace, capsys, monkeypatch, argv, code, err):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8"))  # strict
    assert main(argv) == code
    assert capsys.readouterr().err == err
    assert not list(workspace.iterdir())


@pytest.mark.parametrize("argv", [
    ["store", "dump", "--store", "nothing.tltlog"],
    ["verify", "challenge", "--store", "s.tltlog", "--device", "nothing.tltdev"],
    ["mfr", "sign-fw", "--key", "authority.tltkey", "--cert", "nothing.tltdoc", "--image", "fw.bin",
     "--meta", "v1", "--out", "fw.tltdoc"],
], ids=["store", "device", "cert"])
def test_a_missing_input_file_is_reported_as_unreadable(workspace, capsys, argv):
    assert main(["authority", "init", "--store", "s.tltlog", "--key", "authority.tltkey"]) == 0
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("FileUnreadable: ") and err.count("\n") == 1
    assert "'nothing." in err


def test_concurrent_writers_lose_no_record(workspace):
    """`mfr register` runs started together on one store: each that exits 0 leaves its record."""
    assert main(["authority", "init", "--store", "s.tltlog", "--key", "authority.tltkey"]) == 0
    rounds, per_round = 2, 8
    exits, errs = [], []
    for r in range(rounds):
        writers = [
            subprocess.Popen(
                [sys.executable, "-m", "tlt.cli", "mfr", "register", "--store", "s.tltlog",
                 "--authority-key", "authority.tltkey", "--key", f"m{r}-{i}.tltkey", "--info", f"Maker {r}-{i}"],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=subprocess_env(),
            )
            for i in range(per_round)
        ]
        for w in writers:
            errs.append(w.communicate(timeout=60)[1])
            exits.append(w.returncode)
    kinds = [line.split(" ", 1)[0] for line in (workspace / "s.tltlog").read_text().splitlines()]
    assert exits == [0] * (rounds * per_round), errs
    assert kinds.count("manufacturer") == rounds * per_round


def test_concurrent_authority_inits_have_one_winner(workspace):
    """`authority init` runs released together on one store: one exits 0 and its root is the log's, the rest write nothing."""
    # Each child imports tlt, says it is ready, then waits for one byte on stdin; all are released at once.
    child = "import sys; from tlt.cli import main; print(flush=True); sys.stdin.read(1); sys.exit(main(sys.argv[1:]))"
    for r in range(3):
        with contextlib.ExitStack() as stack:
            inits = [
                stack.enter_context(subprocess.Popen(
                    [sys.executable, "-c", child, "authority", "init", "--store", f"s{r}.tltlog", "--key", f"a{r}-{i}.tltkey"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(), text=True,
                ))
                for i in range(6)
            ]
            assert [p.stdout.readline() for p in inits] == ["\n"] * len(inits)
            for p in inits:
                p.stdin.write("x")
                p.stdin.flush()
            outs = [p.communicate(timeout=60) for p in inits]
        exits = [p.returncode for p in inits]
        assert sorted(exits) == [0] + [2] * 5, outs
        (winner_out, _), = [out for out, code in zip(outs, exits) if code == 0]
        root = documents.doc_digest(load_store(workspace / f"s{r}.tltlog").root).hex()
        assert winner_out.splitlines()[0] == f"root={root}"
        for i, ((_, err), code) in enumerate(zip(outs, exits)):
            if code == 2:
                assert err.startswith("UsageError: ") and err.count("\n") == 1
                assert not list(workspace.glob(f"a{r}-{i}.*"))


def test_seeded_runs_reproducible(workspace, capsys):
    assert main(["--seed", "5", "authority", "init", "--store", "a.tltlog", "--key", "a.tltkey"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert main(["--seed", "5", "authority", "init", "--store", "b.tltlog", "--key", "b.tltkey"]) == 0
    second = capsys.readouterr().out.splitlines()[0]
    assert first == second


def test_trace_frames(workspace, capsys):
    _provision(workspace, capsys)
    assert main(["--trace-frames", "device", "advertise", "--device", "dev.tltdev"]) == 0
    err = capsys.readouterr().err
    assert "FRAME enc 5401" in err


def test_help_exits_zero(workspace, capsys):
    assert main(["--help"]) == 0
    assert "tlt" in capsys.readouterr().out
