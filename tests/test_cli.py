from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from tlt import crypto, netstore, transport
from tlt.cli import main
from tlt.device import load_device
from tlt.netstore import StoreClient
from tlt.store import load_store

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_serve_and_remote_challenge(workspace, capsys):
    _provision(workspace, capsys)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "tlt.cli", "store", "serve", "--store", "s.tltlog", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as server:
        try:
            banner = server.stdout.readline().decode()
            assert banner.startswith("serving s.tltlog on 127.0.0.1:")
            port = int(banner.rsplit(":", 1)[1])

            dev = load_device(workspace / "dev.tltdev")
            view = StoreClient("127.0.0.1", port).lookup_device(dev.uuid)
            assert view.dinf == "smart lock"

            assert main(["verify", "challenge", "--connect", f"127.0.0.1:{port}",
                         "--device", "dev.tltdev", "--auto-accept"]) == 0
            assert "gate=1" in capsys.readouterr().out

            server.send_signal(signal.SIGINT)  # `store serve` runs until interrupted
            _, err = server.communicate(timeout=10)
        finally:
            server.kill()
    assert server.returncode == 0
    assert err == b""


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
