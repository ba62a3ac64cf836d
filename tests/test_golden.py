"""Byte-identity guard for seeded CLI runs.

`golden_seeded.json` holds the stdout of `tlt --seed 42 threats run` and of a
seeded CLI walkthrough (authority init to verify challenge and store dump),
the frames of its exchange (`--trace-frames`, on stderr), and the final
`.tltlog` bytes. A refactor that changes the order in which
randomness is drawn, or any byte on disk or on stdout, fails this test even
when two runs of the new code agree with each other.

Regenerate only for an intended behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from tlt.cli import main

GOLDEN = Path(__file__).with_name("golden_seeded.json")
THREATS_SHA256 = "6404a728f53a18dbd66b87b2fb5b07a154015b9553fe17304a782a6d18161c70"

# Each step gets its own seed so that no two actors share key material.
WALKTHROUGH = [
    ["authority", "init", "--store", "s.tltlog", "--key", "authority.tltkey", "--info", "Demo Authority"],
    ["mfr", "register", "--store", "s.tltlog", "--authority-key", "authority.tltkey",
     "--key", "acme.tltkey", "--info", "Acme Devices"],
    ["mfr", "sign-fw", "--store", "s.tltlog", "--key", "acme.tltkey", "--cert", "acme.tltdoc",
     "--image", "fw.bin", "--meta", "lock v1.0", "--out", "fw.tltdoc"],
    ["device", "birth", "--store", "s.tltlog", "--mfr-key", "acme.tltkey", "--mfr-cert", "acme.tltdoc",
     "--info", "smart lock", "--out", "dev.tltdev"],
    ["device", "install", "--store", "s.tltlog", "--device", "dev.tltdev", "--fw", "fw.tltdoc",
     "--image", "fw.bin", "--mfr-cert", "acme.tltdoc"],
    ["device", "configure", "--store", "s.tltlog", "--device", "dev.tltdev", "--config", "cfg.json",
     "--seq", "1"],
    ["device", "advertise", "--device", "dev.tltdev"],
    ["device", "respond", "--device", "dev.tltdev", "--challenge", "00112233445566778899aabbccddeeff"],
    ["--trace-frames", "verify", "challenge", "--store", "s.tltlog", "--device", "dev.tltdev",
     "--auto-accept"],
    ["store", "dump", "--store", "s.tltlog"],
]


def _run(argv) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, (argv, code, err.getvalue())
    return out.getvalue(), err.getvalue()


def _walkthrough(workdir: Path) -> dict:
    (workdir / "fw.bin").write_bytes(b"\x90" * 321)
    (workdir / "cfg.json").write_bytes(b'{"mode":"demo"}')
    steps = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for seed, argv in enumerate(WALKTHROUGH, start=40):
            full = ["--seed", str(seed), *argv]
            stdout, stderr = _run(full)
            steps.append({"argv": full, "stdout": stdout, "stderr": stderr})
    finally:
        os.chdir(cwd)
    return {"steps": steps, "tltlog": (workdir / "s.tltlog").read_bytes().decode()}


def _capture() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        walk = _walkthrough(Path(tmp))
    return {"threats_seed_42": _run(["--seed", "42", "threats", "run"])[0], **walk}


def test_seeded_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    fresh = _capture()
    assert hashlib.sha256(fresh["threats_seed_42"].encode()).hexdigest() == THREATS_SHA256
    assert fresh["threats_seed_42"] == golden["threats_seed_42"]
    assert [s["argv"] for s in fresh["steps"]] == [s["argv"] for s in golden["steps"]]
    for got, want in zip(fresh["steps"], golden["steps"]):
        assert (got["stdout"], got["stderr"]) == (want["stdout"], want["stderr"]), got["argv"]
    assert fresh["tltlog"] == golden["tltlog"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_capture(), indent=1) + "\n")
