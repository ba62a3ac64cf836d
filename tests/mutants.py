"""One-line mutants of the paper's controls (C01-C06), each of which the tier-1 tests must kill.

Run from anywhere: `python tests/mutants.py`. The runner copies src, tests and
pyproject.toml into a temporary directory and first runs every row's tests
there unchanged, which must pass. Then, for each row, it replaces one line of
one file (the line must occur in it exactly once; indentation is kept) and runs
`pytest -x -q` on the row's test files against the copy. A mutant counts as
killed only when pytest exits 1, that is, when a test failed. One line per row:

    MUTANT name=<name> controls=<C0n,...> killed=0|1 s=<seconds>

The exit status is 0 only if every mutant was killed; a survivor, a pytest
error, a line that is missing or not unique, or a control with no row makes it
1. Pytest does not collect this file (it is not named test_*.py).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CONTROLS = ("C01", "C02", "C03", "C04", "C05", "C06")  # the paper's controls (threats.CONTROLS); each has a mutant
STORE, STORE_TESTS = "src/tlt/store.py", ("tests/test_store.py",)
VERIFIER, VERIFIER_TESTS = "src/tlt/verifier.py", ("tests/test_verifier.py",)
DOCUMENTS, DOCUMENTS_TESTS = "src/tlt/documents.py", ("tests/test_documents.py",)
DEVICE, DEVICE_TESTS = "src/tlt/device.py", ("tests/test_device.py",)
NETSTORE, NETSTORE_TESTS = "src/tlt/netstore.py", ("tests/test_netstore.py",)
TRANSPORT, TRANSPORT_TESTS = "src/tlt/transport.py", ("tests/test_transport.py",)

# (name, the controls it breaks, file, line as it stands, stripped of indentation, replacement, test files)
MUTANTS = [
    ("unknown-kind", "C06", STORE, "if kind not in documents.DOC_TYPE_NAMES.values():", "if False:", STORE_TESTS),
    ("root-kind", "C06", STORE, 'if kind == "root":', "if False:", STORE_TESTS),
    ("kind-type-mismatch", "C06", STORE, "if documents.DOC_TYPE_NAMES[doc.doc_type] != kind:", "if False:",
     STORE_TESTS),
    ("skip-verify-chain", "C06", STORE,
     "documents.verify_chain([doc, *self._resolve_intermediates(doc), self.root], self.root)",
     "self._resolve_intermediates(doc)", STORE_TESTS),
    ("missing-issuer", "C06", STORE, 'raise UnknownIssuer(f"{documents.DOC_TYPE_NAMES[key[0]]} is not registered")',
     "break", STORE_TESTS),
    ("duplicate-firmware", "C02", STORE, "if digest in self._firmware:", "if False:", STORE_TESTS),
    ("duplicate-certificate", "C01", STORE, "if key in self._certs:", "if False:", STORE_TESTS),
    ("unregistered-firmware", "C02", STORE, "if doc.field(documents.INST_FW_DOC_DIGEST) not in self._firmware:",
     "if False:", STORE_TESTS),
    ("configuration-before-installation", "C05", STORE, "if inst is None:", "if False:", STORE_TESTS),
    ("config-seq-not-rising", "C05", STORE, "if documents.config_seq(doc) <= latest_seq:",
     "if documents.config_seq(doc) < latest_seq:", STORE_TESTS),
    ("current-always", "C06", STORE, "current=self._current[uuid][0] == state_digest,", "current=True,", STORE_TESTS),
    ("log-seq", "C06", STORE, "if seq_text != str(seq):", "if False:", STORE_TESTS),
    ("log-lowercase-hex", "C06", STORE,
     "if not raw or raw.hex() != hex_text:  # fromhex accepts upper case and skips whitespace", "if not raw:",
     STORE_TESTS),
    ("log-root-first", "C06", STORE, 'elif kind == "root":', "elif True:", STORE_TESTS),
    ("response-signature", "C01", VERIFIER, "if not crypto.verify(device_view.public_key, signed, signature):",
     "if False:", VERIFIER_TESTS),
    ("nonce-echo", "C06", VERIFIER, "if echoed != session.challenge:", "if False:", VERIFIER_TESTS),
    ("session-consumed", "C06", VERIFIER, "if self._sessions.get(session.uuid) is not session:", "if False:",
     VERIFIER_TESTS),
    ("state-currency", "C06", VERIFIER, "if not state_view.current:", "if False:", VERIFIER_TESTS),
    ("response-length", "C01", VERIFIER, "if len(response) != RESPONSE_LEN:", "if False:", VERIFIER_TESTS),
    ("document-field-count", "C06", DOCUMENTS, "if len(self.values) != len(t.lengths):", "if False:", DOCUMENTS_TESTS),
    ("device-uuid-version", "C01", DOCUMENTS,
     "if self.doc_type == DOC_DEVICE and not crypto.is_uuid4(self.field(DEV_UUID)):", "if False:", DOCUMENTS_TESTS),
    ("reader-bounds", "C06", DOCUMENTS, "if end > len(self._data):", "if False:", DOCUMENTS_TESTS),
    ("chain-issuer-type", "C01 C03", DOCUMENTS, "if issuer.doc_type != _TYPES[child.doc_type].issuer:", "if False:",
     DOCUMENTS_TESTS),
    ("chain-identity-binding", "C01 C03", DOCUMENTS, "if issuer_key(child) not in (None, certificate_key(issuer)):",
     "if False:", DOCUMENTS_TESTS),
    ("chain-anchor", "C01 C03", DOCUMENTS, "if encode_canonical(anchor) != encode_canonical(root):", "if False:",
     DOCUMENTS_TESTS),
    ("chain-root-self-check", "C03 C04", DOCUMENTS, "signatures_verify(anchor, embedded_public_key(anchor))", "pass",
     DOCUMENTS_TESTS),
    ("install-chain", "C03", DEVICE,
     "documents.verify_chain([fw_doc, *chain, self.trusted_root], self.trusted_root)", "pass", DEVICE_TESTS),
    ("install-not-firmware", "C03", DEVICE, "if fw_doc.doc_type != documents.DOC_FIRMWARE:", "if False:",
     DEVICE_TESTS),
    ("install-image-digest", "C03", DEVICE,
     "if crypto.digest(fw_image) != fw_doc.field(documents.FW_IMAGE_DIGEST):", "if False:", DEVICE_TESTS),
    ("install-marks-failed-operational", "C04", DEVICE,
     "if self.boot_status is BootStatus.INTEGRITY_FAILED:  # judged again: a bad configuration slot keeps it failed",
     "if False:", DEVICE_TESTS),
    ("boot-verified-digest", "C02 C04", DEVICE,
     "ok = inst.field(documents.INST_FW_DOC_DIGEST) in self.verified_digests", "ok = True", DEVICE_TESTS),
    ("boot-slot-type-and-uuid", "C04", DEVICE,
     "if doc.doc_type != doc_type or documents.subject_uuid(doc) != self.uuid:", "if False:", DEVICE_TESTS),
    ("boot-slot-signature", "C04 C05", DEVICE, "documents.signatures_verify(doc, self.public_key)", "pass",
     DEVICE_TESTS),
    ("boot-configuration-slot", "C05", DEVICE, "self._check_slot(self.cfg, documents.DOC_CONFIGURATION)", "pass",
     DEVICE_TESTS),
    ("device-file-magic", "C04", DEVICE, 'raise MalformedDocument("not a device state file")', "pass", DEVICE_TESTS),
    ("device-file-version", "C04", DEVICE, 'raise MalformedDocument("unsupported device state version")', "pass",
     DEVICE_TESTS),
    ("device-config-seq", "C05", DEVICE, "if seq <= self.config_seq():", "if False:", DEVICE_TESTS),
    ("dev-answer-issuer", "C01", NETSTORE,
     "if dcrt.doc_type != documents.DOC_DEVICE or documents.issuer_key(dcrt) != documents.certificate_key(mcrt):",
     "if dcrt.doc_type != documents.DOC_DEVICE:", NETSTORE_TESTS),
    ("dev-answer-uuid", "C01", NETSTORE, "if documents.subject_uuid(dcrt) != bytes(uuid):", "if False:",
     NETSTORE_TESTS),
    ("torn-reply", "C06", NETSTORE, 'if not raw.endswith(b"\\n"):  # the store hung up mid-reply', "if False:",
     NETSTORE_TESTS),
    ("message-type", "C01", TRANSPORT, "if received != msg_type:", "if False:", TRANSPORT_TESTS),
    ("data-frame-length", "C06", TRANSPORT, "if DATA_HEADER_LEN + payload_len != len(data):", "if False:",
     TRANSPORT_TESTS),
]


def _pytest(root: Path, tests) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True,
    )
    return run.returncode, run.stdout + run.stderr


def _mutated(text: str, line: str, replacement: str) -> str:
    lines = text.splitlines(keepends=True)
    at = [i for i, old in enumerate(lines) if old.strip() == line]
    if len(at) != 1:
        raise SystemExit(f"line occurs {len(at)} times, not once: {line}")
    old = lines[at[0]]
    lines[at[0]] = old[: len(old) - len(old.lstrip())] + replacement + "\n"
    return "".join(lines)


def main() -> int:
    uncovered = set(CONTROLS) - {control for _, controls, *_ in MUTANTS for control in controls.split()}
    if uncovered:
        raise SystemExit(f"no mutant breaks {', '.join(sorted(uncovered))}")
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(REPO / tree, root / tree, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(REPO / "pyproject.toml", root)
        code, out = _pytest(root, sorted({test for *_, tests in MUTANTS for test in tests}))
        if code != 0:
            raise SystemExit(f"the unmutated tests fail (pytest exit {code}):\n{out}")
        for name, controls, file, line, replacement, tests in MUTANTS:
            path = root / file
            original = path.read_text()
            path.write_text(_mutated(original, line, replacement))
            started = time.monotonic()
            try:
                code, out = _pytest(root, tests)
            finally:
                path.write_text(original)
            print(f"MUTANT name={name} controls={controls.replace(' ', ',')} killed={int(code == 1)} "
                  f"s={time.monotonic() - started:.1f}", flush=True)
            if code != 1:
                survivors += 1
                print(out[-2000:], file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
