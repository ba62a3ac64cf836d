"""One-line mutants of the store's checks, each of which the tier-1 tests must kill.

Run from anywhere: `python tests/mutants.py`. The runner copies src, tests and
pyproject.toml into a temporary directory and first runs every row's tests
there unchanged, which must pass. Then, for each row, it replaces one line of
one file (the line must occur in it exactly once; indentation is kept) and runs
`pytest -x -q` on the row's test files against the copy. A mutant counts as
killed only when pytest exits 1, that is, when a test failed. One line per row:

    MUTANT name=<name> killed=0|1 s=<seconds>

The exit status is 0 only if every mutant was killed; a survivor, a pytest
error or a line that is missing or not unique makes it 1. Pytest does not
collect this file (it is not named test_*.py).
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
STORE, STORE_TESTS = "src/tlt/store.py", ("tests/test_store.py",)

# (name, file, line as it stands, stripped of indentation, replacement, test files)
MUTANTS = [
    ("unknown-kind", STORE, "if kind not in documents.DOC_TYPE_NAMES.values():", "if False:", STORE_TESTS),
    ("root-kind", STORE, 'if kind == "root":', "if False:", STORE_TESTS),
    ("kind-type-mismatch", STORE, "if documents.DOC_TYPE_NAMES[doc.doc_type] != kind:", "if False:", STORE_TESTS),
    ("skip-verify-chain", STORE, "documents.verify_chain([doc, *self._resolve_intermediates(doc), self.root], self.root)",
     "self._resolve_intermediates(doc)", STORE_TESTS),
    ("missing-issuer", STORE, 'raise UnknownIssuer(f"{documents.DOC_TYPE_NAMES[key[0]]} is not registered")', "break",
     STORE_TESTS),
    ("duplicate-firmware", STORE, "if digest in self._firmware:", "if False:", STORE_TESTS),
    ("duplicate-certificate", STORE, "if key in self._certs:", "if False:", STORE_TESTS),
    ("unregistered-firmware", STORE, "if doc.field(documents.INST_FW_DOC_DIGEST) not in self._firmware:", "if False:",
     STORE_TESTS),
    ("configuration-before-installation", STORE, "if inst is None:", "if False:", STORE_TESTS),
    ("config-seq-not-rising", STORE, "if documents.config_seq(doc) <= latest_seq:",
     "if documents.config_seq(doc) < latest_seq:", STORE_TESTS),
    ("current-always", STORE, "current=self._current[uuid][0] == state_digest,", "current=True,", STORE_TESTS),
    ("log-seq", STORE, "if seq_text != str(seq):", "if False:", STORE_TESTS),
    ("log-lowercase-hex", STORE,
     "if not raw or raw.hex() != hex_text:  # fromhex accepts upper case and skips whitespace", "if not raw:",
     STORE_TESTS),
    ("log-root-first", STORE, 'elif kind == "root":', "elif True:", STORE_TESTS),
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
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(REPO / tree, root / tree, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(REPO / "pyproject.toml", root)
        code, out = _pytest(root, sorted({test for *_, tests in MUTANTS for test in tests}))
        if code != 0:
            raise SystemExit(f"the unmutated tests fail (pytest exit {code}):\n{out}")
        for name, file, line, replacement, tests in MUTANTS:
            path = root / file
            original = path.read_text()
            path.write_text(_mutated(original, line, replacement))
            started = time.monotonic()
            try:
                code, out = _pytest(root, tests)
            finally:
                path.write_text(original)
            print(f"MUTANT name={name} killed={int(code == 1)} s={time.monotonic() - started:.1f}", flush=True)
            if code != 1:
                survivors += 1
                print(out[-2000:], file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
