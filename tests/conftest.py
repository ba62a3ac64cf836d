from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings

from tlt import crypto, documents
from tlt.device import DeviceState, device_birth, encode_device
from tlt.store import Store

# Every property test draws the same examples on every run, so a failure
# reproduces from the commit alone; no example database is read or written.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def subprocess_env() -> dict:
    """This environment with the repository's src first on PYTHONPATH, for a child `python` that imports tlt."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_device(dev: DeviceState, path: Path) -> None:
    """dev's `.tltdev` file at path and its secret key beside it, as `tlt device birth` writes them."""
    key = path.with_suffix(crypto.SECRET_KEY_EXT)
    documents.write_files({key: crypto.key_bytes(dev.secret_key), path: encode_device(dev)}, {key, path})


@dataclass
class Stack:
    """Fully provisioned honest ecosystem used across the suite."""

    rng: crypto.SeededRandomSource
    authority_sk: crypto.SecretKey
    root: documents.Document
    store: Store
    mfr_sk: crypto.SecretKey
    mcrt: documents.Document
    fw_image: bytes
    fw_doc: documents.Document
    dev: DeviceState
    dcrt: documents.Document
    inst: documents.Document


def build_stack(seed: int = 1234) -> Stack:
    rng = crypto.SeededRandomSource(seed)
    authority_pk, authority_sk = crypto.generate_keypair(rng)
    root = documents.make_root_certificate("Test Authority", authority_pk, authority_sk)
    store = Store(root)

    mfr_pk, mfr_sk = crypto.generate_keypair(rng)
    mcrt = documents.make_manufacturer_certificate("Acme Devices", mfr_pk, authority_sk, rng)
    store.register("manufacturer", mcrt)

    fw_image = crypto.random_bytes(512, rng)
    fw_doc = documents.sign_firmware(fw_image, "lock-9000 v1.0", mfr_sk, mcrt)
    store.register("firmware", fw_doc)

    dev, dcrt = device_birth(mcrt, mfr_sk, root, "lock-9000 smart lock", rng)
    store.register("device", dcrt)

    inst = dev.install_firmware(fw_doc, fw_image, [mcrt], "slot=0")
    store.register("installation", inst)
    return Stack(rng, authority_sk, root, store, mfr_sk, mcrt, fw_image, fw_doc, dev, dcrt, inst)


@pytest.fixture
def rng():
    return crypto.SeededRandomSource(99)


@pytest.fixture
def stack():
    return build_stack()
