from __future__ import annotations

from dataclasses import dataclass

import pytest

from tlt import crypto, documents
from tlt.device import DeviceState, device_birth
from tlt.store import Store


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


def build_stack(seed: int = 1234, register_install: bool = True) -> Stack:
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
    if register_install:
        store.register("installation", inst)
    return Stack(rng, authority_sk, root, store, mfr_sk, mcrt, fw_image, fw_doc, dev, dcrt, inst)


@pytest.fixture
def rng():
    return crypto.SeededRandomSource(99)


@pytest.fixture
def stack():
    return build_stack()
