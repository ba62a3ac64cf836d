"""Simulated constrained IoT device.

A device stores only what it operationally needs: its UUID and keypair, the
digest of its own certificate, a copy of the trusted root, digests of
documents it has itself verified, and the full installation/configuration
documents required to recompute its state digest. Everything else lives in
the central store. The boot status is never stored: simulate_boot derives it
from the rest of the state.

Device state persists to `.tltdev` files (binary, documented in
encode_device); the secret key is written separately as a `.tltkey` file and
never appears in the state file. Loading a file boots the device, so a
tampered file that still parses (a document in it must be well-formed) loads
as INTEGRITY_FAILED and the device refuses to attest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

from . import crypto, documents, transport
from .crypto import PublicKey, SecretKey
from .documents import Document
from .errors import (
    ChainInvalid,
    ImageMismatch,
    InvalidKey,
    MalformedDocument,
    NotOperational,
    ParseError,
    StaleSequence,
)

_DEV_MAGIC = b"TLTD"
_DEV_VERSION = 0x02

RESPONSE_LEN = crypto.DIGEST_LEN + crypto.NONCE_LEN + crypto.NONCE_LEN + crypto.SIGNATURE_LEN


class BootStatus(enum.Enum):
    UNPROGRAMMED = 0
    OPERATIONAL = 1
    INTEGRITY_FAILED = 2


@dataclass
class DeviceState:
    """One simulated device; mutate from a single thread at a time."""

    uuid: bytes
    public_key: PublicKey
    secret_key: SecretKey = field(repr=False)
    cert_digest: bytes
    trusted_root: Document
    verified_digests: set[bytes] = field(default_factory=set)
    installation: Document | None = None
    cfg: Document | None = None
    boot_status: BootStatus = BootStatus.UNPROGRAMMED
    rng: object = field(default=None, repr=False, compare=False)

    # -- helpers ----------------------------------------------------------

    def _require_operational(self):
        if self.boot_status != BootStatus.OPERATIONAL:
            raise NotOperational(f"device is {self.boot_status.name.lower()}")

    # -- operations -------------------------------------------------------

    def install_firmware(
        self, fw_doc: Document, fw_image: bytes, chain, instinfo: str
    ) -> Document:
        """Verify, install, and sign a confirmation of installation.

        chain runs from fw_doc's issuer up to, not including, the device's own
        trusted root. The image must match its signed digest; otherwise the
        device state is left untouched.
        """
        documents.verify_chain([fw_doc, *chain, self.trusted_root], self.trusted_root)
        if fw_doc.doc_type != documents.DOC_FIRMWARE:
            raise ChainInvalid("document is not a firmware document")
        if crypto.digest(fw_image) != fw_doc.field(documents.FW_IMAGE_DIGEST):
            raise ImageMismatch("firmware image does not match its signed digest")
        fw_digest = documents.doc_digest(fw_doc)
        inst = documents.make_installation_document(fw_doc, self.uuid, instinfo, self.secret_key)
        self.verified_digests.add(fw_digest)
        self.installation = inst
        if self.boot_status is BootStatus.INTEGRITY_FAILED:  # judged again: a bad configuration slot keeps it failed
            self.simulate_boot()
        else:  # this call has just checked the root and made the installation itself
            self.boot_status = BootStatus.OPERATIONAL
        return inst

    def apply_configuration(self, cfg_payload: bytes, seq: int) -> Document:
        """Accept a configuration and sign it into the device state."""
        self._require_operational()
        if seq <= self.config_seq():
            raise StaleSequence(f"sequence {seq} is not above {self.config_seq()}")
        cfg = documents.make_configuration_document(cfg_payload, self.uuid, seq, self.secret_key)
        self.cfg = cfg
        return cfg

    def config_seq(self) -> int:
        """Sequence of the current configuration (0 before any is applied)."""
        return documents.config_seq(self.cfg) if self.cfg is not None else 0

    def compute_state_digest(self) -> bytes:
        """Digest over the installation and configuration documents."""
        self._require_operational()
        return documents.state_digest(self.installation, self.cfg, self.uuid)

    def advertise(self) -> bytes:
        """Broadcast frame carrying this device's UUID."""
        flags = transport.FLAG_OPERATIONAL if self.boot_status == BootStatus.OPERATIONAL else 0
        return transport.encode_advertisement(self.uuid, flags)

    def handle_challenge(self, challenge: bytes) -> bytes:
        """Signed attestation of current state.

        Response layout: state_digest(32) || challenge(16) || nonce(16) ||
        signature(64), where the signature covers the first 64 bytes. A
        fresh nonce is drawn per call and then discarded.
        """
        self._require_operational()
        if len(challenge) != crypto.NONCE_LEN:
            raise ParseError(f"challenge must be {crypto.NONCE_LEN} bytes")
        to_sign = self.compute_state_digest() + bytes(challenge) + crypto.new_nonce(self.rng)
        response = to_sign + crypto.sign(self.secret_key, to_sign)
        assert len(response) == RESPONSE_LEN
        return response

    def _check_slot(self, doc: Document, doc_type: int) -> None:
        """The slot rule: a slot holds a document of its type, about this device, signed by its key, or ChainInvalid."""
        if doc.doc_type != doc_type or documents.subject_uuid(doc) != self.uuid:
            raise ChainInvalid(f"the {documents.DOC_TYPE_NAMES[doc_type]} slot holds no document of this device")
        documents.signatures_verify(doc, self.public_key)

    def simulate_boot(self) -> BootStatus:
        """Re-run the boot check: the root self-verifies, each filled slot keeps the slot rule, and the installation
        names firmware the device verified itself; otherwise the device is INTEGRITY_FAILED and refuses to attest."""
        inst = self.installation
        if inst is None:
            self.boot_status = BootStatus.UNPROGRAMMED
            return self.boot_status
        try:
            documents.verify_chain([self.trusted_root], self.trusted_root)
            self._check_slot(inst, documents.DOC_INSTALLATION)
            ok = inst.field(documents.INST_FW_DOC_DIGEST) in self.verified_digests
            if self.cfg is not None:
                self._check_slot(self.cfg, documents.DOC_CONFIGURATION)
        except ChainInvalid:
            ok = False
        self.boot_status = BootStatus.OPERATIONAL if ok else BootStatus.INTEGRITY_FAILED
        return self.boot_status


def device_birth(
    mfr_cert: Document, mfr_sk: SecretKey, root: Document, dinf: str, rng=None
) -> tuple[DeviceState, Document]:
    """Provision a new device: UUID, keypair, and a chained certificate.

    The device keeps only the certificate digest and a copy of the root; the
    full certificate is returned for registration with the store.
    """
    documents.verify_chain([mfr_cert, root], root)
    documents.check_manufacturer_key(mfr_sk, mfr_cert)
    uuid = crypto.generate_uuid(rng)
    public_key, secret_key = crypto.generate_keypair(rng)
    dcrt = documents.make_device_certificate(dinf, public_key, uuid, mfr_cert, mfr_sk)
    dev = DeviceState(
        uuid=uuid,
        public_key=public_key,
        secret_key=secret_key,
        cert_digest=documents.doc_digest(dcrt),
        trusted_root=root,
        rng=rng,
    )
    return dev, dcrt


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def encode_device(dev: DeviceState) -> bytes:
    """The `.tltdev` state file's content (everything except the secret key).

    Layout: magic(4) version(1) uuid(16) suite(1) pubkey(32) cert_digest(32),
    root as len(4)+bytes, digest count(4) + strictly ascending 32-byte digests,
    then installation and configuration, each as flag(1) [len(4)+bytes]. A flag
    is 0 or 1; load_device raises MalformedDocument on anything else. The boot
    status is not stored; load_device re-runs the boot check.
    """
    out = bytearray(_DEV_MAGIC)
    out.append(_DEV_VERSION)
    out += dev.uuid
    out.append(dev.public_key.suite_id)
    out += dev.public_key.data
    out += dev.cert_digest
    out += documents.prefixed(documents.encode_canonical(dev.trusted_root))
    out += len(dev.verified_digests).to_bytes(4, "big")
    out += b"".join(sorted(dev.verified_digests))
    for doc in (dev.installation, dev.cfg):
        out.append(doc is not None)
        if doc is not None:
            out += documents.prefixed(documents.encode_canonical(doc))
    return bytes(out)


def load_device(path, key_path=None, rng=None) -> DeviceState:
    """Load a `.tltdev` file plus its secret key (sibling `.tltkey` by default), then boot it."""
    path = Path(path)
    r = documents.Reader(crypto.read_file(path))
    if r.take(4) != _DEV_MAGIC:
        raise MalformedDocument("not a device state file")
    if r.u8() != _DEV_VERSION:
        raise MalformedDocument("unsupported device state version")
    uuid = r.take(crypto.UUID_LEN)
    pk = PublicKey(r.u8(), r.take(crypto.PUBLIC_KEY_LEN))
    cert_digest = r.take(crypto.DIGEST_LEN)
    root = documents.decode(r.prefixed())
    digests = [r.take(crypto.DIGEST_LEN) for _ in range(r.u32())]
    if digests != sorted(set(digests)):
        raise MalformedDocument("verified digests are not strictly ascending")
    inst, cfg = (documents.decode(r.prefixed()) if r.flag() else None for _ in range(2))
    r.end()

    key_path = Path(key_path) if key_path else path.with_suffix(crypto.SECRET_KEY_EXT)
    sk = crypto.load_secret_key(key_path)
    if crypto.public_key_of(sk) != pk:
        raise InvalidKey("key file does not match the stored public key")
    dev = DeviceState(
        uuid=uuid,
        public_key=pk,
        secret_key=sk,
        cert_digest=cert_digest,
        trusted_root=root,
        verified_digests=set(digests),
        installation=inst,
        cfg=cfg,
        rng=rng,
    )
    dev.simulate_boot()
    return dev

