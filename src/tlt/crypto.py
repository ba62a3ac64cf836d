"""Cryptographic primitives behind a suite-versioned interface.

Suite 0x01 is Ed25519 with SHA-256: 32-byte keys, 64-byte deterministic
signatures, 32-byte digests. The suite byte travels with all key material so
a future suite can slot in without changing any wire or file format.

Key files are binary: one suite byte followed by the raw key bytes
(`.tltkey` for secret keys, `.tltpub` for public keys).
"""

from __future__ import annotations

import hashlib
import random
import secrets
from dataclasses import dataclass, field
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import EntropyUnavailable, InvalidKey

SUITE_ED25519_SHA256 = 0x01

PUBLIC_KEY_LEN = 32
SECRET_KEY_LEN = 32
SIGNATURE_LEN = 64
DIGEST_LEN = 32
UUID_LEN = 16
NONCE_LEN = 16
KEY_ID_LEN = 16

SECRET_KEY_EXT = ".tltkey"
PUBLIC_KEY_EXT = ".tltpub"


# ---------------------------------------------------------------------------
# Randomness sources
# ---------------------------------------------------------------------------

class SystemRandomSource:
    """Cryptographically secure randomness; safe for concurrent use."""

    def bytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("byte count must be non-negative")
        try:
            return secrets.token_bytes(n)
        except Exception as exc:  # pragma: no cover - OS entropy failure
            raise EntropyUnavailable(str(exc)) from exc


class SeededRandomSource:
    """Deterministic randomness for reproducible runs. Not secure."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def bytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("byte count must be non-negative")
        return self._rng.randbytes(n)


_SYSTEM_SOURCE = SystemRandomSource()


def random_bytes(n: int, rng=None) -> bytes:
    """n random bytes from rng, or from the OS when rng is None."""
    return (rng or _SYSTEM_SOURCE).bytes(n)


def new_nonce(rng=None) -> bytes:
    """16 fresh random bytes for challenge/response exchanges."""
    return random_bytes(NONCE_LEN, rng)


# ---------------------------------------------------------------------------
# Key material
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PublicKey:
    suite_id: int
    data: bytes

    def __post_init__(self):
        if self.suite_id != SUITE_ED25519_SHA256:
            raise InvalidKey(f"unsupported suite 0x{self.suite_id:02x}")
        if len(self.data) != PUBLIC_KEY_LEN:
            raise InvalidKey(f"public key must be {PUBLIC_KEY_LEN} bytes")


@dataclass(frozen=True)
class SecretKey:
    suite_id: int
    data: bytes = field(repr=False)

    def __post_init__(self):
        if self.suite_id != SUITE_ED25519_SHA256:
            raise InvalidKey(f"unsupported suite 0x{self.suite_id:02x}")
        if len(self.data) != SECRET_KEY_LEN:
            raise InvalidKey(f"secret key must be {SECRET_KEY_LEN} bytes")


def generate_keypair(rng=None) -> tuple[PublicKey, SecretKey]:
    """Fresh suite-0x01 signing keypair from the given randomness source."""
    seed = random_bytes(SECRET_KEY_LEN, rng)
    sk = SecretKey(SUITE_ED25519_SHA256, seed)
    return public_key_of(sk), sk


def public_key_of(sk: SecretKey) -> PublicKey:
    """Derive the public half from a secret key (deterministic)."""
    try:
        priv = Ed25519PrivateKey.from_private_bytes(sk.data)
    except Exception as exc:
        raise InvalidKey(str(exc)) from exc
    return PublicKey(sk.suite_id, priv.public_key().public_bytes_raw())


def sign(sk: SecretKey, msg: bytes) -> bytes:
    """64-byte deterministic signature over msg."""
    try:
        priv = Ed25519PrivateKey.from_private_bytes(sk.data)
    except Exception as exc:
        raise InvalidKey(str(exc)) from exc
    return priv.sign(bytes(msg))


def verify(pk: PublicKey, msg: bytes, sig: bytes) -> bool:
    """True iff sig was produced by pk's secret counterpart over exactly msg.

    Malformed inputs return False rather than raising.
    """
    if len(sig) != SIGNATURE_LEN:
        return False
    try:
        pub = Ed25519PublicKey.from_public_bytes(pk.data)
        pub.verify(bytes(sig), bytes(msg))
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def key_id(pk: PublicKey) -> bytes:
    """16-byte identifier for a public key: sha256(suite || key)[:16]."""
    return digest(bytes([pk.suite_id]) + pk.data)[:KEY_ID_LEN]


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

def digest(msg: bytes) -> bytes:
    """32-byte SHA-256 digest."""
    return hashlib.sha256(msg).digest()


# ---------------------------------------------------------------------------
# UUIDs
# ---------------------------------------------------------------------------

def generate_uuid(rng=None) -> bytes:
    """16-byte random (version 4) UUID."""
    b = bytearray(random_bytes(UUID_LEN, rng))
    b[6] = (b[6] & 0x0F) | 0x40  # version nibble = 4
    b[8] = (b[8] & 0x3F) | 0x80  # variant bits = 10
    return bytes(b)


def is_uuid4(b: bytes) -> bool:
    return len(b) == UUID_LEN and (b[6] >> 4) == 0x4 and (b[8] >> 6) == 0b10


# ---------------------------------------------------------------------------
# Key files
# ---------------------------------------------------------------------------

def save_secret_key(sk: SecretKey, path) -> None:
    Path(path).write_bytes(bytes([sk.suite_id]) + sk.data)


def load_secret_key(path) -> SecretKey:
    raw = Path(path).read_bytes()
    if len(raw) != 1 + SECRET_KEY_LEN:
        raise InvalidKey(f"bad secret key file length {len(raw)}")
    return SecretKey(raw[0], raw[1:])


def save_public_key(pk: PublicKey, path) -> None:
    Path(path).write_bytes(bytes([pk.suite_id]) + pk.data)


def load_public_key(path) -> PublicKey:
    raw = Path(path).read_bytes()
    if len(raw) != 1 + PUBLIC_KEY_LEN:
        raise InvalidKey(f"bad public key file length {len(raw)}")
    return PublicKey(raw[0], raw[1:])
