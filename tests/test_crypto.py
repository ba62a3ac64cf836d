from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlt import crypto
from tlt.errors import InvalidKey

# Published SHA-256 test vectors (FIPS 180 examples).
SHA256_EMPTY = bytes.fromhex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
SHA256_ABC = bytes.fromhex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


# ---------------------------------------------------------------------------
# Keypairs and signatures
# ---------------------------------------------------------------------------

def test_keypair_sizes(rng):
    pk, sk = crypto.generate_keypair(rng)
    assert len(pk.data) == 32
    assert len(sk.data) == 32
    assert pk.suite_id == sk.suite_id == crypto.SUITE_ED25519_SHA256


def test_empty_message_round_trip(rng):
    pk, sk = crypto.generate_keypair(rng)
    sig = crypto.sign(sk, b"")
    assert len(sig) == 64
    assert crypto.verify(pk, b"", sig)


def test_public_key_derivable_from_secret(rng):
    pk, sk = crypto.generate_keypair(rng)
    assert crypto.public_key_of(sk) == pk


def test_generated_keys_distinct():
    keys = {crypto.generate_keypair()[0].data for _ in range(1000)}
    assert len(keys) == 1000


def test_sign_deterministic(rng):
    _, sk = crypto.generate_keypair(rng)
    for _ in range(100):
        msg = crypto.random_bytes(rng.bytes(1)[0], rng)
        assert crypto.sign(sk, msg) == crypto.sign(sk, msg)


def test_signature_length_constant(rng):
    _, sk = crypto.generate_keypair(rng)
    for msg in (b"", b"\x00", b"x" * 4096, crypto.random_bytes(257, rng)):
        assert len(crypto.sign(sk, msg)) == 64


def test_verify_rejects_other_message(rng):
    pk, sk = crypto.generate_keypair(rng)
    sig = crypto.sign(sk, b"configuration A")
    assert not crypto.verify(pk, b"configuration B", sig)


def test_verify_rejects_every_single_bit_flip(rng):
    pk, sk = crypto.generate_keypair(rng)
    msg = b"attestation payload"
    sig = bytearray(crypto.sign(sk, msg))
    for bit in range(len(sig) * 8):
        sig[bit // 8] ^= 1 << (bit % 8)
        assert not crypto.verify(pk, msg, bytes(sig))
        sig[bit // 8] ^= 1 << (bit % 8)
    assert crypto.verify(pk, msg, bytes(sig))


def test_verify_handles_malformed_inputs(rng):
    pk, sk = crypto.generate_keypair(rng)
    assert not crypto.verify(pk, b"m", b"short")
    assert not crypto.verify(pk, b"m", b"\x00" * 63)
    assert not crypto.verify(pk, b"m", b"\x00" * 65)
    assert not crypto.verify(pk, b"m", b"\x00" * 64)


@settings(max_examples=60)
@given(st.binary(max_size=4096))
def test_sign_verify_round_trip_property(msg):
    pk, sk = _FIXED_PAIR
    assert crypto.verify(pk, msg, crypto.sign(sk, msg))


_FIXED_PAIR = crypto.generate_keypair(crypto.SeededRandomSource(7))


def test_cross_key_signatures_never_verify(rng):
    for _ in range(100):
        pk_a, sk_a = crypto.generate_keypair(rng)
        pk_b, _ = crypto.generate_keypair(rng)
        msg = crypto.random_bytes(32, rng)
        assert crypto.verify(pk_a, msg, crypto.sign(sk_a, msg))
        assert not crypto.verify(pk_b, msg, crypto.sign(sk_a, msg))


def test_key_validation():
    with pytest.raises(InvalidKey):
        crypto.PublicKey(0x02, b"\x00" * 32)
    with pytest.raises(InvalidKey):
        crypto.PublicKey(0x01, b"\x00" * 31)
    with pytest.raises(InvalidKey):
        crypto.SecretKey(0x01, b"\x00" * 33)


def test_secret_key_repr_hides_bytes(rng):
    _, sk = crypto.generate_keypair(rng)
    assert sk.data.hex() not in repr(sk)


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

def test_digest_matches_published_vectors():
    assert crypto.digest(b"") == SHA256_EMPTY
    assert crypto.digest(b"abc") == SHA256_ABC


def test_digest_deterministic():
    assert crypto.digest(b"same input") == crypto.digest(b"same input")


@pytest.mark.parametrize("size", [0, 1, 10**6])
def test_digest_length_constant(size):
    assert len(crypto.digest(b"\xa5" * size)) == 32


# ---------------------------------------------------------------------------
# Randomness and UUIDs
# ---------------------------------------------------------------------------

def test_random_bytes_lengths():
    assert crypto.random_bytes(0) == b""
    assert len(crypto.random_bytes(16)) == 16


def test_random_draws_never_collide():
    draws = {crypto.random_bytes(16) for _ in range(10_000)}
    assert len(draws) == 10_000


def test_uuid_layout():
    u = crypto.generate_uuid()
    assert len(u) == 16
    assert u[6] >> 4 == 0x4
    assert u[8] >> 6 == 0b10
    assert crypto.is_uuid4(u)


def test_uuids_distinct():
    assert len({crypto.generate_uuid() for _ in range(10_000)}) == 10_000


def test_seeded_source_reproducible():
    a = crypto.SeededRandomSource(5)
    b = crypto.SeededRandomSource(5)
    assert [a.bytes(8) for _ in range(10)] == [b.bytes(8) for _ in range(10)]


def test_nonce_length(rng):
    assert len(crypto.new_nonce(rng)) == 16


# ---------------------------------------------------------------------------
# Key files
# ---------------------------------------------------------------------------

def test_key_file_round_trip(tmp_path, rng):
    pk, sk = crypto.generate_keypair(rng)
    crypto.save_secret_key(sk, tmp_path / "a.tltkey")
    crypto.save_public_key(pk, tmp_path / "a.tltpub")
    assert crypto.load_secret_key(tmp_path / "a.tltkey") == sk
    assert crypto.load_public_key(tmp_path / "a.tltpub") == pk


def test_key_file_rejects_bad_length(tmp_path):
    (tmp_path / "bad.tltkey").write_bytes(b"\x01" + b"\x00" * 12)
    with pytest.raises(InvalidKey):
        crypto.load_secret_key(tmp_path / "bad.tltkey")


def test_key_id_is_16_bytes(rng):
    pk, _ = crypto.generate_keypair(rng)
    assert len(crypto.key_id(pk)) == 16
    assert crypto.key_id(pk) == hashlib.sha256(bytes([pk.suite_id]) + pk.data).digest()[:16]
