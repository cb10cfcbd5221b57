"""Cryptographic primitives for the encrypted index.

Five independent symmetric keys drive the scheme: k_s derives per-keyword
record-encryption keys, k_x and k_i produce the exponents behind cross-tags,
k_z produces the per-counter blinding exponents, and k_t keys the tuple-set
labels. Group exponentiation lives on P-256 (prime order, cofactor 1) and
runs entirely inside OpenSSL: fixed-base ``h^e`` through key derivation, and
the server's variable-base step through ECDH, which yields only the
x-coordinate of ``X^y``. Cross-tags are therefore filed under their
x-coordinate. The test suite checks both paths against an independent
pure-Python ladder.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass
from typing import Iterable, Protocol

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
# the enums `serialization` re-exports, from the module `ec` already loads:
# importing `serialization` itself would load its key-file loaders too
from cryptography.hazmat.primitives._serialization import Encoding, PublicFormat

from . import p256

ORDER = p256.N
SUPPORTED_LAMBDA_BITS = (128, 256)

_CURVE = ec.SECP256R1()
_ECDH = ec.ECDH()
NONCE_LEN = 12
_ID_LEN = 8
_TAG_LEN = 16
ENC_ID_LEN = NONCE_LEN + _ID_LEN + _TAG_LEN  # fixed-width ciphertexts

MAX_RECORD_ID = 2**64 - 1


class AuthenticationError(Exception):
    """Ciphertext failed integrity verification."""


class Rng(Protocol):
    def bytes(self, n: int) -> bytes: ...


class SystemRng:
    """OS entropy; the default for anything that touches real keys."""

    def bytes(self, n: int) -> bytes:
        return os.urandom(n)


class SeededRng:
    """Deterministic byte stream for reproducible builds and tests.

    Draws SHAKE-256(seed || call_counter); the stream therefore depends on
    the sequence of request sizes, which is stable for a fixed code path.
    The index build draws every nonce in one process, in sorted-keyword then
    counter order, so a seeded build does not depend on how many worker
    processes encrypt it.
    """

    def __init__(self, seed: int | bytes):
        if isinstance(seed, int):
            seed = seed.to_bytes(16, "big", signed=False)
        self._seed = bytes(seed)
        self._calls = 0

    def bytes(self, n: int) -> bytes:
        ctr = self._calls.to_bytes(8, "big")
        self._calls += 1
        return hashlib.shake_256(self._seed + ctr).digest(n)


@dataclass(frozen=True, slots=True)
class GroupElement:
    """Point on P-256, held as its 33-byte SEC1 compressed encoding.

    The encoding is canonical, so equal elements have equal bytes; the
    all-zero string encodes the identity element.
    """

    data: bytes

    def encode(self) -> bytes:
        return self.data

    def x_bytes(self) -> bytes:
        """32-byte big-endian x-coordinate: the key a cross-tag is filed under."""
        return self.data[1:]


IDENTITY = GroupElement(p256.encode_point(None))
ELEMENT_LEN = p256.ENCODED_LEN


@dataclass(frozen=True, slots=True)
class KeySet:
    """The owner's master secret: five independent lambda-bit keys."""

    k_s: bytes  # record-key derivation
    k_x: bytes  # cross-tag keyword exponents
    k_i: bytes  # cross-tag record exponents
    k_z: bytes  # counter blinding exponents
    k_t: bytes  # tuple-set label derivation
    lam: int = 128

    def __post_init__(self):
        if self.lam not in SUPPORTED_LAMBDA_BITS:
            raise ValueError(f"unsupported lambda {self.lam}")
        w = self.lam // 8
        for name in ("k_s", "k_x", "k_i", "k_z", "k_t"):
            if len(getattr(self, name)) != w:
                raise ValueError(f"{name} must be {w} bytes")


def keygen(lam: int = 128, rng: Rng | None = None) -> KeySet:
    if lam not in SUPPORTED_LAMBDA_BITS:
        raise ValueError(f"unsupported lambda {lam}")
    rng = rng or SystemRng()
    w = lam // 8
    return KeySet(rng.bytes(w), rng.bytes(w), rng.bytes(w), rng.bytes(w), rng.bytes(w), lam)


# --- PRFs -------------------------------------------------------------------

def prf_f(key: bytes, data: bytes) -> bytes:
    """Keyed PRF onto lambda-bit strings (HMAC-SHA256, truncated)."""
    return hmac.digest(key, data, "sha256")[: len(key)]


def prf_fp(key: bytes, data: bytes) -> int:
    """Keyed PRF onto the nonzero scalars mod the group order.

    A 512-bit HMAC reduced mod a 256-bit order keeps the bias below 2^-250;
    the zero-output retry is unreachable in practice but kept for totality.
    """
    d = hmac.digest(key, data, "sha512")
    while True:
        v = int.from_bytes(d, "big") % ORDER
        if v:
            return v
        d = hmac.digest(key, b"\x01" + d, "sha512")


def batch_inverse(zs) -> list:
    """Inverses of many scalars with one modular inversion (3 mults each).

    Classic prefix-product trick; worthwhile because the index build inverts
    one blinding scalar per entry and pow(z, -1, n) alone costs ~10x a mult.
    """
    zs = list(zs)
    if not zs:
        return []
    prefix = [0] * len(zs)
    acc = 1
    for i, z in enumerate(zs):
        z %= ORDER
        if z == 0:
            raise ValueError("zero has no inverse")
        prefix[i] = acc  # product of zs[:i]
        acc = acc * z % ORDER
    inv = pow(acc, -1, ORDER)
    out = [0] * len(zs)
    for i in range(len(zs) - 1, -1, -1):
        out[i] = inv * prefix[i] % ORDER
        inv = inv * zs[i] % ORDER
    return out


# --- group exponentiation ---------------------------------------------------

def base_pow(e: int) -> GroupElement:
    """h^e for the fixed generator h (OpenSSL fixed-base path)."""
    e %= ORDER
    if e == 0:
        return IDENTITY
    pub = ec.derive_private_key(e, _CURVE).public_key()
    return GroupElement(pub.public_bytes(Encoding.X962, PublicFormat.CompressedPoint))


def exponent_key(e: int) -> ec.EllipticCurvePrivateKey:
    """OpenSSL key for the scalar e (1 <= e < ORDER), the exponent of ``pow_x``."""
    return ec.derive_private_key(e, _CURVE)


def pow_x(key: ec.EllipticCurvePrivateKey, encoded: bytes) -> bytes:
    """32-byte big-endian x-coordinate of X^e, computed inside OpenSSL.

    ``encoded`` is the compressed encoding of X and ``key`` comes from
    ``exponent_key(e)``; ECDH returns exactly x(X^e). Raises ValueError when
    ``encoded`` is not a point on the curve; the identity is not one.
    """
    peer = ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, encoded)
    return key.exchange(_ECDH, peer)


# --- authenticated record-id encryption --------------------------------------

def seal_record_id(aead: AESGCM, nonce: bytes, record_id: int) -> bytes:
    """AES-GCM over the 8-byte record id under a prepared key: nonce || ct || tag."""
    return nonce + aead.encrypt(nonce, record_id.to_bytes(_ID_LEN, "big"), None)


def sym_decrypt(key: bytes, blob: bytes) -> int:
    if len(blob) != ENC_ID_LEN:
        raise AuthenticationError(f"ciphertext must be {ENC_ID_LEN} bytes")
    try:
        pt = AESGCM(key).decrypt(blob[:NONCE_LEN], blob[NONCE_LEN:], None)
    except InvalidTag as exc:
        raise AuthenticationError("record-id ciphertext failed authentication") from exc
    return int.from_bytes(pt, "big")


# --- input framing ------------------------------------------------------------

def frame(*parts: bytes) -> bytes:
    """Length-prefixed concatenation; injective over tuples of byte strings."""
    out = bytearray()
    for part in parts:
        out += len(part).to_bytes(4, "little")
        out += part
    return bytes(out)


def keyword_bytes(keyword: str) -> bytes:
    return keyword.encode("utf-8")


def keyword_counter(keyword: str, counter: int) -> bytes:
    """PRF input for the (keyword, counter) pair; framing keeps it injective."""
    return frame(keyword.encode("utf-8"), counter.to_bytes(8, "little"))


def id_bytes(record_id: int) -> bytes:
    if not (1 <= record_id <= MAX_RECORD_ID):
        raise ValueError(f"record id out of range: {record_id}")
    return record_id.to_bytes(8, "big")


# --- key file I/O -------------------------------------------------------------

KEY_MAGIC = b"PGDBKEY1"


def save_keys(keys: KeySet, path) -> None:
    """Owner-only key file: magic then the five keys in fixed order."""
    blob = KEY_MAGIC + keys.k_s + keys.k_x + keys.k_i + keys.k_z + keys.k_t
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        os.write(fd, blob)
    finally:
        os.close(fd)


def load_keys(path) -> KeySet:
    with open(str(path), "rb") as fh:
        blob = fh.read()
    if blob[: len(KEY_MAGIC)] != KEY_MAGIC:
        raise ValueError("not a key file (bad magic)")
    body = blob[len(KEY_MAGIC):]
    if len(body) % 5:
        raise ValueError("truncated key file")
    w = len(body) // 5
    if w * 8 not in SUPPORTED_LAMBDA_BITS:
        raise ValueError(f"key file has unsupported key width {w}")
    ks = [body[i * w : (i + 1) * w] for i in range(5)]
    return KeySet(*ks, lam=w * 8)
