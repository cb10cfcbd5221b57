"""Cryptographic primitives for the encrypted index.

Five independent symmetric keys drive the scheme: k_s derives per-keyword
record-encryption keys, k_x and k_i produce the exponents behind cross-tags,
k_z produces the per-counter blinding exponents, and k_t keys the tuple-set
labels. Group exponentiation lives on P-256 (prime order, cofactor 1) and
goes straight to ``EC_POINT_mul`` in the system's OpenSSL 3 libcrypto (the
one Python's ``hashlib`` links) through ``ctypes``: fixed-base ``h^e`` from
the generator's precomputed table, and the server's variable-base step,
which keeps only the x-coordinate of ``X^y``. Cross-tags are therefore filed
under their x-coordinate. No key object is built around a scalar. The
tuple-set AES (ECB labels, CTR pads) goes through the same libcrypto's EVP
cipher calls, so a data server loads one OpenSSL, the system's. Only the
AES-GCM that seals record ids, in the build, and opens them, in the vetter,
uses the ``cryptography`` package, imported by the functions that need it.
The test suite checks the exponentiation against an independent pure-Python
ladder and against the ``cryptography`` key-object route, and the AES
against ``cryptography``'s.
"""

from __future__ import annotations

import ctypes
import hashlib
import hmac
import os
import threading
import weakref
from dataclasses import dataclass
from typing import Iterable, Protocol

# the order n of P-256's group, which has cofactor 1
ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
SUPPORTED_LAMBDA_BITS = (128, 256)

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


ELEMENT_LEN = 33  # SEC1 compressed: a 0x02 or 0x03 prefix, then x
IDENTITY = GroupElement(bytes(ELEMENT_LEN))


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
#
# libcrypto.so.3 is already mapped into the process: hashlib's _hashlib links
# it, and hmac above loads _hashlib. ctypes releases the GIL for each call, so
# the only C state threads share is the read-only group and AES ciphers; each
# thread gets its own BN_CTX, BIGNUMs, EC_POINTs, output buffer and AES
# contexts (_Scratch).

_LIBCRYPTO = "libcrypto.so.3"
_NID_P256 = 415  # NID_X9_62_prime256v1
_COMPRESSED = 2  # POINT_CONVERSION_COMPRESSED
_BN_FLG_CONSTTIME = 0x04
_SCALAR_LEN = 32

_PTR, _INT, _BUF = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
_SIGNATURES = {  # name: (restype, argtypes)
    "BN_CTX_new": (_PTR, ()),
    "BN_CTX_free": (None, (_PTR,)),
    "BN_new": (_PTR, ()),
    "BN_clear_free": (None, (_PTR,)),
    "BN_set_flags": (None, (_PTR, _INT)),
    "BN_bin2bn": (_PTR, (_BUF, _INT, _PTR)),
    "BN_bn2binpad": (_INT, (_PTR, _BUF, _INT)),
    "EC_GROUP_new_by_curve_name": (_PTR, (_INT,)),
    "EC_POINT_new": (_PTR, (_PTR,)),
    "EC_POINT_clear_free": (None, (_PTR,)),
    "EC_POINT_mul": (_INT, (_PTR, _PTR, _PTR, _PTR, _PTR, _PTR)),
    "EC_POINT_oct2point": (_INT, (_PTR, _PTR, _BUF, ctypes.c_size_t, _PTR)),
    "EC_POINT_point2oct": (ctypes.c_size_t, (_PTR, _PTR, _INT, _BUF, ctypes.c_size_t, _PTR)),
    "EC_POINT_get_affine_coordinates": (_INT, (_PTR, _PTR, _PTR, _PTR, _PTR)),
    "EVP_CIPHER_fetch": (_PTR, (_PTR, _BUF, _BUF)),
    "EVP_CIPHER_CTX_new": (_PTR, ()),
    "EVP_CIPHER_CTX_free": (None, (_PTR,)),
    "EVP_EncryptInit_ex2": (_INT, (_PTR, _PTR, _BUF, _BUF, _PTR)),
    "EVP_EncryptUpdate": (_INT, (_PTR, _PTR, ctypes.POINTER(_INT), _PTR, _INT)),
    "ERR_clear_error": (None, ()),
}


def _load_libcrypto():
    try:
        lib = ctypes.CDLL(_LIBCRYPTO)
    except OSError as exc:
        raise ImportError(f"privgendb needs OpenSSL 3's {_LIBCRYPTO}, the library "
                          f"Python's hashlib links: {exc}") from None
    for name, (restype, argtypes) in _SIGNATURES.items():
        try:
            fn = getattr(lib, name)
        except AttributeError:
            raise ImportError(f"{_LIBCRYPTO} has no {name}") from None
        fn.restype, fn.argtypes = restype, argtypes
    return lib


_lib = _load_libcrypto()
_GROUP = _lib.EC_GROUP_new_by_curve_name(_NID_P256)  # shared, never written
if not _GROUP:
    raise ImportError(f"{_LIBCRYPTO} does not provide the P-256 group")
_bin2bn, _bn2binpad = _lib.BN_bin2bn, _lib.BN_bn2binpad
_mul, _oct2point, _point2oct = _lib.EC_POINT_mul, _lib.EC_POINT_oct2point, _lib.EC_POINT_point2oct
_affine, _clear_error = _lib.EC_POINT_get_affine_coordinates, _lib.ERR_clear_error
_aes_init, _aes_update = _lib.EVP_EncryptInit_ex2, _lib.EVP_EncryptUpdate

AES_ECB, AES_CTR = 0, 1  # a thread's two AES contexts, by the mode each runs


def _fetch_aes():
    """The AES ciphers, by (mode, key bytes), shared and never freed like the group."""
    ciphers = {}
    for mode, mode_name in ((AES_ECB, "ECB"), (AES_CTR, "CTR")):
        for width in (16, 32):
            name = f"AES-{width * 8}-{mode_name}"
            ciphers[mode, width] = _lib.EVP_CIPHER_fetch(None, name.encode(), None)
            if not ciphers[mode, width]:
                _clear_error()
                raise ImportError(f"{_LIBCRYPTO} does not provide {name}")
    return ciphers


_AES = _fetch_aes()
_AES_IV = {AES_ECB: None, AES_CTR: bytes(16)}  # CTR's initial counter block is 0
# Bytes per EVP_EncryptUpdate: whole AES blocks, below its int length's INT_MAX.
_UPDATE_MAX = 1 << 30


def _free(ctx, scalar, x, point, result, ecb, ctr):
    _lib.BN_clear_free(scalar)
    _lib.BN_clear_free(x)
    _lib.EC_POINT_clear_free(point)
    _lib.EC_POINT_clear_free(result)
    _lib.BN_CTX_free(ctx)
    _lib.EVP_CIPHER_CTX_free(ecb)  # cleanses the key schedule
    _lib.EVP_CIPHER_CTX_free(ctr)


class _Scratch:
    """One thread's libcrypto working set, freed when the thread ends.

    Not at interpreter exit: a daemon thread may still be using its own. A
    process forked from this one inherits a copy of the forking thread's
    scratch; the build's forked workers are single-threaded and use it alone.
    """

    __slots__ = ("ctx", "scalar", "x", "point", "result", "aes", "buf", "outl",
                 "__weakref__")

    def __init__(self):
        self.ctx = _lib.BN_CTX_new()
        self.scalar = _lib.BN_new()
        self.x = _lib.BN_new()
        self.point = _lib.EC_POINT_new(_GROUP)
        self.result = _lib.EC_POINT_new(_GROUP)
        self.aes = (_lib.EVP_CIPHER_CTX_new(), _lib.EVP_CIPHER_CTX_new())  # AES_ECB, AES_CTR
        handles = (self.ctx, self.scalar, self.x, self.point, self.result, *self.aes)
        if not all(handles):
            _free(*handles)  # each free function accepts NULL
            raise MemoryError("libcrypto could not allocate a thread's scratch objects")
        weakref.finalize(self, _free, *handles).atexit = False
        _lib.BN_set_flags(self.scalar, _BN_FLG_CONSTTIME)  # as EC_KEY marks a private key
        self.buf = ctypes.create_string_buffer(ELEMENT_LEN)
        self.outl = _INT()


class _PerThread(threading.local):
    def __init__(self):  # runs again on each thread's first use
        self.scratch = _Scratch()


_tls = _PerThread()


def _failed(what: str) -> ValueError:
    _clear_error()  # hashlib shares this library and this thread's error queue
    return ValueError(what)


def base_pow(e: int) -> GroupElement:
    """h^e for the fixed generator h (libcrypto's fixed-base table)."""
    e %= ORDER
    if e == 0:
        return IDENTITY
    s = _tls.scratch
    if not (_bin2bn(e.to_bytes(_SCALAR_LEN, "big"), _SCALAR_LEN, s.scalar)
            and _mul(_GROUP, s.result, s.scalar, None, None, s.ctx)
            and _point2oct(_GROUP, s.result, _COMPRESSED, s.buf, ELEMENT_LEN, s.ctx)
            == ELEMENT_LEN):
        raise _failed("libcrypto failed to compute h^e")
    return GroupElement(s.buf.raw)


def exponent_key(e: int) -> bytes:
    """The scalar e (1 <= e < ORDER) as ``pow_x`` takes it: 32 big-endian bytes."""
    if not 0 < e < ORDER:
        raise ValueError("exponent must lie in 1..n-1")
    return e.to_bytes(_SCALAR_LEN, "big")


def pow_x(key: bytes, encoded: bytes) -> bytes:
    """32-byte big-endian x-coordinate of X^e, computed inside libcrypto.

    ``encoded`` is the compressed encoding of X, as bytes, and ``key`` comes
    from ``exponent_key(e)``. Raises ValueError when ``encoded`` is not a
    point on the curve; the identity is not one.
    """
    s = _tls.scratch
    if not _oct2point(_GROUP, s.point, encoded, len(encoded), s.ctx):
        raise _failed("not the encoding of a point on P-256")
    if not (_bin2bn(key, len(key), s.scalar)
            and _mul(_GROUP, s.result, None, s.point, s.scalar, s.ctx)
            and _affine(_GROUP, s.result, s.x, None, s.ctx)
            and _bn2binpad(s.x, s.buf, _SCALAR_LEN) == _SCALAR_LEN):
        raise _failed("libcrypto failed to compute X^e")
    return s.buf.raw[:_SCALAR_LEN]


# --- tuple-set AES -------------------------------------------------------------
#
# A chain's labels (AES-ECB) and pads (AES-CTR) are encrypted in place in the
# caller's array, through this thread's two EVP contexts: OpenSSL lets an
# update's output be exactly its input. Keying a context for the next chain
# allocates nothing.

def aes_key(mode: int, key: bytes) -> None:
    """Key this thread's ``AES_ECB`` or ``AES_CTR`` context with a 16- or
    32-byte key. A CTR keystream starts at counter block 0; keying a context
    again ends what it was encrypting before."""
    cipher = _AES.get((mode, len(key)))
    if cipher is None:
        raise ValueError(f"AES takes a 16- or 32-byte key, not {len(key)} bytes")
    if not _aes_init(_tls.scratch.aes[mode], cipher, key, _AES_IV[mode], None):
        raise _failed("libcrypto failed to set an AES key")


def aes_in_place(mode: int, buf) -> None:
    """Encrypt ``buf``, a writable C-contiguous numpy array, in place under
    this thread's context for ``mode``, keyed by ``aes_key``.

    ECB takes whole 16-byte blocks. CTR reads its keystream on from where
    the context's last call stopped, so a stream cut into several calls
    equals one pass.
    """
    n = buf.nbytes
    if mode == AES_ECB and n % 16:
        raise ValueError(f"AES-ECB takes whole 16-byte blocks, not {n} bytes")
    if not n:
        return
    s = _tls.scratch
    ctx, outl = s.aes[mode], s.outl
    view = ctypes.c_char.from_buffer(buf)  # refuses a read-only or non-contiguous buf
    at = ctypes.addressof(view)
    for off in range(0, n, _UPDATE_MAX):
        part = min(n - off, _UPDATE_MAX)
        if not (_aes_update(ctx, at + off, outl, at + off, part) and outl.value == part):
            raise _failed("libcrypto failed to encrypt with AES")


# --- authenticated record-id encryption --------------------------------------
#
# AES-GCM stays with the cryptography package: a reused AESGCM object seals an
# id in about 1 us, against 3.5 us for EVP's GCM through ctypes. Only the
# build and the vetter seal or open ids, so the package is imported here, when
# they first do, and a data server never loads it nor the second OpenSSL it
# links.

def record_aead(key: bytes):
    """The AES-GCM object that seals and opens record ids under ``key``."""
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    return AESGCM(key)


def seal_record_id(aead, nonce: bytes, record_id: int) -> bytes:
    """AES-GCM over the 8-byte record id under ``record_aead``'s object:
    nonce || ct || tag."""
    return nonce + aead.encrypt(nonce, record_id.to_bytes(_ID_LEN, "big"), None)


def sym_decrypt(aead, blob: bytes) -> int:
    """The record id sealed in ``blob`` under ``record_aead``'s object."""
    if len(blob) != ENC_ID_LEN:
        raise AuthenticationError(f"ciphertext must be {ENC_ID_LEN} bytes")
    try:
        pt = aead.decrypt(blob[:NONCE_LEN], blob[NONCE_LEN:], None)
    except Exception as exc:
        # InvalidTag is looked up only when something was raised: an import
        # per id would cost about as much as its decryption
        from cryptography.exceptions import InvalidTag

        if not isinstance(exc, InvalidTag):
            raise
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
