"""Key handling, PRFs, group exponentiation, tuple-set AES, and authenticated
encryption."""

import ctypes
import gc
import hmac
import os
import stat
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import example, given, settings, strategies as st

from privgendb import crypto
from privgendb.crypto import (
    AES_CTR,
    AES_ECB,
    ORDER,
    AuthenticationError,
    GroupElement,
    SeededRng,
    SystemRng,
    aes_in_place,
    aes_key,
    base_pow,
    batch_inverse,
    exponent_key,
    frame,
    id_bytes,
    keygen,
    keyword_counter,
    load_keys,
    prf_f,
    prf_fp,
    pow_x,
    record_aead,
    save_keys,
    seal_record_id,
    sym_decrypt,
)

import ref_p256 as ref
from conftest import OFF_CURVE, scalar_inverse


def test_keygen_widths_and_independence():
    keys = keygen(128, SeededRng(1))
    parts = [keys.k_s, keys.k_x, keys.k_i, keys.k_z, keys.k_t]
    assert all(len(k) == 16 for k in parts)
    assert len(set(parts)) == 5
    keys256 = keygen(256, SeededRng(2))
    assert len(keys256.k_s) == 32
    with pytest.raises(ValueError):
        keygen(192)


def test_keygen_deterministic_under_seeded_rng():
    assert keygen(rng=SeededRng(9)) == keygen(rng=SeededRng(9))
    assert keygen(rng=SeededRng(9)) != keygen(rng=SeededRng(10))


def test_prf_f_deterministic_and_width():
    k = SeededRng(3).bytes(16)
    out = prf_f(k, b"hello")
    assert out == prf_f(k, b"hello")
    assert len(out) == 16
    assert prf_f(k, b"hello") != prf_f(k, b"hellp")
    k32 = SeededRng(3).bytes(32)
    assert len(prf_f(k32, b"hello")) == 32


def test_prf_f_key_separation():
    """10^4 random key pairs never collide on a fixed input."""
    rng = SeededRng(4)
    seen = set()
    for _ in range(10_000):
        seen.add(prf_f(rng.bytes(16), b"fixed input"))
    assert len(seen) == 10_000


def test_prf_fp_range_and_determinism():
    k = SeededRng(5).bytes(16)
    vals = [prf_fp(k, i.to_bytes(4, "big")) for i in range(500)]
    assert all(1 <= v < ORDER for v in vals)
    assert vals[7] == prf_fp(k, (7).to_bytes(4, "big"))
    assert len(set(vals)) == 500


def test_prf_fp_uniformity():
    """Bucket counts over 10^5 outputs stay within 3 sigma of uniform."""
    k = SeededRng(6).bytes(16)
    buckets = [0] * 16
    n = 100_000
    for i in range(n):
        v = prf_fp(k, i.to_bytes(8, "big"))
        buckets[v * 16 // ORDER] += 1
    expected = n / 16
    sigma = (n * (1 / 16) * (15 / 16)) ** 0.5
    for b in buckets:
        assert abs(b - expected) <= 3 * sigma, buckets


def test_frame_injective():
    # the classic ambiguity: ("CancerB", 12) vs ("CancerB1", 2)
    assert keyword_counter("CancerB", 12) != keyword_counter("CancerB1", 2)
    assert frame(b"ab", b"c") != frame(b"a", b"bc")
    assert frame(b"", b"x") != frame(b"x", b"")


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=20), st.integers(min_value=1, max_value=2**40),
       st.text(max_size=20), st.integers(min_value=1, max_value=2**40))
def test_keyword_counter_injective_property(g1, c1, g2, c2):
    if (g1, c1) != (g2, c2):
        assert keyword_counter(g1, c1) != keyword_counter(g2, c2)


def test_scalar_inverse():
    rng = SeededRng(7)
    for _ in range(50):
        z = prf_fp(rng.bytes(16), b"z")
        assert z * scalar_inverse(z) % ORDER == 1
    with pytest.raises(ValueError):
        scalar_inverse(0)
    with pytest.raises(ValueError):
        scalar_inverse(ORDER)


def test_batch_inverse_matches_singular():
    rng = SeededRng(8)
    zs = [prf_fp(rng.bytes(16), b"q") for _ in range(67)]
    assert batch_inverse(zs) == [scalar_inverse(z) for z in zs]
    assert batch_inverse([]) == []
    with pytest.raises(ValueError):
        batch_inverse([5, 0, 7])


def test_base_pow_identity_and_homomorphism():
    assert base_pow(0) == crypto.IDENTITY
    assert base_pow(ORDER) == crypto.IDENTITY
    a, b = 1234567, 89012345
    # h^(a*b) computed two ways
    assert ref.mul(ref.point_of(base_pow(a)), b) == ref.point_of(base_pow(a * b % ORDER))


def test_base_pow_matches_reference_ladder():
    rng = SeededRng(19)
    for _ in range(12):
        e = prf_fp(rng.bytes(16), b"e")
        assert ref.point_of(base_pow(e)) == ref.base_mul(e)
    for e in (1, 2, ORDER - 1, ORDER - 2):
        assert ref.point_of(base_pow(e)) == ref.base_mul(e)


def test_group_pow_dual_route_agreement():
    """Reference ladder vs the production libcrypto route on random cases."""
    rng = SeededRng(9)
    for _ in range(12):
        e1 = prf_fp(rng.bytes(16), b"a")
        e2 = prf_fp(rng.bytes(16), b"b")
        elem = base_pow(e1)
        expected = ref.mul(ref.point_of(elem), e2)
        assert pow_x(exponent_key(e2), elem.encode()) == ref.x_bytes(expected)
        assert expected == ref.point_of(base_pow(e1 * e2 % ORDER))
    # edge scalars through both routes
    elem = base_pow(4242)
    for e in (1, 2, ORDER - 1, ORDER - 2):
        expected = ref.mul(ref.point_of(elem), e)
        assert pow_x(exponent_key(e), elem.encode()) == ref.x_bytes(expected)
    assert ref.mul(ref.point_of(elem), 0) is None
    for e in (0, -1, ORDER, ORDER + 1):
        with pytest.raises(ValueError):
            exponent_key(e)


def test_pow_x_rejects_non_points():
    key = exponent_key(7)
    with pytest.raises(ValueError):
        pow_x(key, crypto.IDENTITY.encode())
    with pytest.raises(ValueError):
        pow_x(key, OFF_CURVE)
    with pytest.raises(ValueError):
        pow_x(key, b"\x02" + ref.P.to_bytes(32, "big"))  # x >= p


# --- the key-object route the production exponentiation replaced --------------

_CURVE = ec.SECP256R1()


def ec_base_pow(e: int) -> bytes:
    """h^e as cryptography builds it: a private key for e, then its public point."""
    return ec.derive_private_key(e, _CURVE).public_key().public_bytes(
        serialization.Encoding.X962, serialization.PublicFormat.CompressedPoint)


def ec_pow_x(e: int, encoded: bytes) -> bytes:
    """x(X^e) as cryptography computes it: ECDH between a key for e and X."""
    peer = ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, encoded)
    return ec.derive_private_key(e, _CURVE).exchange(ec.ECDH(), peer)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "refused"


_SCALARS = st.integers(min_value=1, max_value=ORDER - 1)


@settings(max_examples=200, deadline=None)
@given(_SCALARS)
@example(1)
@example(ORDER - 1)
def test_base_pow_matches_the_key_object_route(e):
    assert base_pow(e).encode() == ec_base_pow(e)


@settings(max_examples=300, deadline=None)
@given(_SCALARS, st.one_of(st.sampled_from([2, 3]), st.integers(0, 255)),
       st.binary(min_size=32, max_size=32))
@example(7, 0, bytes(32))  # the identity's all-zero encoding
@example(7, 2, ref.P.to_bytes(32, "big"))  # x >= p
@example(7, 3, OFF_CURVE[1:])  # x with no point on the curve
@example(7, 4, base_pow(5).x_bytes())  # an uncompressed prefix on 33 bytes
def test_pow_x_accepts_and_refuses_as_the_key_object_route(e, prefix, x):
    encoded = bytes([prefix]) + x
    got = _outcome(pow_x, exponent_key(e), encoded)
    assert got == _outcome(ec_pow_x, e, encoded)
    if prefix not in (2, 3):
        assert got == "refused"


def test_threads_get_the_serial_results():
    """Threads share only the read-only group: four at once, with a short
    switch interval, reproduce the serial answers, and each frees its
    libcrypto scratch objects when it ends."""
    es = [prf_fp(b"\x05" * 16, i.to_bytes(4, "big")) for i in range(4 * 64)]
    points = [base_pow(e).encode() for e in es]
    serial = [(points[i], pow_x(exponent_key(e), points[i - 1])) for i, e in enumerate(es)]
    results, scratch = {}, []

    def work(t):
        scratch.append(weakref.ref(crypto._tls.scratch))
        results[t] = [(base_pow(es[i]).encode(), pow_x(exponent_key(es[i]), points[i - 1]))
                      for _ in range(3) for i in range(t, len(es), 4)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for t in range(4):
        assert results[t] == [serial[i] for _ in range(3) for i in range(t, len(es), 4)]
    gc.collect()
    assert len(scratch) == 4 and all(ref() is None for ref in scratch)


def _err_peek_error():
    peek = ctypes.CDLL("libcrypto.so.3").ERR_peek_error
    peek.restype, peek.argtypes = ctypes.c_ulong, ()
    return peek()


@pytest.mark.parametrize("bad", [OFF_CURVE, bytes(33), b"\x02" + ref.P.to_bytes(32, "big"),
                                 b"\x05" + OFF_CURVE[1:], OFF_CURVE[:32]],
                         ids=["off-curve", "identity", "x>=p", "prefix", "short"])
def test_a_refused_point_leaves_the_error_queue_empty(bad):
    with pytest.raises(ValueError):
        pow_x(exponent_key(7), bad)
    assert _err_peek_error() == 0
    assert hmac.digest(b"k", b"m", "sha256") == hmac.new(b"k", b"m", "sha256").digest()
    aead = AESGCM(b"\x01" * 16)
    assert aead.decrypt(b"\x00" * 12, aead.encrypt(b"\x00" * 12, b"m", None), None) == b"m"


_IMPORT_WITHOUT = """
import ctypes, sys
missing, real = sys.argv[1], ctypes.CDLL

class Lacking(real):
    def __getattr__(self, name):
        if name == missing:
            raise AttributeError(name)
        return super().__getattr__(name)

def cdll(name, *args, **kwargs):
    if name != "libcrypto.so.3":
        return real(name, *args, **kwargs)
    if missing == name:
        raise OSError(name + ": cannot open shared object file")
    return Lacking(name, *args, **kwargs)

ctypes.CDLL = cdll
try:
    import privgendb
except ImportError as exc:
    print("ImportError:", exc)
"""


@pytest.mark.parametrize("missing", ["libcrypto.so.3", "EC_POINT_mul",
                                     "EC_POINT_get_affine_coordinates", "EVP_EncryptUpdate"])
def test_import_names_what_libcrypto_lacks(missing):
    src = os.path.dirname(os.path.dirname(crypto.__file__))
    out = subprocess.run([sys.executable, "-c", _IMPORT_WITHOUT, missing],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("ImportError:") and missing in out.stdout, out.stdout


_EXIT_WHILE_BUSY = """
import threading
import numpy as np
from privgendb.crypto import AES_CTR, aes_in_place, aes_key, base_pow, exponent_key, pow_x

point = base_pow(5).encode()

def spin():
    while True:
        pow_x(exponent_key(7), point)
        aes_key(AES_CTR, bytes(16))
        aes_in_place(AES_CTR, np.zeros(4096, np.uint8))

threading.Thread(target=spin, daemon=True).start()
ended = threading.Thread(target=base_pow, args=(3,))
ended.start()
ended.join()
print(pow_x(exponent_key(3), point).hex())
"""


def test_interpreter_exit_is_silent():
    """Exit frees nothing a daemon thread may still be using, and prints nothing."""
    src = os.path.dirname(os.path.dirname(crypto.__file__))
    out = subprocess.run([sys.executable, "-c", _EXIT_WHILE_BUSY],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.strip() == base_pow(15).x_bytes().hex()


# --- tuple-set AES against cryptography's ---------------------------------------

def ref_aes(mode: int, key: bytes, data: bytes) -> bytes:
    """``data`` encrypted in one pass by cryptography: ECB, or CTR from block 0."""
    m = modes.ECB() if mode == AES_ECB else modes.CTR(bytes(16))
    return Cipher(algorithms.AES(key), m).encryptor().update(data)


def evp_aes(mode: int, key: bytes, data: bytes, cuts=()) -> bytes:
    """``data`` encrypted in place by ``aes_in_place``, one call per piece
    between the sorted offsets ``cuts``."""
    buf = np.frombuffer(bytearray(data), dtype=np.uint8)
    aes_key(mode, key)
    bounds = [0, *cuts, len(buf)]
    for a, b in zip(bounds, bounds[1:]):
        aes_in_place(mode, buf[a:b])
    return buf.tobytes()


_AES_KEYS = st.sampled_from([16, 32]).flatmap(lambda w: st.binary(min_size=w, max_size=w))


@settings(max_examples=200, deadline=None)
@given(_AES_KEYS, st.integers(1, 64).flatmap(lambda n: st.binary(min_size=16 * n,
                                                                 max_size=16 * n)))
def test_aes_ecb_matches_cryptography(key, data):
    assert evp_aes(AES_ECB, key, data) == ref_aes(AES_ECB, key, data)


@settings(max_examples=200, deadline=None)
@given(_AES_KEYS, st.binary(min_size=1, max_size=3000), st.lists(st.integers(0, 3000),
                                                                 max_size=6))
def test_aes_ctr_in_pieces_matches_one_pass(key, data, cuts):
    cuts = sorted(min(c, len(data)) for c in cuts)
    assert evp_aes(AES_CTR, key, data, cuts) == ref_aes(AES_CTR, key, data)


@pytest.mark.parametrize("mode", [AES_ECB, AES_CTR], ids=["ecb", "ctr"])
def test_aes_splits_long_updates(monkeypatch, mode):
    """An update longer than ``_UPDATE_MAX`` goes to libcrypto in pieces."""
    key, data = b"\x07" * 32, SeededRng(3).bytes(16 * 40)
    monkeypatch.setattr(crypto, "_UPDATE_MAX", 48)
    calls = []
    real = crypto._aes_update
    monkeypatch.setattr(crypto, "_aes_update", lambda *a: calls.append(a[-1]) or real(*a))
    assert evp_aes(mode, key, data) == ref_aes(mode, key, data)
    assert calls == [48] * 13 + [16]


def test_a_refused_aes_call_leaves_the_error_queue_empty():
    for width in (0, 15, 24, 33):
        with pytest.raises(ValueError, match="16- or 32-byte key"):
            aes_key(AES_CTR, bytes(width))
    aes_key(AES_ECB, bytes(16))
    with pytest.raises(ValueError, match="whole 16-byte blocks"):
        aes_in_place(AES_ECB, np.zeros(24, np.uint8))
    for buf in (np.zeros((2, 32), np.uint8)[:, :16], np.frombuffer(bytes(16), np.uint8)):
        with pytest.raises(TypeError):  # no pointer to a strided or read-only array
            aes_in_place(AES_CTR, buf)
    assert _err_peek_error() == 0

    # libcrypto itself refuses an update on a context no key was ever set on;
    # the error queue is the thread's own, so it is read in that thread
    seen = []

    def fresh_thread():
        try:
            aes_in_place(AES_CTR, np.zeros(16, np.uint8))
        except ValueError as exc:
            seen.append((str(exc), _err_peek_error()))

    th = threading.Thread(target=fresh_thread)
    th.start()
    th.join(timeout=60)
    assert seen == [("libcrypto failed to encrypt with AES", 0)]
    assert hmac.digest(b"k", b"m", "sha256") == hmac.new(b"k", b"m", "sha256").digest()
    assert evp_aes(AES_CTR, bytes(16), bytes(32)) == ref_aes(AES_CTR, bytes(16), bytes(32))


def test_threads_get_the_serial_aes_bytes():
    """Each thread keys its own two contexts: four threads at once, with a
    short switch interval, reproduce the serial bytes."""
    rng = SeededRng(4)
    jobs = [(rng.bytes(16 * (1 + i % 2)), rng.bytes(16 * (1 + i % 50)), (7 * i % 16,))
            for i in range(4 * 32)]
    serial = [(evp_aes(AES_ECB, k, d), evp_aes(AES_CTR, k, d, cuts)) for k, d, cuts in jobs]
    results = {}

    def work(t):
        results[t] = [(evp_aes(AES_ECB, k, d), evp_aes(AES_CTR, k, d, cuts))
                      for _ in range(3) for k, d, cuts in jobs[t::4]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for t in range(4):
        assert results[t] == serial[t::4] * 3


def decode_element(data: bytes) -> GroupElement:
    """The group element a 33-byte encoding names; ValueError if it names none."""
    ref.decode_point(data)
    return GroupElement(bytes(data))


def test_group_element_encoding():
    elem = base_pow(31337)
    enc = elem.encode()
    assert len(enc) == 33
    assert decode_element(enc) == elem
    assert elem.x_bytes() == enc[1:] == ref.x_bytes(ref.base_mul(31337))
    assert decode_element(crypto.IDENTITY.encode()) == crypto.IDENTITY
    with pytest.raises(ValueError):
        decode_element(b"\xff" * 33)


def test_blinding_identity():
    """The protocol's core algebra: (h^(z*x))^(xid * z^-1) == h^(x*xid),
    via the production OpenSSL route (x only) and the reference ladder."""
    rng = SeededRng(10)
    for _ in range(8):
        z = prf_fp(rng.bytes(16), b"z")
        x = prf_fp(rng.bytes(16), b"x")
        xid = prf_fp(rng.bytes(16), b"i")
        y = xid * scalar_inverse(z) % ORDER
        token = base_pow(z * x % ORDER)
        xtag = base_pow(x * xid % ORDER)
        assert pow_x(exponent_key(y), token.encode()) == xtag.x_bytes()
        assert ref.mul(ref.point_of(token), y) == ref.point_of(xtag)


def sym_encrypt(key: bytes, record_id: int, rng=None) -> bytes:
    """``seal_record_id`` under ``key`` with a fresh nonce drawn from ``rng``."""
    if not (1 <= record_id <= crypto.MAX_RECORD_ID):
        raise ValueError(f"record id out of range: {record_id}")
    rng = rng or SystemRng()
    return seal_record_id(record_aead(key), rng.bytes(crypto.NONCE_LEN), record_id)


def open_id(key: bytes, blob: bytes) -> int:
    """``sym_decrypt`` under a new ``record_aead`` for ``key``."""
    return sym_decrypt(record_aead(key), blob)


def test_sym_encrypt_roundtrip_and_width():
    key = SeededRng(11).bytes(16)
    ct = sym_encrypt(key, 7, SeededRng(12))
    assert len(ct) == crypto.ENC_ID_LEN == 36
    assert open_id(key, ct) == 7
    assert AESGCM(key).decrypt(ct[:12], ct[12:], None) == (7).to_bytes(8, "big")
    big = sym_encrypt(key, crypto.MAX_RECORD_ID, SystemRng())
    assert open_id(key, big) == crypto.MAX_RECORD_ID
    with pytest.raises(ValueError):
        sym_encrypt(key, 0)


def test_sym_encrypt_randomized():
    key = SeededRng(13).bytes(16)
    assert sym_encrypt(key, 7, SystemRng()) != sym_encrypt(key, 7, SystemRng())


def test_sym_decrypt_rejects_tampering():
    key = SeededRng(14).bytes(16)
    ct = bytearray(sym_encrypt(key, 99, SeededRng(15)))
    ct[20] ^= 1
    with pytest.raises(AuthenticationError):
        open_id(key, bytes(ct))
    with pytest.raises(AuthenticationError):
        open_id(key, b"short")
    other = SeededRng(16).bytes(16)
    with pytest.raises(AuthenticationError):
        open_id(other, sym_encrypt(key, 99))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=crypto.MAX_RECORD_ID))
def test_sym_roundtrip_property(rid):
    key = b"\x42" * 16
    assert open_id(key, sym_encrypt(key, rid)) == rid


def test_id_bytes_fixed_width():
    assert id_bytes(1) == b"\x00" * 7 + b"\x01"
    assert len(id_bytes(crypto.MAX_RECORD_ID)) == 8
    with pytest.raises(ValueError):
        id_bytes(0)
    with pytest.raises(ValueError):
        id_bytes(2**64)


def test_key_file_roundtrip(tmp_path):
    keys = keygen(rng=SeededRng(17))
    path = tmp_path / "test.keys"
    save_keys(keys, path)
    assert load_keys(path) == keys
    mode = stat.S_IMODE(os.stat(path).st_mode)
    assert mode == 0o600
    # magic check
    raw = path.read_bytes()
    assert raw.startswith(b"PGDBKEY1")
    bad = tmp_path / "bad.keys"
    bad.write_bytes(b"NOTAKEY!" + raw[8:])
    with pytest.raises(ValueError):
        load_keys(bad)
    trunc = tmp_path / "trunc.keys"
    trunc.write_bytes(raw[:-3])
    with pytest.raises(ValueError):
        load_keys(trunc)


def test_key_file_256(tmp_path):
    keys = keygen(256, SeededRng(18))
    path = tmp_path / "k256.keys"
    save_keys(keys, path)
    loaded = load_keys(path)
    assert loaded == keys and loaded.lam == 256


def test_seeded_rng_deterministic():
    a, b = SeededRng(21), SeededRng(21)
    assert [a.bytes(9) for _ in range(4)] == [b.bytes(9) for _ in range(4)]
    assert SeededRng(21).bytes(9) != SeededRng(22).bytes(9)
