"""The reference ladder against OpenSSL and algebraic identities, and the
SEC1 point encoding."""

import secrets

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import given, settings, strategies as st

from privgendb import crypto

import ref_p256 as ref

_CURVE = ec.SECP256R1()


def _openssl_base_mul(k: int):
    nums = ec.derive_private_key(k, _CURVE).public_key().public_numbers()
    return nums.x, nums.y


def test_curve_constants_consistent():
    assert ref.is_on_curve((ref.GX, ref.GY))
    assert (ref.P + 1) % 4 == 0  # sqrt via the (p+1)/4 exponent is valid
    assert ref.mul((ref.GX, ref.GY), ref.N) is None  # generator order
    assert (crypto.ORDER, crypto.ELEMENT_LEN) == (ref.N, ref.ENCODED_LEN)
    assert crypto.IDENTITY.encode() == ref.encode_point(None)


def test_base_mul_matches_openssl():
    for _ in range(40):
        k = secrets.randbelow(ref.N - 1) + 1
        assert ref.base_mul(k) == _openssl_base_mul(k)


def test_variable_mul_matches_openssl_ecdh():
    # e * (d * G) must have the x-coordinate OpenSSL derives via ECDH
    for _ in range(20):
        d = secrets.randbelow(ref.N - 1) + 1
        e = secrets.randbelow(ref.N - 1) + 1
        point = _openssl_base_mul(d)
        ours = ref.mul(point, e)
        peer = ec.EllipticCurvePublicNumbers(*point, _CURVE).public_key()
        shared = ec.derive_private_key(e, _CURVE).exchange(ec.ECDH(), peer)
        assert ours[0] == int.from_bytes(shared, "big")
        assert ref.is_on_curve(ours)


def test_mul_edge_cases():
    g = (ref.GX, ref.GY)
    assert ref.mul(g, 0) is None
    assert ref.mul(None, 12345) is None
    assert ref.mul(g, 1) == g
    assert ref.mul(g, ref.N + 5) == ref.mul(g, 5)  # scalars reduce mod order
    # (n-1)*G is the inverse of G
    inv = ref.mul(g, ref.N - 1)
    assert inv == (ref.GX, ref.P - ref.GY)
    assert ref.add(g, inv) is None


def test_add_against_mul():
    g = (ref.GX, ref.GY)
    acc = None
    for k in range(1, 40):
        acc = ref.add(acc, g)
        assert acc == ref.mul(g, k)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=ref.N - 1),
       st.integers(min_value=1, max_value=ref.N - 1))
def test_mul_is_homomorphic(a, b):
    # (a*G)*b == (a*b mod n)*G
    left = ref.mul(ref.base_mul(a), b)
    right = ref.base_mul(a * b % ref.N)
    assert left == right


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=ref.N - 1))
def test_encode_decode_roundtrip(k):
    pt = ref.base_mul(k)
    enc = ref.encode_point(pt)
    assert len(enc) == ref.ENCODED_LEN
    assert ref.decode_point(enc) == pt


def test_encoding_is_canonical_and_strict():
    assert ref.encode_point(None) == b"\x00" * 33
    assert ref.decode_point(b"\x00" * 33) is None
    with pytest.raises(ValueError):
        ref.decode_point(b"\x01" + b"\x00" * 32)  # bad prefix
    with pytest.raises(ValueError):
        ref.decode_point(b"\x02" + ref.P.to_bytes(32, "big"))  # x >= p
    with pytest.raises(ValueError):
        ref.decode_point(b"\x02" * 5)  # wrong length
    # an x with no curve point (x=0 -> y^2=b, b is a QR? check explicitly)
    for x in range(0, 30):
        rhs = (x * x * x + ref.A * x + ref.B) % ref.P
        if ref.sqrt_mod_p(rhs) is None:
            with pytest.raises(ValueError):
                ref.decode_point(b"\x02" + x.to_bytes(32, "big"))
            break


def test_sqrt_mod_p():
    for _ in range(20):
        v = secrets.randbelow(ref.P)
        r = ref.sqrt_mod_p(v * v % ref.P)
        assert r is not None and r * r % ref.P == v * v % ref.P
