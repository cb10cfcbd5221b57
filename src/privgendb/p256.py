"""NIST P-256 constants and the SEC1 point encoding.

Every exponentiation the protocol needs runs inside the system's libcrypto
(see the crypto module): fixed-base ``h^e`` for the index build and token
generation, and the server's variable-base step, which yields the
x-coordinate of ``X^y``. This module keeps only what sits around those calls:
the curve constants and the 33-byte compressed encoding that tokens travel
in. An independent pure-Python ladder lives in the test suite as the
reference the libcrypto path is checked against.

Points are affine ``(x, y)`` int tuples; ``None`` is the point at infinity.
The curve has prime order with cofactor 1, so every finite point generated
from the base point has full order n.
"""

from __future__ import annotations

# curve: y^2 = x^3 + ax + b over GF(p); group order n; base point G
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = -3 % P
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5


ENCODED_LEN = 33
_IDENTITY_ENC = b"\x00" * ENCODED_LEN


def encode_point(pt) -> bytes:
    """SEC1 compressed encoding, 33 bytes; the identity is all-zero.

    Injective on valid points: one byte string per group element.
    """
    if pt is None:
        return _IDENTITY_ENC
    x, y = pt
    return bytes([2 | (y & 1)]) + x.to_bytes(32, "big")
