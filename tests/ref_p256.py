"""Reference P-256 scalar multiplication for the test suite.

A pure-Python 4-bit fixed-window ladder in Jacobian coordinates. It shares no
code with OpenSSL, so the production exponentiation (``crypto.base_pow`` and
``crypto.pow_x``, both inside OpenSSL) is checked against it. Far too slow
for the search path: about 4 ms per multiplication.

It also holds the curve constants and the SEC1 encoding and decoding,
which the library does not need: OpenSSL encodes and decodes every point the
protocol uses, and the library keeps only the group order and the encoded
length.

Points are affine ``(x, y)`` int tuples; ``None`` is the point at infinity.
The curve has prime order with cofactor 1, so every finite point generated
from the base point has full order n.
"""

# curve: y^2 = x^3 + ax + b over GF(p); group order n; base point G
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = -3 % P
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5

ENCODED_LEN = 33


def encode_point(pt) -> bytes:
    """SEC1 compressed encoding, 33 bytes; the identity is all-zero.

    Injective on valid points: one byte string per group element.
    """
    if pt is None:
        return bytes(ENCODED_LEN)
    x, y = pt
    return bytes([2 | (y & 1)]) + x.to_bytes(32, "big")


def sqrt_mod_p(v: int) -> "int | None":
    # p = 3 mod 4, so a square root (if any) is v^((p+1)/4)
    r = pow(v, (P + 1) >> 2, P)
    if r * r % P != v % P:
        return None
    return r


def decode_point(data: bytes):
    if len(data) != ENCODED_LEN:
        raise ValueError(f"group element must be {ENCODED_LEN} bytes, got {len(data)}")
    if data == encode_point(None):
        return None
    prefix = data[0]
    if prefix not in (2, 3):
        raise ValueError("bad group element prefix byte")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise ValueError("group element x out of range")
    y = sqrt_mod_p((x * x * x + A * x + B) % P)
    if y is None:
        raise ValueError("group element x not on curve")
    if (y & 1) != (prefix & 1):
        y = P - y
    return x, y


def is_on_curve(pt) -> bool:
    if pt is None:
        return True
    x, y = pt
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - (x * x * x + A * x + B)) % P == 0


def _jdbl(X1, Y1, Z1):
    # dbl-2007-bl; a = -3 folded into M via the generic a*ZZ^2 term
    if Y1 == 0:
        return 0, 1, 0
    XX = X1 * X1 % P
    YY = Y1 * Y1 % P
    YYYY = YY * YY % P
    ZZ = Z1 * Z1 % P
    S = 2 * ((X1 + YY) * (X1 + YY) - XX - YYYY) % P
    M = (3 * XX + A * ZZ * ZZ) % P
    T = (M * M - 2 * S) % P
    Y3 = (M * (S - T) - 8 * YYYY) % P
    Z3 = ((Y1 + Z1) * (Y1 + Z1) - YY - ZZ) % P
    return T, Y3, Z3


def _jadd(X1, Y1, Z1, X2, Y2, Z2):
    # add-2007-bl, with the doubling/inverse degeneracies handled explicitly
    if Z1 == 0:
        return X2, Y2, Z2
    if Z2 == 0:
        return X1, Y1, Z1
    Z1Z1 = Z1 * Z1 % P
    Z2Z2 = Z2 * Z2 % P
    U1 = X1 * Z2Z2 % P
    U2 = X2 * Z1Z1 % P
    S1 = Y1 * Z2 * Z2Z2 % P
    S2 = Y2 * Z1 * Z1Z1 % P
    if U1 == U2:
        if S1 != S2:
            return 0, 1, 0  # P + (-P) = O
        return _jdbl(X1, Y1, Z1)
    H = (U2 - U1) % P
    I = 4 * H * H % P
    J = H * I % P
    rr = 2 * (S2 - S1) % P
    V = U1 * I % P
    X3 = (rr * rr - J - 2 * V) % P
    Y3 = (rr * (V - X3) - 2 * S1 * J) % P
    Z3 = ((Z1 + Z2) * (Z1 + Z2) - Z1Z1 - Z2Z2) % P * H % P
    return X3, Y3, Z3


def _to_affine(X, Y, Z):
    if Z == 0:
        return None
    zinv = pow(Z, -1, P)
    zinv2 = zinv * zinv % P
    return X * zinv2 % P, Y * zinv2 * zinv % P


def mul(pt, k: int):
    """Scalar multiple k*pt, 4-bit fixed-window ladder."""
    if pt is None:
        return None
    k %= N
    if k == 0:
        return None
    x, y = pt
    # window table: tbl[i] = i * pt in Jacobian coords
    tbl = [(0, 1, 0), (x, y, 1)]
    for _ in range(14):
        tbl.append(_jadd(*tbl[-1], x, y, 1))
    X, Y, Z = 0, 1, 0
    for nib in _nibbles(k):
        if Z != 0:
            X, Y, Z = _jdbl(X, Y, Z)
            X, Y, Z = _jdbl(X, Y, Z)
            X, Y, Z = _jdbl(X, Y, Z)
            X, Y, Z = _jdbl(X, Y, Z)
        if nib:
            X, Y, Z = _jadd(X, Y, Z, *tbl[nib])
    return _to_affine(X, Y, Z)


def _nibbles(k: int):
    out = []
    while k:
        out.append(k & 0xF)
        k >>= 4
    return reversed(out)


def add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    X, Y, Z = _jadd(p1[0], p1[1], 1, p2[0], p2[1], 1)
    return _to_affine(X, Y, Z)


def base_mul(k: int):
    return mul((GX, GY), k)


def point_of(elem):
    """Affine point of a ``crypto.GroupElement``, decoded without OpenSSL."""
    return decode_point(elem.encode())


def x_bytes(pt) -> bytes:
    """32-byte big-endian x-coordinate, the form the cross-tag filter keys on."""
    return pt[0].to_bytes(32, "big")
