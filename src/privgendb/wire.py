"""Framed wire protocol shared by the data server and the vetter.

Frame layout, little-endian: u32 length, u8 message type, body; the length
counts the type byte plus the body. Every body is a UTF-8 JSON object, in
which binary fields (tags, ciphertexts) travel as base64 strings, except a
``MSG_XTOKENS`` body: that is raw bytes, the round-two token rows as
``engine.generate_token`` packs them and ``engine.SearchCore.feed`` reads and
checks them. This module passes them through unread.
"""

from __future__ import annotations

import base64
import json
import struct

MAX_PAYLOAD = 64 * 1024 * 1024

MSG_SEARCH_INIT = 1   # vetter -> server: stag, gamma, n_pos, n_neg, k_prime?
MSG_STERM_COUNT = 2   # server -> vetter: tuple count
MSG_XTOKENS = 3       # vetter -> server: raw token rows, one per counter
MSG_RESULT = 4        # server -> vetter: count or ciphertext list, after the
                      # chain's last counter, or in round one for a search
                      # without cross-terms or over an empty chain
MSG_QUERY = 5         # user -> vetter: plaintext query
MSG_ANSWER = 6        # vetter -> user: count or id list
MSG_DENIED = 7        # vetter -> user: policy rejection
MSG_ERROR = 8         # either direction: protocol/internal failure

_KNOWN_TYPES = frozenset(range(1, 9))
_HEADER = struct.Struct("<IB")


class WireError(Exception):
    """Malformed frame or violated protocol invariant."""


def b64e(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def b64d(text) -> bytes:
    if not isinstance(text, str):
        raise WireError("expected base64 string")
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise WireError("bad base64 field") from exc


def encode_frame(msg_type: int, obj: "dict | bytes") -> bytes:
    """One frame; ``obj`` is the raw body for ``MSG_XTOKENS``, a dict otherwise."""
    if msg_type not in _KNOWN_TYPES:
        raise WireError(f"unknown message type {msg_type}")
    body = obj if msg_type == MSG_XTOKENS else \
        json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) + 1 > MAX_PAYLOAD:
        raise WireError("frame too large")
    return _HEADER.pack(len(body) + 1, msg_type) + body


def send_frame(sock, msg_type: int, obj: "dict | bytes") -> bytes:
    """Send one frame in one write; returns the encoded bytes (for transcripts)."""
    frame = encode_frame(msg_type, obj)
    sock.sendall(frame)
    return frame


def _read_exact(reader, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = reader.read(n - got)
        if not chunk:
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(reader) -> "tuple[int, dict | bytes, bytes]":
    """Read one frame from a binary reader; returns (type, object, raw body).

    The object of a ``MSG_XTOKENS`` frame is its raw body. Returns type 0
    on clean EOF before any header byte.
    """
    first = reader.read(1)
    if not first:
        return 0, {}, b""
    header = first + _read_exact(reader, _HEADER.size - 1)
    length, msg_type = _HEADER.unpack(header)
    if length < 1 or length > MAX_PAYLOAD:
        raise WireError(f"bad frame length {length}")
    if msg_type not in _KNOWN_TYPES:
        raise WireError(f"unknown message type {msg_type}")
    body = _read_exact(reader, length - 1)
    if msg_type == MSG_XTOKENS:
        return msg_type, body, body
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError("frame body is not valid JSON") from exc
    if not isinstance(obj, dict):
        raise WireError("frame body must be a JSON object")
    return msg_type, obj, body
