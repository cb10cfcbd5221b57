"""Framed wire protocol shared by the data server and the vetter.

Frame layout, little-endian: u32 length, u8 message type, body; the length
counts the type byte plus the body. The six search frames of the vetter ↔
data-server hop (``RAW_TYPES``) have raw bodies of the fixed layouts given at
their types below; the engine writes and reads every one of them
(``search_init``, ``generate_token``, ``read_undecided`` and ``SearchCore``).
This module passes raw bodies through unread. Every other body, on the client hop and
``MSG_ERROR`` on both hops, is a UTF-8 JSON object.
"""

from __future__ import annotations

import json
import struct

MAX_PAYLOAD = 64 * 1024 * 1024

MSG_SEARCH_INIT = 1   # vetter -> server: stag (16 or 32 B), then INIT_FIELDS
MSG_STERM_COUNT = 2   # server -> vetter: chain length, one COUNT
MSG_XTOKENS = 3       # vetter -> server: a row round's token rows, one per
                      # counter of the round, each every column left, 33 B a
                      # token
MSG_RESULT = 4        # server -> vetter: one COUNT, or the ciphertexts back to
                      # back, 36 B each; after a round's last counter once
                      # every tuple is decided, or in round one for a search
                      # without cross-terms or over an empty chain
MSG_QUERY = 5         # user -> vetter: plaintext query
MSG_ANSWER = 6        # vetter -> user: count or id list
MSG_DENIED = 7        # vetter -> user: policy rejection
MSG_ERROR = 8         # either direction: protocol/internal failure
MSG_XCOLUMN = 9       # vetter -> server: a column round's tokens, one 33-byte
                      # token of the round's column per counter of the round
MSG_UNDECIDED = 10    # server -> vetter: after a column round's last counter,
                      # while some tuple is undecided; ceil(r / 8) bytes over
                      # the round's r counters, bit i (bit i % 8 of byte i // 8)
                      # set when the i-th is undecided, zero-padded

RAW_TYPES = frozenset({MSG_SEARCH_INIT, MSG_STERM_COUNT, MSG_XTOKENS, MSG_RESULT,
                       MSG_XCOLUMN, MSG_UNDECIDED})
INIT_FIELDS = struct.Struct("<BIII")  # gamma, n_pos, n_neg, k' (0 unless a match)
COUNT = struct.Struct("<Q")

_KNOWN_TYPES = frozenset(range(1, 11))
_HEADER = struct.Struct("<IB")


class WireError(Exception):
    """Malformed frame or violated protocol invariant."""


def encode_frame(msg_type: int, obj: "dict | bytes") -> bytes:
    """One frame; ``obj`` is the raw body for ``RAW_TYPES``, a dict otherwise."""
    if msg_type not in _KNOWN_TYPES:
        raise WireError(f"unknown message type {msg_type}")
    body = obj if msg_type in RAW_TYPES else \
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

    The object of a frame in ``RAW_TYPES`` is its raw body. Returns type 0
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
    if msg_type in RAW_TYPES:
        return msg_type, body, body
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError("frame body is not valid JSON") from exc
    if not isinstance(obj, dict):
        raise WireError("frame body must be a JSON object")
    return msg_type, obj, body
