"""Encrypted index construction and on-disk format.

The server-visible database has two halves: a tuple set (label -> masked
payload) holding, per keyword, the chain of (blinding scalar, encrypted
record id) tuples addressed by per-counter labels, and a Bloom filter keyed
on the x-coordinates of the cross-tag group elements that lets conjunctions
be tested without revealing which keyword matched. Cross-tags themselves are
discarded after insertion; only the filter ships to the server. A chain's
labels and pads come from AES under keys drawn from its tag, so the build
and the search each derive a whole chain with one call per cipher.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import threading
import zlib
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .crypto import (
    ENC_ID_LEN,
    NONCE_LEN,
    ORDER,
    SUPPORTED_LAMBDA_BITS,
    KeySet,
    Rng,
    SystemRng,
    base_pow,
    batch_inverse,
    id_bytes,
    keyword_bytes,
    keyword_counter,
    prf_f,
    prf_fp,
    seal_record_id,
)
from .encoding import record_keywords

_MASK64 = (1 << 64) - 1

Y_LEN = 32
TUPLE_LEN = Y_LEN + ENC_ID_LEN  # plaintext tuple body: y scalar || enc record id


class IndexBuildError(Exception):
    """Index construction hit an internal inconsistency (e.g. label collision)."""


class CorruptIndexError(Exception):
    """Stored index data failed a structural or checksum validation."""


# --- plaintext inverted index ---------------------------------------------------

def build_inverted_index(gdb) -> dict:
    """keyword -> ascending list of record IDs holding that keyword.

    A record is filed under each of its ``record_keywords`` once.
    """
    iinx: dict = {}
    for rec in sorted(gdb.records, key=lambda r: r.id):
        for kw in record_keywords(rec):
            lst = iinx.get(kw)
            if lst is None:
                lst = iinx[kw] = []
            lst.append(rec.id)
    return iinx


# --- Bloom filter ----------------------------------------------------------------

class BloomFilter:
    """Double-hashing Bloom filter over byte strings.

    Bit positions are ((h1 + i*h2) mod 2^64) mod m for i < k, with h1, h2
    drawn from one SHA-256 of the element (h2 forced odd). The mod-2^64 wrap
    is part of the definition so the vectorized and scalar paths agree.
    """

    __slots__ = ("m", "k", "bits")

    MAX_K = 255  # the on-disk format stores k in one byte

    def __init__(self, m: int, k: int, bits: "np.ndarray | None" = None):
        if m < 8 or k < 1:
            raise ValueError(f"bad bloom geometry m={m} k={k}")
        self.m = m
        self.k = k
        nbytes = (m + 7) // 8
        if bits is None:
            bits = np.zeros(nbytes, dtype=np.uint8)
        elif len(bits) != nbytes:
            raise ValueError("bloom bit array length does not match m")
        self.bits = bits

    @classmethod
    def geometry(cls, n: int, p_fp: float) -> "tuple[int, int]":
        """(m, k) for n elements at target false-positive rate p_fp.

        Raises ValueError for a p_fp outside (0, 1) or one so small that k
        would not fit the format. k never grows with n, so n = 1 gives the
        most hash functions any filter at this p_fp can need.
        """
        if not (0.0 < p_fp < 1.0):
            raise ValueError(f"p_fp must be in (0,1), got {p_fp}")
        n = max(1, n)
        m = max(64, math.ceil(-n * math.log(p_fp) / math.log(2) ** 2))
        k = max(1, math.ceil(m / n * math.log(2)))
        if k > cls.MAX_K:
            raise ValueError(f"p_fp {p_fp} needs {k} hash functions; the format stores "
                             f"at most {cls.MAX_K}")
        return m, k

    @classmethod
    def with_capacity(cls, n: int, p_fp: float) -> "BloomFilter":
        """Empty filter for n elements at target false-positive rate p_fp."""
        return cls(*cls.geometry(n, p_fp))

    @staticmethod
    def _hash_pair(data: bytes) -> "tuple[int, int]":
        d = hashlib.sha256(data).digest()
        return int.from_bytes(d[:8], "little"), int.from_bytes(d[8:16], "little") | 1

    def insert_many(self, items) -> None:
        """Vectorized bulk insert of byte strings."""
        # the first 16 digest bytes as two little-endian u64s: _hash_pair's h1, h2
        digests = b"".join([hashlib.sha256(it).digest()[:16] for it in items])
        if not digests:
            return
        h = np.frombuffer(digests, dtype="<u8").reshape(-1, 2)
        h1, h2 = h[:, 0], h[:, 1] | np.uint64(1)
        steps = np.arange(self.k, dtype=np.uint64)
        pos = (h1[:, None] + steps[None, :] * h2[:, None]) % np.uint64(self.m)
        byte_idx = (pos >> np.uint64(3)).ravel()
        bit_val = np.left_shift(np.uint8(1), (pos & np.uint64(7)).ravel().astype(np.uint8))
        np.bitwise_or.at(self.bits, byte_idx, bit_val)

    def __contains__(self, data: bytes) -> bool:
        h1, h2 = self._hash_pair(data)
        m, bits = self.m, self.bits
        for i in range(self.k):
            pos = ((h1 + i * h2) & _MASK64) % m
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def to_bytes(self) -> bytes:
        return struct.pack("<QB", self.m, self.k) + self.bits.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BloomFilter":
        if len(blob) < 9:
            raise CorruptIndexError("bloom header truncated")
        m, k = struct.unpack_from("<QB", blob, 0)
        body = blob[9:]
        if len(body) != (m + 7) // 8:
            raise CorruptIndexError("bloom bit array truncated")
        try:
            return cls(m, k, np.frombuffer(body, dtype=np.uint8).copy())
        except ValueError as exc:
            raise CorruptIndexError(str(exc)) from None


# --- tuple set --------------------------------------------------------------------

_BLOCK = 16  # AES block bytes
_FIRST_BATCH = 64  # counters derived by a retrieve's first batch; later batches double


class TSet:
    """Oblivious label -> payload table addressed by per-keyword tags.

    Each keyword's tuples live at per-counter labels and are XOR-masked by
    per-counter pads; a one-byte chain flag marks the last tuple, so
    retrieval needs no stored length. Labels and pads come from AES keyed by
    two keys drawn from the stag, k_L = F(stag, "L") and k_M = F(stag, "M"),
    so AES-128 at lambda = 128 and AES-256 at lambda = 256. The label of
    counter c is AES-ECB under k_L of the blocks (c, j), each two
    little-endian u64s, for j below the label width in blocks (one block for
    16-byte labels, two for 32); its pad is ``ceil(payload_width / 16)``
    blocks of one AES-CTR keystream under k_M (initial counter block 0),
    starting at block ``ceil(payload_width / 16) * (c - 1)``. A whole
    chain's labels and pads are thus one cipher call each. Without the stag,
    entries are indistinguishable from random.
    """

    __slots__ = ("table", "label_width", "payload_width")

    def __init__(self, table: dict, label_width: int, payload_width: int):
        self.table = table
        self.label_width = label_width
        self.payload_width = payload_width

    @staticmethod
    def tag(k_t: bytes, keyword: str) -> bytes:
        return prf_f(k_t, keyword_bytes(keyword))

    @staticmethod
    def _ciphers(stag: bytes):
        """The label (AES-ECB) and pad (AES-CTR from block 0) encryptors of a chain."""
        labels = Cipher(algorithms.AES(prf_f(stag, b"L")), modes.ECB()).encryptor()
        pads = Cipher(algorithms.AES(prf_f(stag, b"M")), modes.CTR(bytes(_BLOCK))).encryptor()
        return labels, pads

    @staticmethod
    def _derive(ciphers, first: int, n: int, label_width: int,
                payload_width: int) -> "tuple[list, np.ndarray]":
        """Labels and pads of counters first .. first + n - 1.

        Returns the n labels as bytes and the pads as an (n, payload_width)
        uint8 array. The pad stream is read on from where the last call on
        the same ``ciphers`` stopped, so calls must go in counter order.
        """
        labels, pads = ciphers
        halves = label_width // _BLOCK
        blocks = np.empty((n, halves, 2), dtype="<u8")
        blocks[:, :, 0] = np.arange(first, first + n, dtype=np.uint64)[:, None]
        blocks[:, :, 1] = np.arange(halves, dtype=np.uint64)
        raw = labels.update(blocks.tobytes())
        per = -(-payload_width // _BLOCK) * _BLOCK
        stream = np.frombuffer(pads.update(bytes(n * per)), dtype=np.uint8)
        return ([raw[i : i + label_width] for i in range(0, len(raw), label_width)],
                stream.reshape(n, per)[:, :payload_width])

    @classmethod
    def chain(cls, stag: bytes, payloads) -> list:
        """The (label, masked body) pairs of one keyword's chain of payloads."""
        n = len(payloads)
        if not n:
            return []
        width = len(payloads[0])
        if any(len(p) != width for p in payloads):
            raise ValueError("a chain's payloads must have one width")
        body = np.zeros((n, 1 + width), dtype=np.uint8)
        body[-1, 0] = 1  # the flag that ends the chain
        body[:, 1:] = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(n, width)
        labels, pads = cls._derive(cls._ciphers(stag), 1, n, len(stag), 1 + width)
        masked = (body ^ pads).tobytes()
        return list(zip(labels, (masked[i : i + 1 + width]
                                 for i in range(0, len(masked), 1 + width))))

    def retrieve(self, stag: bytes) -> list:
        """All payloads chained under stag, counter order; [] if none exist.

        Labels and pads are derived in batches of 64 counters, then 128, 256
        and so on, until the flag byte ends the chain.
        """
        label_w, width = self.label_width, self.payload_width
        if len(stag) != label_w:
            return []  # no stag of this width ever filed a chain here
        ciphers = self._ciphers(stag)
        get = self.table.get
        out: list = []
        first, n = 1, _FIRST_BATCH
        while True:
            labels, pads = self._derive(ciphers, first, n, label_w, width)
            masked = list(map(get, labels))
            try:
                found = masked.index(None)
            except ValueError:
                found = n
            if not found and first == 1:
                return []
            body = np.frombuffer(b"".join(masked[:found]), dtype=np.uint8)
            body = body.reshape(found, width) ^ pads[:found]
            flags = body[:, 0]
            ends = np.flatnonzero(flags)
            if ends.size:
                found = int(ends[0]) + 1
                flag = int(flags[found - 1])
                if flag != 1:
                    raise CorruptIndexError(
                        f"bad tuple flag byte {flag:#x} at counter {first + found - 1}")
            elif found < n:
                raise CorruptIndexError(f"tuple chain truncated at counter {first + found}")
            rows = body[:found, 1:].tobytes()
            out += [rows[i : i + width - 1] for i in range(0, len(rows), width - 1)]
            if ends.size:
                return out
            first += n
            n *= 2

    def __len__(self):
        return len(self.table)


# --- encrypted database -------------------------------------------------------------

GROUP_P256 = 1
EGDB_MAGIC = b"PGDBEDB1"
# 2: the Bloom filter is keyed on cross-tag x-coordinates
# 3: TSet labels and pads come from AES under keys drawn from the stag
EGDB_VERSION = 3


@dataclass(frozen=True, slots=True)
class EgdbParams:
    p_fp: float
    label_width: int
    payload_width: int
    n_entries: int
    group_id: int = GROUP_P256


@dataclass(slots=True)
class Egdb:
    tset: TSet
    xfilter: BloomFilter
    params: EgdbParams


_POOL_MIN_ENTRIES = 4096  # below this, starting a process pool costs more than it saves
_CHUNKS_PER_WORKER = 8


def _encrypt_keywords(job) -> "tuple[list, list]":
    """Encrypt one chunk of keywords into TSet entries and cross-tag keys.

    ``job`` is (k_s, k_x, k_z, k_t, chunk), where chunk lists
    (keyword, record ids, xids, nonces) with one xid and nonce per id.
    Returns the (label, masked body) pairs and the cross-tag x-coordinates.
    Module-level so that a process pool can run it.
    """
    k_s, k_x, k_z, k_t, chunk = job
    pairs: list = []
    xs: list = []
    for g, rids, xids, nonces in chunk:
        gb = keyword_bytes(g)
        x_g = prf_fp(k_x, gb)
        aead = AESGCM(prf_f(k_s, gb))
        z_inv = batch_inverse(
            prf_fp(k_z, keyword_counter(g, c)) for c in range(1, len(rids) + 1)
        )
        payloads = []
        for rid, xid, nonce, zi in zip(rids, xids, nonces, z_inv):
            xs.append(base_pow(x_g * xid % ORDER).x_bytes())
            y = (xid * zi % ORDER).to_bytes(Y_LEN, "big")
            payloads.append(y + seal_record_id(aead, nonce, rid))
        pairs += TSet.chain(TSet.tag(k_t, g), payloads)
    return pairs, xs


def _worker_count(n_entries: int) -> int:
    """Processes to encrypt with, one per usable CPU; 1 means in this process.

    The pool forks, because forked workers start without re-importing the
    package (about 0.01 s against 0.36 s for spawn on a 2-core machine). A
    fork while other threads run can deadlock the child on a lock one of
    them held, so a multi-threaded caller, such as a test suite with live
    servers, builds in-process.
    """
    if n_entries < _POOL_MIN_ENTRIES or threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _keyword_jobs(keys: KeySet, iinx: dict, rng: Rng, target: int):
    """Jobs for ``_encrypt_keywords``: sorted keywords cut into chunks of
    about ``target`` entries, with every nonce drawn from ``rng`` in
    sorted-keyword, counter order. Lazy, so workers start on the first
    chunk while later nonces are still being drawn."""
    xid_of = {rid: prf_fp(keys.k_i, id_bytes(rid))
              for rid in {rid for ids in iinx.values() for rid in ids}}
    chunk: list = []
    size = 0
    for g in sorted(iinx):
        ids = iinx[g]
        if not ids:
            continue
        chunk.append((g, ids, [xid_of[rid] for rid in ids], [rng.bytes(NONCE_LEN) for _ in ids]))
        size += len(ids)
        if size >= target:
            yield keys.k_s, keys.k_x, keys.k_z, keys.k_t, chunk
            chunk, size = [], 0
    if chunk:
        yield keys.k_s, keys.k_x, keys.k_z, keys.k_t, chunk


def build_egdb(keys: KeySet, iinx: dict, rng: "Rng | None" = None,
               p_fp: float = 1e-6) -> Egdb:
    """Encrypt an inverted index into a server-ready database.

    All randomness is drawn in this process, keyword by keyword in sorted
    order, so a seeded rng yields a byte-identical database however many
    processes do the per-keyword encryption. Cross-tags go into the Bloom
    filter chunk by chunk and are never retained.
    """
    rng = rng or SystemRng()
    n_entries = sum(len(ids) for ids in iinx.values())
    bloom = BloomFilter.with_capacity(n_entries, p_fp)
    workers = _worker_count(n_entries)
    jobs = _keyword_jobs(keys, iinx, rng, -(-n_entries // (workers * _CHUNKS_PER_WORKER)))
    table: dict = {}
    pool = None
    if workers > 1:
        # imported here: the data server and the vetter load this module but
        # never build, and the pool's modules add about 1.4 MB to their RSS
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        for pairs, xs in (pool.map if pool else map)(_encrypt_keywords, jobs):
            before = len(table)
            table.update(pairs)
            if len(table) != before + len(pairs):
                raise IndexBuildError("tuple-set label collision; rebuild with new keys")
            bloom.insert_many(xs)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    tset = TSet(table, len(keys.k_t), 1 + TUPLE_LEN)
    params = EgdbParams(p_fp, tset.label_width, tset.payload_width, len(tset))
    return Egdb(tset, bloom, params)


_Y_ZERO = bytes(Y_LEN)
_Y_ORDER = ORDER.to_bytes(Y_LEN, "big")


def parse_tuple(payload: bytes) -> "tuple[bytes, bytes]":
    """Split a retrieved tuple into (y scalar, encrypted record id).

    y stays its 32 big-endian bytes, checked for 1 <= y < ORDER by comparing
    bytes; the search core builds the int only for a tuple it must raise.
    """
    if len(payload) != TUPLE_LEN:
        raise CorruptIndexError(f"tuple body has {len(payload)} bytes, want {TUPLE_LEN}")
    y = payload[:Y_LEN]
    if not (_Y_ZERO < y < _Y_ORDER):
        raise CorruptIndexError("tuple blinding scalar out of range")
    return y, payload[Y_LEN:]


# --- serialization -------------------------------------------------------------------

def serialize_egdb(egdb: Egdb, fh) -> int:
    """Write the database to a binary file; returns bytes written.

    Layout (little-endian): magic, version u16, group id u8, bloom
    (m u64, k u8, bits), entry count u64, label width u8, payload width u16,
    p_fp f64, then (label || payload) pairs sorted by label, then CRC32 of
    everything before it.
    """
    crc = 0
    total = 0

    def put(chunk: bytes):
        nonlocal crc, total
        fh.write(chunk)
        crc = zlib.crc32(chunk, crc)
        total += len(chunk)

    p = egdb.params
    put(EGDB_MAGIC)
    put(struct.pack("<HB", EGDB_VERSION, p.group_id))
    put(egdb.xfilter.to_bytes())
    put(struct.pack("<QBHd", p.n_entries, p.label_width, p.payload_width, p.p_fp))
    for label in sorted(egdb.tset.table):
        put(label + egdb.tset.table[label])
    fh.write(struct.pack("<I", crc))
    return total + 4


def load_egdb(source) -> Egdb:
    """Parse a serialized database; raises CorruptIndexError on any damage."""
    if isinstance(source, (bytes, bytearray)):
        blob = bytes(source)
    else:
        with open(str(source), "rb") as fh:
            blob = fh.read()
    if len(blob) < len(EGDB_MAGIC) + 3 + 9 + 19 + 4:
        raise CorruptIndexError("encrypted database file truncated")
    if blob[: len(EGDB_MAGIC)] != EGDB_MAGIC:
        raise CorruptIndexError("not an encrypted database file (bad magic)")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise CorruptIndexError("checksum mismatch; file is damaged")
    off = len(EGDB_MAGIC)
    version, group_id = struct.unpack_from("<HB", blob, off)
    off += 3
    if version != EGDB_VERSION:
        raise CorruptIndexError(f"unsupported database version {version}")
    if group_id != GROUP_P256:
        raise CorruptIndexError(f"unsupported group id {group_id}")
    m, k = struct.unpack_from("<QB", blob, off)
    bloom_bytes = (m + 7) // 8
    bloom = BloomFilter.from_bytes(blob[off : off + 9 + bloom_bytes])
    off += 9 + bloom_bytes
    n_entries, label_w, payload_w, p_fp = struct.unpack_from("<QBHd", blob, off)
    off += 19
    if label_w * 8 not in SUPPORTED_LAMBDA_BITS:
        raise CorruptIndexError(f"unsupported label width {label_w}")
    if payload_w != 1 + TUPLE_LEN:
        raise CorruptIndexError(f"payload width {payload_w}, want {1 + TUPLE_LEN}")
    pair_w = label_w + payload_w
    body = memoryview(blob)[off : len(blob) - 4]
    if len(body) != n_entries * pair_w:
        raise CorruptIndexError("entry table length mismatch")
    table = {}
    for i in range(n_entries):
        base = i * pair_w
        table[bytes(body[base : base + label_w])] = bytes(
            body[base + label_w : base + pair_w]
        )
    if len(table) != n_entries:
        raise CorruptIndexError("duplicate labels in entry table")
    tset = TSet(table, label_w, payload_w)
    return Egdb(tset, bloom, EgdbParams(p_fp, label_w, payload_w, n_entries, group_id))
