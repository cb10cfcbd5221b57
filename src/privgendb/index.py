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
import mmap
import os
import struct
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from .crypto import (
    AES_CTR,
    AES_ECB,
    ENC_ID_LEN,
    NONCE_LEN,
    ORDER,
    SUPPORTED_LAMBDA_BITS,
    KeySet,
    Rng,
    SystemRng,
    aes_in_place,
    aes_key,
    base_pow,
    batch_inverse,
    id_bytes,
    keyword_bytes,
    keyword_counter,
    prf_f,
    prf_fp,
    record_aead,
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


def keyword_frequencies(gdb) -> dict:
    """Owner-side keyword -> record count hint used for sterm selection."""
    return {kw: len(ids) for kw, ids in build_inverted_index(gdb).items()}


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
    def from_bytes(cls, blob) -> "BloomFilter":
        """The filter serialized in blob, its bits a read-only view of blob."""
        if len(blob) < 9:
            raise CorruptIndexError("bloom header truncated")
        m, k = struct.unpack_from("<QB", blob, 0)
        body = blob[9:]
        if len(body) != (m + 7) // 8:
            raise CorruptIndexError("bloom bit array truncated")
        try:
            return cls(m, k, np.frombuffer(body, dtype=np.uint8))
        except ValueError as exc:
            raise CorruptIndexError(str(exc)) from None


# --- tuple set --------------------------------------------------------------------

_BLOCK = 16  # AES block bytes
# Counters derived by a retrieve's first batch; later batches double. Most
# chains an id query opens hold one tuple, and a first batch derives that
# many labels and probes that many rows of a cold key array. In process, on
# deploybench's patient-match table (5,000 records x 40 SNPs, 2 cores), the
# median open of its id searches took 0.117 ms with 64, 0.090 with 16, 0.081
# with 8 and 0.078 with 1, and of its counts (chains of 300-2,500) 1.01,
# 0.97, 0.99 and 1.08 ms.
_FIRST_BATCH = 8
_SORTED_PROBES = 512  # batches this long search faster with their probes sorted first


def _search_keys(rows: np.ndarray) -> np.ndarray:
    """Each row's first 8 bytes as a big-endian u64, in native byte order."""
    return rows[:, :8].copy().view(">u8").ravel().astype(np.uint64)


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
    chain's labels and pads are thus one cipher call each, made through
    libcrypto's EVP calls on the calling thread's two AES contexts and
    written in place into the arrays that hold them. Without the stag,
    entries are indistinguishable from random.

    ``rows`` holds the read-only (label || masked body) rows, sorted by
    ``keys``: each label's first 8 bytes as a big-endian u64, which must
    strictly ascend.
    """

    __slots__ = ("rows", "keys", "label_width", "payload_width")

    def __init__(self, rows: np.ndarray, label_width: int, payload_width: int):
        keys = _search_keys(rows)
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("tuple-set labels' 8-byte prefixes do not strictly ascend")
        rows.flags.writeable = False
        self.rows, self.keys = rows, keys
        self.label_width = label_width
        self.payload_width = payload_width

    @staticmethod
    def tag(k_t: bytes, keyword: str) -> bytes:
        return prf_f(k_t, keyword_bytes(keyword))

    @staticmethod
    def _set_keys(stag: bytes) -> None:
        """Key this thread's label (AES-ECB) and pad (AES-CTR from block 0)
        contexts for the chain under stag."""
        aes_key(AES_ECB, prf_f(stag, b"L"))
        aes_key(AES_CTR, prf_f(stag, b"M"))

    @staticmethod
    def _derive(first: int, n: int, label_width: int,
                payload_width: int) -> "tuple[np.ndarray, np.ndarray]":
        """Labels and pads of counters first .. first + n - 1 of the chain
        ``_set_keys`` last keyed on this thread.

        Returns them as (n, label_width) and (n, payload_width) uint8 arrays.
        The pad stream is read on from where the last call stopped, so calls
        must go in counter order, with no other chain keyed in between.
        """
        halves = label_width // _BLOCK
        labels = np.empty((n, halves, 2), dtype="<u8")
        labels[:, :, 0] = np.arange(first, first + n, dtype=np.uint64)[:, None]
        labels[:, :, 1] = np.arange(halves, dtype=np.uint64)
        aes_in_place(AES_ECB, labels)
        pads = np.zeros((n, -(-payload_width // _BLOCK) * _BLOCK), dtype=np.uint8)
        aes_in_place(AES_CTR, pads)  # the keystream, XORed onto zeros
        return labels.view(np.uint8).reshape(n, label_width), pads[:, :payload_width]

    @classmethod
    def chain(cls, stag: bytes, payloads) -> np.ndarray:
        """The (label || masked body) rows of one keyword's chain of payloads."""
        widths = {len(p) for p in payloads}
        if len(widths) != 1:
            raise ValueError("a chain needs one or more payloads of one width")
        n, label_w, width = len(payloads), len(stag), widths.pop()
        cls._set_keys(stag)
        labels, pads = cls._derive(1, n, label_w, 1 + width)
        rows = np.zeros((n, label_w + 1 + width), dtype=np.uint8)
        rows[:, :label_w] = labels
        rows[-1, label_w] = 1  # the flag that ends the chain
        rows[:, label_w + 1 :] = np.frombuffer(b"".join(payloads), np.uint8).reshape(n, width)
        rows[:, label_w:] ^= pads
        return rows

    def retrieve(self, stag: bytes) -> np.ndarray:
        """The bodies chained under stag, in counter order, without their flag byte.

        Returns one (n, payload_width - 1) uint8 array: row c - 1 is the
        unmasked body of counter c, and n = 0 if no chain is filed under
        stag. Labels and pads are derived in batches of ``_FIRST_BATCH``
        counters, then twice as many each time, until the flag byte ends the
        chain.
        """
        label_w, width = self.label_width, self.payload_width
        no_chain = np.empty((0, width - 1), dtype=np.uint8)
        if len(stag) != label_w or not len(self.keys):
            return no_chain  # no stag of this width ever filed a chain here
        self._set_keys(stag)
        parts: list = []
        first, n = 1, _FIRST_BATCH
        while True:
            labels, pads = self._derive(first, n, label_w, width)
            probes = _search_keys(labels)
            order = np.argsort(probes) if n >= _SORTED_PROBES else slice(None)
            at = np.empty(n, dtype=np.intp)
            at[order] = self.keys.searchsorted(probes[order])
            cand = self.rows.take(at, axis=0, mode="clip")
            hits = (cand[:, :label_w] == labels).all(axis=1)
            found = n if hits.all() else int(hits.argmin())
            if not found and first == 1:
                return no_chain
            body = cand[:found, label_w:] ^ pads[:found]
            ends = np.flatnonzero(body[:, 0])
            if ends.size:
                found = int(ends[0]) + 1
                if body[found - 1, 0] != 1:
                    raise CorruptIndexError(f"bad tuple flag byte {body[found - 1, 0]:#x} "
                                            f"at counter {first + found - 1}")
            elif found < n:
                raise CorruptIndexError(f"tuple chain truncated at counter {first + found}")
            parts.append(body[:found, 1:])
            if ends.size:
                return parts[0] if len(parts) == 1 else np.concatenate(parts)
            first += n
            n *= 2

    def __len__(self):
        return len(self.rows)


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


def _encrypt_keywords(job) -> "tuple[np.ndarray, list]":
    """Encrypt one chunk of keywords into TSet rows and cross-tag keys.

    ``job`` is (k_s, k_x, k_z, k_t, chunk), where chunk lists
    (keyword, record ids, xids, nonces) with one xid and nonce per id.
    Returns the chains' (label || masked body) rows and the cross-tag
    x-coordinates. Module-level so that a process pool can run it.
    """
    k_s, k_x, k_z, k_t, chunk = job
    chains: list = []
    xs: list = []
    for g, rids, xids, nonces in chunk:
        gb = keyword_bytes(g)
        x_g = prf_fp(k_x, gb)
        aead = record_aead(prf_f(k_s, gb))
        z_inv = batch_inverse(
            prf_fp(k_z, keyword_counter(g, c)) for c in range(1, len(rids) + 1)
        )
        payloads = []
        for rid, xid, nonce, zi in zip(rids, xids, nonces, z_inv):
            xs.append(base_pow(x_g * xid % ORDER).x_bytes())
            y = (xid * zi % ORDER).to_bytes(Y_LEN, "big")
            payloads.append(y + seal_record_id(aead, nonce, rid))
        chains.append(TSet.chain(TSet.tag(k_t, g), payloads))
    return np.concatenate(chains), xs


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
    chunks = [np.empty((0, len(keys.k_t) + 1 + TUPLE_LEN), dtype=np.uint8)]
    pool = None
    if workers > 1:
        # imported here: the data server and the vetter load this module but
        # never build, and the pool's modules add about 1.4 MB to their RSS
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        for rows, xs in (pool.map if pool else map)(_encrypt_keywords, jobs):
            chunks.append(rows)
            bloom.insert_many(xs)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    rows = np.concatenate(chunks)
    try:
        tset = TSet(rows[np.argsort(_search_keys(rows))], len(keys.k_t), 1 + TUPLE_LEN)
    except ValueError:
        raise IndexBuildError("tuple-set label collision; rebuild with new keys") from None
    return Egdb(tset, bloom, EgdbParams(p_fp, tset.label_width, tset.payload_width, len(tset)))


_Y_ZERO = bytes(Y_LEN)
_Y_ORDER = ORDER.to_bytes(Y_LEN, "big")


def check_tuples(bodies: np.ndarray) -> np.ndarray:
    """Check a retrieved chain's tuple bodies and return them as they are.

    Each row is a blinding scalar y, 32 big-endian bytes, then an encrypted
    record id. Raises CorruptIndexError unless the rows are ``TUPLE_LEN``
    wide and every y has 1 <= y < ORDER. The y check compares the scalars as
    32-byte strings, one call over the whole chain: numpy ignores trailing
    NUL bytes, which for strings of one length keeps the bytewise order.
    """
    if bodies.shape[1] != TUPLE_LEN:
        raise CorruptIndexError(f"tuple body has {bodies.shape[1]} bytes, want {TUPLE_LEN}")
    ys = np.ascontiguousarray(bodies[:, :Y_LEN]).view(f"S{Y_LEN}").ravel()
    if not ((ys > _Y_ZERO) & (ys < _Y_ORDER)).all():
        raise CorruptIndexError("tuple blinding scalar out of range")
    return bodies


# --- serialization -------------------------------------------------------------------

def serialize_egdb(egdb: Egdb, fh) -> int:
    """Write the database to a binary file; returns bytes written.

    Layout (little-endian): magic, version u16, group id u8, bloom
    (m u64, k u8, bits), entry count u64, label width u8, payload width u16,
    p_fp f64, then the TSet's (label || masked body) rows sorted by label,
    then CRC32 of everything before it.
    """
    p = egdb.params
    head = (EGDB_MAGIC + struct.pack("<HB", EGDB_VERSION, p.group_id) + egdb.xfilter.to_bytes()
            + struct.pack("<QBHd", p.n_entries, p.label_width, p.payload_width, p.p_fp))
    rows = memoryview(egdb.tset.rows)  # written as it is, not copied
    for chunk in (head, rows, struct.pack("<I", zlib.crc32(rows, zlib.crc32(head)))):
        fh.write(chunk)
    return len(head) + rows.nbytes + 4


def load_egdb(source) -> Egdb:
    """Parse a serialized database; raises CorruptIndexError on damage.

    ``source`` is the file's bytes or its path. A path is mapped read-only,
    and the loaded table and Bloom bits are views of that mapping, as they
    are of the bytes otherwise: nothing is copied. The checks read every
    byte: the whole-file CRC-32, the header, and the table's search keys.
    The pages they touched are then dropped from this process's resident
    set, and each search maps back, from the page cache, only the pages it
    reads. A file must therefore be replaced, never rewritten in place,
    while a database loaded from it is in use.
    """
    if isinstance(source, (bytes, bytearray)):
        blob = bytes(source)
    else:
        with open(str(source), "rb") as fh:
            try:
                blob = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:  # mmap refuses a file of length 0
                raise CorruptIndexError("encrypted database file truncated") from None
    if len(blob) < len(EGDB_MAGIC) + 3 + 9 + 19 + 4:
        raise CorruptIndexError("encrypted database file truncated")
    if blob[: len(EGDB_MAGIC)] != EGDB_MAGIC:
        raise CorruptIndexError("not an encrypted database file (bad magic)")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(memoryview(blob)[:-4]) != stored_crc:
        raise CorruptIndexError("checksum mismatch; file is damaged")
    off = len(EGDB_MAGIC)
    version, group_id = struct.unpack_from("<HB", blob, off)
    off += 3
    if version != EGDB_VERSION:
        raise CorruptIndexError(f"unsupported database version {version}")
    if group_id != GROUP_P256:
        raise CorruptIndexError(f"unsupported group id {group_id}")
    (m,) = struct.unpack_from("<Q", blob, off)
    bloom = BloomFilter.from_bytes(memoryview(blob)[off : off + 9 + (m + 7) // 8])
    off += 9 + len(bloom.bits)
    if off + 19 > len(blob) - 4:
        raise CorruptIndexError("encrypted database file truncated")
    n_entries, label_w, payload_w, p_fp = struct.unpack_from("<QBHd", blob, off)
    off += 19
    if label_w * 8 not in SUPPORTED_LAMBDA_BITS:
        raise CorruptIndexError(f"unsupported label width {label_w}")
    if payload_w != 1 + TUPLE_LEN:
        raise CorruptIndexError(f"payload width {payload_w}, want {1 + TUPLE_LEN}")
    pair_w = label_w + payload_w
    if len(blob) - 4 - off != n_entries * pair_w:
        raise CorruptIndexError("entry table length mismatch")
    rows = np.frombuffer(blob, dtype=np.uint8, count=n_entries * pair_w, offset=off)
    try:
        tset = TSet(rows.reshape(n_entries, pair_w), label_w, payload_w)
    except ValueError as exc:
        raise CorruptIndexError(str(exc)) from None
    if isinstance(blob, mmap.mmap):
        blob.madvise(mmap.MADV_DONTNEED)
    return Egdb(tset, bloom, EgdbParams(p_fp, label_w, payload_w, n_entries, group_id))
