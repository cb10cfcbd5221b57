"""Bloom filter, tuple set, database build, and the serialized format."""

import concurrent.futures
import hashlib
import io
import itertools
import os
import random
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings, strategies as st

from privgendb.crypto import (
    AES_CTR,
    AES_ECB,
    ORDER,
    SeededRng,
    base_pow,
    exponent_key,
    id_bytes,
    keygen,
    keyword_bytes,
    keyword_counter,
    prf_f,
    prf_fp,
    pow_x,
)
import privgendb.engine as engine_mod
import privgendb.index as index_mod
from privgendb.encoding import parse_gdb, parse_query
from privgendb.engine import GAMMA_COUNT, SearchCore, run_query
from privgendb.index import (
    EGDB_MAGIC,
    EGDB_VERSION,
    GROUP_P256,
    TUPLE_LEN,
    Y_LEN,
    BloomFilter,
    CorruptIndexError,
    IndexBuildError,
    TSet,
    build_egdb,
    build_inverted_index,
    check_tuples,
    load_egdb,
    serialize_egdb,
)
from privgendb.wire import COUNT, INIT_FIELDS

from conftest import GOLDEN_COUNTS, GOLDEN_IDS, egdb_to_bytes, random_cohort, scalar_inverse
from oracle import SyntheticSpec, gen_synthetic

import ref_p256 as ref


# --- inverted index -----------------------------------------------------------

def test_demo_inverted_index(demo_iinx):
    assert demo_iinx["Cancer B"] == [2, 5, 7]
    assert demo_iinx["2CC"] == [1, 2, 4, 5, 6]
    assert demo_iinx["4GG"] == [6]
    assert demo_iinx["ID:3"] == [3]
    assert len(demo_iinx) == 20  # 13 universe keywords + 7 id keywords
    assert sum(map(len, demo_iinx.values())) == 42


def test_inverted_index_ascending_and_consistent():
    rng = random.Random(77)
    gdb = random_cohort(rng, 30, 4, with_metadata=True)
    iinx = build_inverted_index(gdb)
    from privgendb.encoding import record_keywords

    for kw, ids in iinx.items():
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
    # g in record_keywords(rec) <=> rec.id in iinx[g]
    for rec in gdb.records:
        kws = record_keywords(rec)
        for kw in kws:
            assert rec.id in iinx[kw]
        for kw, ids in iinx.items():
            assert (rec.id in ids) == (kw in kws)


# --- bloom filter ----------------------------------------------------------------

def bloom_insert(bf: BloomFilter, data: bytes) -> None:
    """Scalar reference for BloomFilter.insert_many: one item, bit by bit."""
    d = hashlib.sha256(data).digest()
    h1, h2 = int.from_bytes(d[:8], "little"), int.from_bytes(d[8:16], "little") | 1
    for i in range(bf.k):
        pos = ((h1 + i * h2) % 2**64) % bf.m
        bf.bits[pos >> 3] |= 1 << (pos & 7)


def test_bloom_geometry_golden():
    bf = BloomFilter.with_capacity(1000, 1e-6)
    assert bf.m == 28756
    assert bf.k == 20


def test_bloom_geometry_bounds():
    assert BloomFilter.with_capacity(0, 0.5).m == 64  # floor
    with pytest.raises(ValueError):
        BloomFilter.with_capacity(10, 0.0)
    with pytest.raises(ValueError):
        BloomFilter.with_capacity(10, 1.5)


def test_bloom_rejects_more_hash_functions_than_the_format_stores():
    # k is stored as a u8: 1e-80 needs 266 hash functions
    with pytest.raises(ValueError, match="266 hash functions"):
        BloomFilter.with_capacity(1000, 1e-80)
    assert BloomFilter.geometry(1000, 1e-76)[1] <= BloomFilter.MAX_K
    # n = 1 bounds k for every n at the same p_fp
    for p_fp in (1e-3, 1e-30, 1e-76):
        k1 = BloomFilter.geometry(1, p_fp)[1]
        assert all(BloomFilter.geometry(n, p_fp)[1] <= k1 for n in (2, 3, 7, 1000, 10**6))


def test_bloom_no_false_negatives_small():
    bf = BloomFilter.with_capacity(500, 1e-4)
    rng = SeededRng(31)
    items = [rng.bytes(33) for _ in range(500)]
    for it in items:
        bloom_insert(bf, it)
    assert all(it in bf for it in items)


def test_bloom_insert_many_matches_scalar():
    rng = SeededRng(32)
    items = [rng.bytes(33) for _ in range(300)]
    a = BloomFilter.with_capacity(300, 1e-5)
    b = BloomFilter.with_capacity(300, 1e-5)
    for it in items:
        bloom_insert(a, it)
    b.insert_many(items)
    assert a.bits.tobytes() == b.bits.tobytes()
    b.insert_many([])  # no-op


def test_bloom_serialization_roundtrip():
    bf = BloomFilter.with_capacity(100, 1e-3)
    bloom_insert(bf, b"hello")
    blob = bf.to_bytes()
    bf2 = BloomFilter.from_bytes(blob)
    assert bf2.m == bf.m and bf2.k == bf.k
    assert b"hello" in bf2 and b"other" not in bf2
    with pytest.raises(CorruptIndexError):
        BloomFilter.from_bytes(blob[:-1])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=40), max_size=40))
def test_bloom_membership_property(items):
    bf = BloomFilter.with_capacity(max(len(items), 1), 1e-3)
    bf.insert_many(items)
    assert all(it in bf for it in items)


# --- tuple set --------------------------------------------------------------------

def ref_label(stag: bytes, c: int) -> bytes:
    """Label of counter c, one AES-ECB call of its own: blocks (c, 0), (c, 1), ..."""
    blocks = b"".join(struct.pack("<QQ", c, j) for j in range(len(stag) // 16))
    return Cipher(algorithms.AES(prf_f(stag, b"L")), modes.ECB()).encryptor().update(blocks)


def ref_entry(stag: bytes, c: int, last: bool, payload: bytes) -> "tuple[bytes, bytes]":
    """(label, masked body) of tuple c, the pad from a fresh AES-CTR keystream
    that starts at the counter's own block; the reference for TSet's bulk path."""
    body = (b"\x01" if last else b"\x00") + payload
    start = -(-len(body) // 16) * (c - 1)
    ctr = modes.CTR(start.to_bytes(16, "big"))
    pad = Cipher(algorithms.AES(prf_f(stag, b"M")), ctr).encryptor().update(bytes(len(body)))
    return ref_label(stag, c), bytes(a ^ b for a, b in zip(body, pad))


def tset_setup(chains: dict, k_t: bytes, payload_len: int) -> TSet:
    """A TSet holding each keyword's payloads as its chain, built entry by entry."""
    entries = []
    for kw, payloads in chains.items():
        stag = TSet.tag(k_t, kw)
        for c, payload in enumerate(payloads, 1):
            if len(payload) != payload_len:
                raise IndexBuildError(f"payload for {kw!r} has {len(payload)} bytes")
            entries.append(b"".join(ref_entry(stag, c, c == len(payloads), payload)))
    rows = np.frombuffer(b"".join(sorted(entries)), dtype=np.uint8)
    return TSet(rows.reshape(-1, len(k_t) + 1 + payload_len), len(k_t), 1 + payload_len)


def retrieved(ts: TSet, stag: bytes) -> list:
    """The chain under stag as one byte string per tuple, checking the array's shape."""
    bodies = ts.retrieve(stag)
    assert bodies.dtype == np.uint8 and bodies.shape == (len(bodies), ts.payload_width - 1)
    return [bytes(row) for row in bodies]


def row_of(ts: TSet, label: bytes) -> int:
    """The index of the row filed at ``label``."""
    (at,) = np.flatnonzero((ts.rows[:, : ts.label_width] == list(label)).all(axis=1))
    return int(at)


def _payloads(rng: SeededRng, n: int, width: int = TUPLE_LEN) -> list:
    return [rng.bytes(width) for _ in range(n)]


@pytest.mark.parametrize("lam", [128, 256])
def test_tset_bulk_derivation_matches_reference(lam):
    # chain lengths around the first batch of 8, around 64, and one that runs
    # nine batches
    rng = SeededRng(lam)
    k_t = rng.bytes(lam // 8)
    chains = {f"kw{n}": _payloads(rng, n) for n in (1, 7, 8, 9, 63, 64, 65, 2500)}
    ts = tset_setup(chains, k_t, TUPLE_LEN)
    for kw, payloads in chains.items():
        stag = TSet.tag(k_t, kw)
        assert TSet.chain(stag, payloads).tobytes() == b"".join(
            b"".join(ref_entry(stag, c, c == len(payloads), p))
            for c, p in enumerate(payloads, 1))
        assert retrieved(ts, stag) == payloads


def test_tset_chain_rejects_mixed_widths():
    with pytest.raises(ValueError):
        TSet.chain(b"\x00" * 16, [])  # an empty keyword files no chain
    with pytest.raises(ValueError):
        TSet.chain(b"\x00" * 16, [b"abcd", b"abc", b"abcde"])


def test_retrieve_makes_two_cipher_contexts(monkeypatch):
    """A retrieve keys the thread's two AES contexts once each, however many
    batches its chain takes."""
    rng = SeededRng(37)
    k_t = rng.bytes(16)
    ts = tset_setup({"long": _payloads(rng, 2500), "one": _payloads(rng, 1)}, k_t, TUPLE_LEN)
    keyed = []
    real = index_mod.aes_key
    monkeypatch.setattr(index_mod, "aes_key", lambda mode, key: keyed.append(mode) or real(mode, key))
    for kw, n in (("long", 2500), ("one", 1)):
        keyed.clear()
        assert len(ts.retrieve(TSet.tag(k_t, kw))) == n
        assert sorted(keyed) == [AES_ECB, AES_CTR]  # one label and one pad key, whatever the length


def _mini_tset(k_t, chains):
    return tset_setup(chains, k_t, payload_len=8)


def test_tset_roundtrip():
    k_t = SeededRng(33).bytes(16)
    chains = {
        "alpha": [b"payload0", b"payload1", b"payload2"],
        "beta": [b"other-00"],
    }
    ts = _mini_tset(k_t, chains)
    assert len(ts) == 4
    assert retrieved(ts, TSet.tag(k_t, "alpha")) == chains["alpha"]
    assert retrieved(ts, TSet.tag(k_t, "beta")) == chains["beta"]
    assert retrieved(ts, TSet.tag(k_t, "gamma")) == []  # unknown keyword
    assert retrieved(ts, b"\x00" * 16) == []
    for stag in (b"", b"\x00" * 5, b"\x00" * 32):  # no AES key, or not this table's width
        assert retrieved(ts, stag) == []


def test_tset_payload_width_enforced(demo_egdb):
    k_t = SeededRng(34).bytes(16)
    with pytest.raises(IndexBuildError):
        tset_setup({"kw": [b"short"]}, k_t, payload_len=8)
    # the build stores every entry at the widths its header declares
    p = demo_egdb.params
    assert demo_egdb.tset.rows.shape == (p.n_entries, p.label_width + p.payload_width)


def test_tset_detects_truncated_chain():
    k_t = SeededRng(35).bytes(16)
    ts = _mini_tset(k_t, {"kw": [b"payload0", b"payload1"]})
    stag = TSet.tag(k_t, "kw")
    # drop the terminating tuple
    ts = TSet(np.delete(ts.rows, row_of(ts, ref_label(stag, 2)), axis=0), 16, 9)
    with pytest.raises(CorruptIndexError, match="truncated at counter 2$"):
        ts.retrieve(stag)
    # the fourth batch holds counters 57..120: its first, and one inside it
    full = _mini_tset(k_t, {"kw": _payloads(SeededRng(38), 100, 8)})
    for c in (57, 65):
        ts = TSet(np.delete(full.rows, row_of(full, ref_label(stag, c)), axis=0), 16, 9)
        with pytest.raises(CorruptIndexError, match=f"truncated at counter {c}$"):
            ts.retrieve(stag)


def test_tset_detects_bad_flag():
    k_t = SeededRng(36).bytes(16)
    stag = TSet.tag(k_t, "kw")
    # a one-tuple chain, and counters 70 and 100 inside a later batch
    for n, c in ((1, 1), (100, 70), (100, 100)):
        ts = _mini_tset(k_t, {"kw": _payloads(SeededRng(39), n, 8)})
        rows = ts.rows.copy()
        # flip a high bit of the masked flag byte: unmasks to an invalid flag
        rows[row_of(ts, ref_label(stag, c)), 16] ^= 0x80
        ts = TSet(rows, 16, 9)
        with pytest.raises(CorruptIndexError, match=f"flag byte 0x8[01] at counter {c}$"):
            ts.retrieve(stag)


@pytest.mark.parametrize("lam", [128, 256])
def test_tset_retrieves_labels_with_nul_bytes(lam):
    # the first keywords with a label that ends in 0x00 and one whose 8th
    # byte, the last of its search key, is 0x00; chains of 3 tuples
    k_t = SeededRng(lam + 1).bytes(lam // 8)
    wanted = {-1: None, 7: None}
    for i in range(5000):
        labels = [ref_label(TSet.tag(k_t, f"kw{i}"), c) for c in (1, 2, 3)]
        for at in wanted:
            if wanted[at] is None and any(label[at] == 0 for label in labels):
                wanted[at] = f"kw{i}"
        if None not in wanted.values():
            break
    assert None not in wanted.values()
    rng = SeededRng(lam + 2)
    chains = {kw: _payloads(rng, 3) for kw in [*wanted.values(), "other", "more"]}
    ts = tset_setup(chains, k_t, TUPLE_LEN)
    for kw, payloads in chains.items():
        assert retrieved(ts, TSet.tag(k_t, kw)) == payloads


def test_tset_label_uniqueness_over_random_databases():
    """10^4 random small keyword tables produce no cross-keyword label reuse."""
    rng = random.Random(99)
    seen_failures = 0
    for trial in range(10_000):
        k_t = rng.getrandbits(128).to_bytes(16, "big")
        labels = set()
        for kw_i in range(rng.randint(2, 5)):
            stag = TSet.tag(k_t, f"kw{kw_i}-{trial}")
            for c in range(1, rng.randint(1, 4) + 1):
                label = ref_label(stag, c)
                if label in labels:
                    seen_failures += 1
                labels.add(label)
    assert seen_failures == 0


# --- full database build --------------------------------------------------------------

def test_build_deterministic_with_seeded_rng(demo_keys, demo_iinx):
    a = build_egdb(demo_keys, demo_iinx, SeededRng(40))
    b = build_egdb(demo_keys, demo_iinx, SeededRng(40))
    assert egdb_to_bytes(a) == egdb_to_bytes(b)
    c = build_egdb(demo_keys, demo_iinx, SeededRng(41))
    assert egdb_to_bytes(a) != egdb_to_bytes(c)  # fresh nonces move ciphertexts


# SHA-256 of egdb_to_bytes for two seeded builds of format version 3: the
# demo cohort (below the pool threshold) and a synthetic cohort of 8,800
# entries (above it). Version 3 changed every label and pad, not the
# payloads or the filter, so both were recorded again for it.
GOLDEN_DEMO_SHA256 = "7d89c005cfa11f72d8a0bb5cd40c17cbcceee31350eed2f8014a94e0f7eaf9ad"
GOLDEN_SYNTH_SHA256 = "8e5fb9f2ac94f9993141eecbae621242cc0784825a0f1485fac7cabb38cef2bc"


@pytest.fixture(scope="module")
def synth_iinx():
    spec = SyntheticSpec.uniform(400, 20, [("Cohort", 60), ("Background", 340)], seed=5)
    iinx = build_inverted_index(parse_gdb(gen_synthetic(spec)))
    assert sum(map(len, iinx.values())) == 8800 > index_mod._POOL_MIN_ENTRIES
    return iinx


@pytest.fixture
def pool_spy(monkeypatch):
    """Force a two-process pool whatever the machine; counts the pools made."""
    made = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return made


def _sha(egdb) -> str:
    return hashlib.sha256(egdb_to_bytes(egdb)).hexdigest()


def test_build_matches_golden_bytes(demo_egdb, synth_iinx, pool_spy):
    assert _sha(demo_egdb) == GOLDEN_DEMO_SHA256
    egdb = build_egdb(keygen(rng=SeededRng(51)), synth_iinx, SeededRng(52))
    assert pool_spy == [(2,)]
    assert _sha(egdb) == GOLDEN_SYNTH_SHA256


def test_pooled_and_in_process_builds_are_identical(synth_iinx, pool_spy, monkeypatch):
    keys = keygen(rng=SeededRng(53))
    pooled = egdb_to_bytes(build_egdb(keys, synth_iinx, SeededRng(54)))
    assert len(pool_spy) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert egdb_to_bytes(build_egdb(keys, synth_iinx, SeededRng(54))) == pooled
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(index_mod, "_POOL_MIN_ENTRIES", 10**9)
    assert egdb_to_bytes(build_egdb(keys, synth_iinx, SeededRng(54))) == pooled
    assert len(pool_spy) == 1


def _blind_chains(monkeypatch, width: int) -> None:
    """Make the first ``width`` bytes of every chain's labels ignore the
    keyword, so that counter c of every chain lands on one label (16) or on
    one 8-byte search key (8)."""
    real = TSet.chain

    def keyword_blind(stag, payloads):
        rows = real(stag, payloads)
        rows[:, :width] = 0
        rows[:, :8] = np.arange(1, len(rows) + 1, dtype="<u8").view(np.uint8).reshape(-1, 8)
        return rows

    monkeypatch.setattr(TSet, "chain", staticmethod(keyword_blind))


def test_label_collision_in_a_worker_raises(synth_iinx, pool_spy, monkeypatch):
    _blind_chains(monkeypatch, 16)
    with pytest.raises(IndexBuildError, match="collision"):
        build_egdb(keygen(rng=SeededRng(55)), synth_iinx, SeededRng(56))
    assert len(pool_spy) == 1


def test_search_key_collision_in_a_build_raises(demo_keys, demo_iinx, monkeypatch):
    # whole labels differ, but the 8-byte prefixes the table is searched by do not
    _blind_chains(monkeypatch, 8)
    with pytest.raises(IndexBuildError, match="collision"):
        build_egdb(demo_keys, demo_iinx, SeededRng(57))


def test_pooled_system_rng_build_answers_goldens(demo_keys, demo_iinx, demo_freq,
                                                 pool_spy, monkeypatch):
    monkeypatch.setattr(index_mod, "_POOL_MIN_ENTRIES", 1)
    egdb = build_egdb(demo_keys, demo_iinx)
    assert len(pool_spy) == 1
    for where, expected in GOLDEN_COUNTS:
        assert run_query(demo_keys, egdb, parse_query(where, "count"), demo_freq) == expected
    for qtype, where, k_prime, expected in GOLDEN_IDS:
        query = parse_query(where, qtype, k_prime)
        assert run_query(demo_keys, egdb, query, demo_freq) == expected


def test_egdb_parameters(demo_egdb, demo_iinx):
    p = demo_egdb.params
    assert p.n_entries == sum(map(len, demo_iinx.values())) == 42
    assert p.label_width == 16
    assert p.payload_width == 69  # flag byte + 32-byte scalar + 36-byte ciphertext
    assert p.p_fp == 1e-6
    assert len(demo_egdb.tset) == 42


def test_cross_tag_identity_exhaustive(demo_keys, demo_iinx, demo_egdb):
    """For every (anchor counter, probe keyword) pair, filter membership of
    the production x(token^y) must equal plaintext co-occurrence. This is the
    correctness core of the scheme."""
    keys = demo_keys
    bloom = demo_egdb.xfilter
    keywords = sorted(demo_iinx)
    x_exp = {g: prf_fp(keys.k_x, keyword_bytes(g)) for g in keywords}
    checks = mismatches = 0
    for g1 in keywords:
        for c, rid in enumerate(demo_iinx[g1], 1):
            z = prf_fp(keys.k_z, keyword_counter(g1, c))
            xid = prf_fp(keys.k_i, id_bytes(rid))
            key = exponent_key(xid * scalar_inverse(z) % ORDER)
            for g2 in keywords:
                token = base_pow(z * x_exp[g2] % ORDER)
                present = pow_x(key, token.encode()) in bloom
                expected = rid in demo_iinx[g2]
                checks += 1
                if present != expected:
                    mismatches += 1
    assert checks == 42 * 20
    assert mismatches == 0


def test_cross_tag_identity_via_independent_route(demo_keys, demo_iinx, demo_egdb):
    """Same identity, but the exponentiation goes through the reference ladder."""
    keys = demo_keys
    g1, g2 = "Cancer B", "2CC"
    x2 = prf_fp(keys.k_x, keyword_bytes(g2))
    for c, rid in enumerate(demo_iinx[g1], 1):
        z = prf_fp(keys.k_z, keyword_counter(g1, c))
        xid = prf_fp(keys.k_i, id_bytes(rid))
        y = xid * scalar_inverse(z) % ORDER
        token = base_pow(z * x2 % ORDER)
        recovered = ref.x_bytes(ref.mul(ref.point_of(token), y))
        assert recovered == pow_x(exponent_key(y), token.encode())
        assert (recovered in demo_egdb.xfilter) == (rid in demo_iinx[g2])


def parse_tuple(payload: bytes) -> "tuple[bytes, bytes]":
    """Split one tuple body into (y scalar, encrypted record id), y checked
    as an int: the scalar reference for ``check_tuples``."""
    if len(payload) != TUPLE_LEN:
        raise CorruptIndexError(f"tuple body has {len(payload)} bytes, want {TUPLE_LEN}")
    if not 1 <= int.from_bytes(payload[:Y_LEN], "big") < ORDER:
        raise CorruptIndexError("tuple blinding scalar out of range")
    return payload[:Y_LEN], payload[Y_LEN:]


def _chain(bodies) -> np.ndarray:
    """Tuple bodies as the (n, width) array a retrieve returns: a column-1
    slice of a wider array, so that it is not contiguous either."""
    bodies = list(bodies)
    width = len(bodies[0]) if bodies else TUPLE_LEN
    wide = np.zeros((len(bodies), 1 + width), dtype=np.uint8)
    wide[:, 1:] = np.frombuffer(b"".join(bodies), dtype=np.uint8).reshape(-1, width)
    return wide[:, 1:]


def test_parse_tuple_validation(demo_keys, demo_egdb, demo_iinx):
    stag = TSet.tag(demo_keys.k_t, "Cancer B")
    bodies = demo_egdb.tset.retrieve(stag)
    assert check_tuples(bodies) is bodies and bodies.shape == (3, TUPLE_LEN)
    for p in bodies:
        y, enc = parse_tuple(bytes(p))
        assert len(y) == Y_LEN and 1 <= int.from_bytes(y, "big") < ORDER and len(enc) == 36
    enc = b"\x05" * 36
    for y in (1, 2**248, ORDER - 1):  # the range's ends, and a short-looking scalar
        body = y.to_bytes(Y_LEN, "big") + enc
        assert parse_tuple(body) == (y.to_bytes(Y_LEN, "big"), enc)
        assert bytes(check_tuples(_chain([body]))[0]) == body
    for y in (0, ORDER, ORDER + 1, 2**256 - 1):
        body = y.to_bytes(Y_LEN, "big") + enc
        with pytest.raises(CorruptIndexError, match="out of range"):
            parse_tuple(body)
        with pytest.raises(CorruptIndexError, match="out of range"):
            check_tuples(_chain([bytes(bodies[0]), body]))
    with pytest.raises(CorruptIndexError):
        parse_tuple(b"\x01" * 10)
    with pytest.raises(CorruptIndexError, match="tuple body has 10 bytes"):
        check_tuples(_chain([b"\x01" * 10]))
    assert check_tuples(_chain([])).shape == (0, TUPLE_LEN)  # an empty chain


def _trailing_zeros(value: int, nul_bytes: int) -> int:
    """value's top bytes, its lowest ``nul_bytes`` bytes set to 0x00."""
    return value >> (8 * nul_bytes) << (8 * nul_bytes)


_Y_EDGES = [0, 1, ORDER - 1, ORDER, ORDER + 1, 2**256 - 1, 2**248]
_Y_VALUES = st.one_of(
    st.binary(min_size=Y_LEN, max_size=Y_LEN),
    st.sampled_from(_Y_EDGES).map(lambda y: y.to_bytes(Y_LEN, "big")),
    # trailing NUL bytes, which numpy's string compare ignores: below and
    # above the range's ends, and anywhere else
    st.builds(lambda base, k, step: ((_trailing_zeros(base, k) + (step << (8 * k))) % 2**256)
              .to_bytes(Y_LEN, "big"),
              st.sampled_from([0, 1, ORDER, 2**256 - 1]), st.integers(1, Y_LEN - 1),
              st.integers(-1, 1)),
    st.builds(lambda y, k: _trailing_zeros(y, k).to_bytes(Y_LEN, "big"),
              st.integers(0, 2**256 - 1), st.integers(1, Y_LEN)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_Y_VALUES, min_size=1, max_size=6))
def test_check_tuples_agrees_with_scalar_reference(ys):
    """The whole-chain y check accepts a chain exactly when the scalar
    reference accepts each of its tuples."""
    bodies = [y + bytes(range(36)) for y in ys]
    ok = []
    for body in bodies:
        try:
            parse_tuple(body)
            ok.append(True)
        except CorruptIndexError:
            ok.append(False)
        try:
            check_tuples(_chain([body]))
            assert ok[-1], int.from_bytes(body[:Y_LEN], "big")
        except CorruptIndexError as exc:
            assert not ok[-1] and "out of range" in str(exc)
    try:
        check_tuples(_chain(bodies))
        assert all(ok)
    except CorruptIndexError:
        assert not all(ok)


def test_count_refuses_bad_y_in_a_later_batch(monkeypatch):
    """A count without cross-terms evaluates no tuple, yet still refuses a
    chain of 2,500 whose y at counter 2,100, in its last batch, is ORDER."""
    rng = SeededRng(40)
    k_t = rng.bytes(16)
    good = [rng.bytes(1) + b"\x00" + rng.bytes(TUPLE_LEN - 2) for _ in range(2500)]
    bad = list(good)
    bad[2099] = ORDER.to_bytes(Y_LEN, "big") + bad[2099][Y_LEN:]
    evaluated = []
    monkeypatch.setattr(engine_mod, "evaluate_tuple", lambda *a: evaluated.append(a))
    for payloads in (good, bad):
        ts = tset_setup({"kw": payloads}, k_t, TUPLE_LEN)
        egdb = index_mod.Egdb(ts, BloomFilter(64, 1), None)
        init = TSet.tag(k_t, "kw") + INIT_FIELDS.pack(GAMMA_COUNT, 0, 0, 0)
        open_count = lambda: SearchCore(egdb, init)
        if payloads is good:
            assert open_count().finish() == COUNT.pack(2500)
        else:
            with pytest.raises(CorruptIndexError, match="out of range"):
                open_count()
    assert evaluated == []


# --- serialization ---------------------------------------------------------------------

def test_egdb_serialization_roundtrip(demo_egdb):
    blob = egdb_to_bytes(demo_egdb)
    assert blob.startswith(b"PGDBEDB1")
    loaded = load_egdb(blob)
    assert loaded.params == demo_egdb.params
    assert np.array_equal(loaded.tset.rows, demo_egdb.tset.rows)
    assert loaded.xfilter.to_bytes() == demo_egdb.xfilter.to_bytes()


def test_egdb_file_roundtrip(tmp_path, demo_egdb):
    path = tmp_path / "demo.egdb"
    with open(path, "wb") as fh:
        written = index_mod.serialize_egdb(demo_egdb, fh)
    assert path.stat().st_size == written
    loaded = load_egdb(path)
    assert np.array_equal(loaded.tset.rows, demo_egdb.tset.rows)


@pytest.fixture
def loaders(tmp_path):
    """load_egdb on a file's bytes, and on a path to a file holding them (mapped)."""
    names = itertools.count()

    def from_file(blob: bytes):
        path = tmp_path / f"{next(names)}.egdb"  # a new file: a loaded one stays mapped
        path.write_bytes(blob)
        return load_egdb(path)

    return [load_egdb, from_file]


def test_egdb_corruption_detected(demo_egdb, loaders):
    blob = bytearray(egdb_to_bytes(demo_egdb))
    blob[len(blob) // 2] ^= 0x40
    for load in loaders:
        with pytest.raises(CorruptIndexError, match="checksum"):
            load(bytes(blob))
        with pytest.raises(CorruptIndexError, match="bad magic"):
            load(b"NOTMAGIC" + bytes(blob[8:]))
        with pytest.raises(CorruptIndexError, match="truncated"):
            load(bytes(blob[:40]))
        with pytest.raises(CorruptIndexError, match="truncated"):
            load(b"")  # mmap refuses a file of length 0


def test_egdb_size_accounting(demo_egdb):
    blob = egdb_to_bytes(demo_egdb)
    p = demo_egdb.params
    pair_bytes = p.n_entries * (p.label_width + p.payload_width)
    bloom_bytes = 9 + (demo_egdb.xfilter.m + 7) // 8
    header = 8 + 3 + 19
    assert len(blob) == header + bloom_bytes + pair_bytes + 4


def _egdb_blob(version=EGDB_VERSION, m=64, k=3, n_entries=0, label_w=16,
               payload_w=1 + TUPLE_LEN, body=b"") -> bytes:
    """A hand-built database file with a correct CRC over whatever it claims."""
    blob = (EGDB_MAGIC + struct.pack("<HB", version, GROUP_P256)
            + struct.pack("<QB", m, k) + bytes((m + 7) // 8)
            + struct.pack("<QBHd", n_entries, label_w, payload_w, 1e-6) + body)
    return blob + struct.pack("<I", zlib.crc32(blob))


def test_hand_built_header_is_well_formed():
    egdb = load_egdb(_egdb_blob())
    assert egdb.params.n_entries == 0 and len(egdb.tset) == 0
    assert retrieved(egdb.tset, b"\x00" * 16) == []  # an empty table has no chains


def test_egdb_version_1_rejected(demo_egdb, loaders):
    assert EGDB_VERSION == 3
    # a real database relabelled as version 1, CRC recomputed
    blob = bytearray(egdb_to_bytes(demo_egdb)[:-4])
    struct.pack_into("<H", blob, len(EGDB_MAGIC), 1)
    for load in loaders:
        with pytest.raises(CorruptIndexError, match="version 1"):
            load(_egdb_blob(version=1))
        with pytest.raises(CorruptIndexError, match="version 1"):
            load(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))


def test_egdb_version_2_rejected(demo_egdb, loaders):
    # version 2 held the same layout with HMAC/SHAKE labels and pads
    blob = bytearray(egdb_to_bytes(demo_egdb)[:-4])
    struct.pack_into("<H", blob, len(EGDB_MAGIC), 2)
    for load in loaders:
        with pytest.raises(CorruptIndexError, match="version 2"):
            load(_egdb_blob(version=2))
        with pytest.raises(CorruptIndexError, match="version 2"):
            load(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))


@pytest.mark.parametrize("fields,match", [
    ({"label_w": 0, "payload_w": 0, "n_entries": 4_000_000}, "label width"),
    ({"label_w": 0}, "label width"),
    ({"label_w": 20}, "label width"),
    ({"payload_w": 0}, "payload width"),
    ({"payload_w": TUPLE_LEN}, "payload width"),
    ({"label_w": 32, "payload_w": 2 + TUPLE_LEN}, "payload width"),
    ({"m": 7}, "geometry"),
    ({"k": 0}, "geometry"),
])
def test_egdb_header_sanity(fields, match, loaders):
    for load in loaders:
        with pytest.raises(CorruptIndexError, match=match):
            load(_egdb_blob(**fields))


def test_egdb_accepts_256_bit_labels():
    label, payload = b"\x01" * 32, b"\x02" * (1 + TUPLE_LEN)
    egdb = load_egdb(_egdb_blob(label_w=32, n_entries=1, body=label + payload))
    assert egdb.tset.rows.tobytes() == label + payload


_BODY = bytes(1 + TUPLE_LEN)


def test_egdb_accepts_ascending_search_keys():
    # distinct 8-byte prefixes in ascending order, whatever follows them
    labels = [b"\x01" * 8 + b"\xff" * 8, b"\x01" * 7 + b"\x02" + b"\x00" * 8]
    egdb = load_egdb(_egdb_blob(n_entries=2, body=b"".join(lb + _BODY for lb in labels)))
    assert len(egdb.tset) == 2


@pytest.mark.parametrize("labels", [
    [b"\x02" * 16, b"\x01" * 16],
    [b"\x01" * 16, b"\x01" * 16],
    [b"\x01" * 8 + b"\x00" * 8, b"\x01" * 8 + b"\xff" * 8],
], ids=["out-of-order", "repeated", "shared-prefix"])
def test_egdb_refuses_labels_whose_search_keys_do_not_ascend(labels, loaders):
    blob = _egdb_blob(n_entries=2, body=b"".join(label + _BODY for label in labels))
    for load in loaders:
        with pytest.raises(CorruptIndexError, match="do not strictly ascend"):
            load(blob)


def test_reserialized_file_is_byte_identical(demo_egdb):
    blob = egdb_to_bytes(demo_egdb)
    buf = io.BytesIO()
    assert serialize_egdb(load_egdb(blob), buf) == len(blob)
    assert buf.getvalue() == blob


def test_loaded_table_is_read_only(demo_egdb, loaders):
    for load in loaders:
        egdb = load(egdb_to_bytes(demo_egdb))
        with pytest.raises(ValueError, match="read-only"):
            egdb.tset.rows[0, 0] ^= 1
        with pytest.raises(ValueError, match="read-only"):
            egdb.xfilter.bits[0] ^= 1
        assert not egdb.tset.rows.flags.writeable and not egdb.xfilter.bits.flags.writeable


def test_loading_a_file_maps_it_instead_of_copying_it(tmp_path, demo_keys):
    """load_egdb on a path allocates a small part of the file's size.

    The table and the Bloom bits are views of the read-only mapping; the
    search keys (8 bytes a row) are the load's largest allocation.
    """
    rng = random.Random(5)
    iinx = {f"kw{i}": sorted(rng.sample(range(1, 5001), 100)) for i in range(200)}
    path = tmp_path / "big.egdb"
    with open(path, "wb") as fh:
        serialize_egdb(build_egdb(demo_keys, iinx, SeededRng(6)), fh)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        egdb = load_egdb(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert egdb.params.n_entries == 20_000
    assert peak < 0.25 * size, f"load allocated {peak} bytes for a {size}-byte file"
    assert not egdb.tset.rows.flags.writeable and not egdb.xfilter.bits.flags.writeable
    if os.path.exists("/proc/self/smaps"):  # Linux: the load's checks left no page resident
        assert _resident_kb(path) < size / 1024 / 10
    buf = io.BytesIO()
    serialize_egdb(egdb, buf)
    assert buf.getvalue() == path.read_bytes()


def _resident_kb(path) -> int:
    """Resident kB of this process's mappings of path, from /proc/self/smaps."""
    total, ours = 0, False
    with open("/proc/self/smaps", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if "-" in fields[0]:  # a mapping's header line: address range ... [path]
                ours = line.rstrip("\n").endswith(f" {path}")
            elif ours and fields[0] == "Rss:":
                total += int(fields[1])
    return total


# --- load_egdb fuzzing ----------------------------------------------------------------

def _with_crc(blob: bytes) -> bytes:
    return blob + struct.pack("<I", zlib.crc32(blob))


@st.composite
def _damaged_demo_files(draw, blob: bytes, table_off: int, row_w: int):
    """The demo file mutated one way, its CRC recomputed over the result."""
    body = bytearray(blob[:-4])
    kind = draw(st.sampled_from(["flip", "truncate", "swap"]))
    if kind == "swap":
        n = (len(body) - table_off) // row_w
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        a, b = (slice(table_off + r * row_w, table_off + (r + 1) * row_w) for r in (i, j))
        body[a], body[b] = body[b], body[a]
        return _with_crc(bytes(body))
    # the header (the Bloom filter's bits included) or the table
    lo, hi = draw(st.sampled_from([(0, table_off), (table_off, len(body))]))
    at = draw(st.integers(lo, hi - 1))
    if kind == "truncate":
        del body[at:]
    else:
        body[at] ^= draw(st.integers(1, 255))
    return _with_crc(bytes(body))


def test_load_egdb_fuzz(demo_egdb, demo_keys, demo_iinx, loaders):
    """Damaged input raises CorruptIndexError, at load or on retrieve and
    check, and nothing else, whether it is loaded as bytes or from a file."""
    demo_blob = egdb_to_bytes(demo_egdb)
    p = demo_egdb.params
    row_w = p.label_width + p.payload_width
    table_off = len(demo_blob) - 4 - p.n_entries * row_w
    stags = [TSet.tag(demo_keys.k_t, kw) for kw in demo_iinx]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda b: _with_crc(EGDB_MAGIC + b)),
        _damaged_demo_files(demo_blob, table_off, row_w),
    ))
    def check(blob):
        for load in loaders:
            try:
                egdb = load(blob)
            except CorruptIndexError:
                continue
            for stag in stags:
                try:
                    check_tuples(egdb.tset.retrieve(stag))
                except CorruptIndexError:
                    pass

    check()
