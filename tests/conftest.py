"""Shared fixtures: the demo cohort pipeline and a random-cohort generator,
plus the in-process helpers only tests use."""

import io
import random

import pytest

from privgendb.crypto import (
    ORDER,
    SeededRng,
    base_pow,
    keygen,
    keyword_bytes,
    keyword_counter,
    prf_fp,
)
from privgendb.encoding import parse_gdb
from privgendb.engine import SearchCore
from privgendb.fixtures import load_demo_cohort
from privgendb.index import (
    Egdb,
    TSet,
    build_egdb,
    build_inverted_index,
    keyword_frequencies,
    serialize_egdb,
)
from privgendb.wire import INIT_FIELDS

import ref_p256


@pytest.fixture(scope="session")
def demo_gdb():
    return load_demo_cohort()


@pytest.fixture(scope="session")
def demo_keys():
    return keygen(rng=SeededRng(1101))


@pytest.fixture(scope="session")
def demo_iinx(demo_gdb):
    return build_inverted_index(demo_gdb)


@pytest.fixture(scope="session")
def demo_egdb(demo_keys, demo_iinx):
    return build_egdb(demo_keys, demo_iinx, SeededRng(1102))


@pytest.fixture(scope="session")
def demo_freq(demo_gdb):
    return keyword_frequencies(demo_gdb)


def _off_curve_encoding() -> bytes:
    """A well-formed compressed encoding whose x has no point on P-256."""
    for x in range(1, 100):
        if ref_p256.sqrt_mod_p((x * x * x + ref_p256.A * x + ref_p256.B) % ref_p256.P) is None:
            return b"\x02" + x.to_bytes(32, "big")
    raise AssertionError("no off-curve x below 100")


OFF_CURVE = _off_curve_encoding()


def scalar_inverse(z: int) -> int:
    z %= ORDER
    if z == 0:
        raise ValueError("zero has no inverse")
    return pow(z, -1, ORDER)


def egdb_to_bytes(egdb: Egdb) -> bytes:
    buf = io.BytesIO()
    serialize_egdb(egdb, buf)
    return buf.getvalue()


def init_body(keys, sterm="Cancer B", gamma=1, n_pos=1, n_neg=0, k_prime=None) -> bytes:
    """A ``MSG_SEARCH_INIT`` body packed from its fields, as ``search_init``
    packs one; k_prime None is sent as 0, as for a non-match."""
    return TSet.tag(keys.k_t, sterm) + INIT_FIELDS.pack(gamma, n_pos, n_neg, k_prime or 0)


def search(egdb: Egdb, init: bytes, body: bytes = b"") -> bytes:
    """Run one search over the encrypted database (the untrusted-server role).

    The core opens from ``init``, as the data server's does, and is fed
    ``body``, the packed rows ``generate_token`` returns, unless it is
    decided when it opens, as ``run_query`` does. Returns the result body.
    """
    core = SearchCore(egdb, init)
    if not core.done:
        core.feed(body)
    return core.finish()


def _pack(rows) -> bytes:
    """A token frame body: the rows in counter order, each row's tokens joined."""
    return b"".join(b"".join(row) for row in rows)


def probe_tokens(keys, anchor, counters, keyword):
    """Encoded tokens for (anchor counter c, keyword) for c = 1..counters."""
    x = prf_fp(keys.k_x, keyword_bytes(keyword))
    return [base_pow(prf_fp(keys.k_z, keyword_counter(anchor, c)) * x % ORDER).encode()
            for c in range(1, counters + 1)]


# golden answers over the demo cohort, with its keyword-frequency hint
GOLDEN_COUNTS = [
    ("phenotype=Cancer B, SNP2=CC, SNP4=AG", 2),
    ("phenotype=Cancer B, SNP2!=CC, SNP4=AG", 1),
    ("phenotype=Cancer B", 3),
    ("SNP2=CC", 5),
    ("phenotype=Cancer Z", 0),
    ("SNP1=AG, SNP2=CT", 2),
    ("gender=female, phenotype=Cancer A", 0),
    ("phenotype=Cancer Z, SNP2=CC", 0),  # an empty chain with a cross-term
]

GOLDEN_IDS = [
    ("boolean", "phenotype=Cancer B, SNP2=CC, SNP4=AG", None, [2, 5]),
    ("boolean", "phenotype=Cancer B, SNP2!=CC", None, [7]),
    ("boolean", "phenotype=Cancer A, SNP1!=AG", None, [6]),
    ("boolean", "id=4, SNP2=CC", None, [4]),
    ("boolean", "id=4, SNP2=CT", None, []),
    ("match", "phenotype=Cancer B, SNP2=CC, SNP4=AG", 1, [2, 5, 7]),
    ("match", "phenotype=Cancer B, SNP2=CC, SNP4=AG", 2, [2, 5]),
    ("match", "id=7, SNP2=CC, SNP3=CT, SNP4=AG", 2, [7]),
    ("match", "id=7, SNP2=CC, SNP3=CT, SNP4=AG", 3, []),
    ("boolean", "phenotype=Cancer B", None, [2, 5, 7]),  # no cross-terms
    ("boolean", "phenotype=Cancer Z, SNP2=CC", None, []),  # an empty chain
]


GENOTYPE_CHOICES = ("AA", "AG", "GG", "CC", "CT", "TT")
PHENOTYPE_POOL = ("Cancer A", "Cancer B", "Cancer C", "Diabetes", "Healthy")
GENDER_POOL = ("Male", "Female")
ETHNICITY_POOL = ("European", "East Asian", "African", "South Asian")


def random_cohort_csv(rng: random.Random, r: int, snps: int,
                      with_metadata: bool = False) -> str:
    """Random cohort CSV with 2-3 genotypes per column and 2-3 phenotypes."""
    lines = ["ID," + ",".join(f"SNP_{i + 1}" for i in range(snps)) + ",Phenotype"
             + (",Gender,Ethnicity" if with_metadata else "")]
    col_alphabets = [rng.sample(GENOTYPE_CHOICES, rng.randint(2, 3)) for _ in range(snps)]
    phenos = rng.sample(PHENOTYPE_POOL, rng.randint(2, 3))
    for rid in range(1, r + 1):
        row = [str(rid)]
        row += [rng.choice(col_alphabets[s]) for s in range(snps)]
        row.append(rng.choice(phenos))
        if with_metadata:
            row.append(rng.choice(GENDER_POOL))
            row.append(rng.choice(ETHNICITY_POOL))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def random_cohort(rng: random.Random, r: int, snps: int, with_metadata: bool = False):
    return parse_gdb(random_cohort_csv(rng, r, snps, with_metadata))
