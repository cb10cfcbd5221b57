"""Acceptance suite: one test per shipping criterion, each printing a PASS line
with its measured numbers (visible under pytest -s / in verbose reports).

Heavy criteria (5 and 6) build six-figure-entry encrypted databases and take
a few minutes combined; the whole file is designed to stay well inside its
stated time budgets on a single CPU.
"""

import base64
import random
import statistics
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from privgendb.crypto import (
    ORDER,
    SeededRng,
    base_pow,
    exponent_key,
    id_bytes,
    keygen,
    keyword_bytes,
    keyword_counter,
    prf_fp,
    pow_x,
)
from privgendb.encoding import (
    Predicate,
    Query,
    encode_query,
    parse_gdb,
    parse_query,
)
from privgendb import engine
from privgendb.engine import COLUMN_MIN, decrypt_ids, generate_token, run_query, search_init
from privgendb.fixtures import load_demo_cohort
from privgendb.index import (
    BloomFilter,
    TSet,
    build_egdb,
    build_inverted_index,
)
from privgendb.services import DataServer, execute_search
from privgendb.wire import (
    COUNT,
    INIT_FIELDS,
    MSG_RESULT,
    MSG_SEARCH_INIT,
    MSG_STERM_COUNT,
    MSG_UNDECIDED,
    MSG_XCOLUMN,
    MSG_XTOKENS,
)

from conftest import (
    ETHNICITY_POOL,
    GENDER_POOL,
    GENOTYPE_CHOICES,
    PHENOTYPE_POOL,
    egdb_to_bytes,
    random_cohort,
    scalar_inverse,
    search,
)
from oracle import SyntheticSpec, evaluate_plain, gen_synthetic

import ref_p256 as ref


def _report(n: int, detail: str) -> None:
    print(f"[criterion {n}] PASS — {detail}")


# --- criterion 1: golden answers on the bundled fixture --------------------------------

def test_criterion_1_golden_fixture_suite():
    t0 = time.perf_counter()
    gdb = load_demo_cohort()
    keys = keygen(rng=SeededRng(11))
    egdb = build_egdb(keys, build_inverted_index(gdb), SeededRng(12))

    count_conj = run_query(keys, egdb, parse_query(
        "phenotype=Cancer B, SNP2=CC, SNP4=AG", "count"))
    assert count_conj == 2

    count_neg = run_query(keys, egdb, parse_query(
        "phenotype=Cancer B, SNP2!=CC, SNP4=AG", "count"))
    assert count_neg == 1

    any_of = run_query(keys, egdb, parse_query(
        "phenotype=Cancer B, SNP2=CC, SNP4=AG", "match", 1))
    assert any_of == [2, 5, 7]

    patient = run_query(keys, egdb, parse_query(
        "id=7, SNP2=CC, SNP3=CT, SNP4=AG", "match", 2))
    assert patient == [7]  # "is patient 7 a 2-of-3 match": yes

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"4 golden answers exact in {elapsed * 1e3:.0f} ms")


# --- criterion 2: randomized equivalence with the plaintext oracle ----------------------

def _random_predicates(rng, gdb, n_snps, with_meta):
    rec = rng.choice(gdb.records)
    pool = [("snp", s) for s in range(1, n_snps + 1)] + [("phenotype", 0)]
    if with_meta:
        pool += [("gender", 0), ("ethnicity", 0)]
    n_preds = rng.randint(2, min(4, len(pool)))
    preds = []
    for kind, s in rng.sample(pool, n_preds):
        from_data = rng.random() < 0.7
        if kind == "snp":
            value = rec.genotypes[s - 1] if from_data else rng.choice(GENOTYPE_CHOICES)
            preds.append(Predicate("snp", value, snp=s))
        elif kind == "phenotype":
            value = rec.phenotype if from_data else rng.choice(PHENOTYPE_POOL)
            preds.append(Predicate("phenotype", value))
        else:
            source = GENDER_POOL if kind == "gender" else ETHNICITY_POOL
            stored = dict(rec.metadata)
            value = stored[kind.capitalize()] if from_data else rng.choice(source)
            preds.append(Predicate(kind, value))
    return preds


def _random_pair(rng):
    n_records = rng.randint(3, 50)
    n_snps = rng.randint(1, 10)
    with_meta = rng.random() < 0.5
    gdb = random_cohort(rng, n_records, n_snps, with_metadata=with_meta)
    qtype = rng.choice(("count", "boolean", "match"))
    preds = _random_predicates(rng, gdb, n_snps, with_meta)
    if qtype == "match":
        k_prime = rng.randint(1, len(preds) - 1)
    else:
        k_prime = None
        for i in rng.sample(range(len(preds)), rng.randint(0, 2)):
            if sum(not p.negated for p in preds) > 1:  # keep one positive anchor
                preds[i] = replace(preds[i], negated=True)
    return gdb, Query(tuple(preds), qtype, k_prime)


def test_criterion_2_oracle_equivalence_200_random_cases():
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    agreements = 0
    for trial in range(200):
        gdb, query = _random_pair(rng)
        keys = keygen(rng=SeededRng(trial * 2 + 1))
        egdb = build_egdb(keys, build_inverted_index(gdb), SeededRng(trial * 2 + 2))
        enc = run_query(keys, egdb, query)
        plain = evaluate_plain(gdb, query)
        assert enc == plain, f"trial {trial}: {query} -> {enc} != {plain}"
        agreements += 1
    elapsed = time.perf_counter() - t0
    assert agreements == 200
    assert elapsed < 120.0
    _report(2, f"200/200 encrypted == oracle in {elapsed:.1f} s")


# --- criterion 3: exhaustive cross-tag identity on the fixture database ------------------

def test_criterion_3_cross_tag_identity_exhaustive():
    gdb = load_demo_cohort()
    keys = keygen(rng=SeededRng(31))
    iinx = build_inverted_index(gdb)
    egdb = build_egdb(keys, iinx, SeededRng(32))
    keywords = sorted(iinx)
    x_exp = {g: prf_fp(keys.k_x, keyword_bytes(g)) for g in keywords}

    checks = 0
    for anchor in keywords:
        for c, rid in enumerate(iinx[anchor], 1):
            z = prf_fp(keys.k_z, keyword_counter(anchor, c))
            xid = prf_fp(keys.k_i, id_bytes(rid))
            y = xid * scalar_inverse(z) % ORDER
            key = exponent_key(y)
            for probe in keywords:
                token = base_pow(z * x_exp[probe] % ORDER)
                recovered = pow_x(key, token.encode())  # the production route
                expected_xtag = base_pow(x_exp[probe] * xid % ORDER)
                assert recovered == expected_xtag.x_bytes()  # algebraic identity, exact
                # the independent reference ladder recovers the whole point
                assert ref.mul(ref.point_of(token), y) == ref.point_of(expected_xtag)
                stored = rid in iinx[probe]
                assert (recovered in egdb.xfilter) == stored
                checks += 1
    assert checks == 42 * len(keywords)  # every (anchor, counter, probe) triple
    _report(3, f"{checks} recovered tokens, 100% equal to stored cross-tags")


# --- criterion 4: bloom filter guarantees at the shipping parameters ----------------------

def test_criterion_4_bloom_false_positive_budget():
    geometry = BloomFilter.with_capacity(1000, 1e-6)
    assert (geometry.m, geometry.k) == (28756, 20)

    spec = SyntheticSpec.uniform(
        1000, 15, [("Cohort", 200), ("Background", 800)], seed=41)
    gdb = parse_gdb(gen_synthetic(spec))
    keys = keygen(rng=SeededRng(42))
    iinx = build_inverted_index(gdb)
    egdb = build_egdb(keys, iinx, SeededRng(43), p_fp=1e-6)
    bloom = egdb.xfilter

    # zero false negatives: recompute every stored cross-tag independently
    inserted = 0
    for g, ids in iinx.items():
        x = prf_fp(keys.k_x, keyword_bytes(g))
        for rid in ids:
            xtag = base_pow(x * prf_fp(keys.k_i, id_bytes(rid)) % ORDER).x_bytes()
            assert xtag in bloom
            inserted += 1
    assert inserted == egdb.params.n_entries

    # empirical false-positive rate over 10^6 random probes
    probe_rng = SeededRng(44)
    hits = sum((probe_rng.bytes(32) in bloom) for _ in range(1_000_000))
    assert hits <= 10  # <= 1e-5 at the 1e-6 design point
    _report(4, f"{inserted} cross-tags all present; {hits}/1e6 random probes hit")


# --- criteria 5 & 6: scaling shape of server-side search ---------------------------------

def _anchored_cohort_csv(r, l, alpha, shared_cols, seed):
    """Cohort where every anchored record matches the same n-term conjunction,
    so a search visits alpha tuples and does identical work on each."""
    rng = random.Random(seed)
    head = "ID," + ",".join(f"SNP_{i + 1}" for i in range(l)) + ",Phenotype"
    rows = [head]
    for i in range(1, r + 1):
        anchored = i <= alpha
        tail_len = l - shared_cols if anchored else l
        genos = rng.choices(GENOTYPE_CHOICES, k=tail_len)
        if anchored:
            genos = ["AA"] * shared_cols + genos
        rows.append(f"{i}," + ",".join(genos) + ("," + ("Cohort" if anchored else "Background")))
    return "\n".join(rows) + "\n"


def _anchored_search_setup(r, l, alpha, n_terms, seed):
    gdb = parse_gdb(_anchored_cohort_csv(r, l, alpha, n_terms - 1, seed))
    keys = keygen(rng=SeededRng(seed))
    egdb = build_egdb(keys, build_inverted_index(gdb), SeededRng(seed + 1))
    preds = [Predicate("phenotype", "Cohort")] + [
        Predicate("snp", "AA", snp=s) for s in range(1, n_terms)]
    eq = encode_query(Query(tuple(preds), "count"))
    inv_len = len(egdb.tset.retrieve(TSet.tag(keys.k_t, eq.sterm)))
    assert inv_len == alpha
    return egdb, search_init(eq, keys), generate_token(eq, keys, range(1, inv_len + 1))


def _interleaved_medians(setup_a, setup_b, alpha, runs=5):
    times_a, times_b = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        res = search(*setup_a)
        times_a.append(time.perf_counter() - t0)
        assert res == COUNT.pack(alpha)
        t0 = time.perf_counter()
        res = search(*setup_b)
        times_b.append(time.perf_counter() - t0)
        assert res == COUNT.pack(alpha)
    return statistics.median(times_a), statistics.median(times_b)


def test_criterion_5_search_sublinear_in_record_count():
    t0 = time.perf_counter()
    alpha, n_terms, l = 100, 10, 10
    small = _anchored_search_setup(5_000, l, alpha, n_terms, seed=51)
    large = _anchored_search_setup(20_000, l, alpha, n_terms, seed=53)
    t_small, t_large = _interleaved_medians(small, large, alpha)
    elapsed = time.perf_counter() - t0
    assert t_large <= 1.5 * t_small, (t_small, t_large)
    assert elapsed <= 600.0
    _report(5, f"search median {t_small * 1e3:.0f} ms at r=5k vs "
               f"{t_large * 1e3:.0f} ms at r=20k (x{t_large / t_small:.2f}), "
               f"total {elapsed:.0f} s")


def test_criterion_6_search_independent_of_snp_count():
    t0 = time.perf_counter()
    alpha, n_terms, r = 100, 10, 2_000
    narrow = _anchored_search_setup(r, 500, alpha, n_terms, seed=61)
    wide = _anchored_search_setup(r, 2_000, alpha, n_terms, seed=63)
    t_narrow, t_wide = _interleaved_medians(narrow, wide, alpha)
    elapsed = time.perf_counter() - t0
    assert t_wide <= 1.5 * t_narrow, (t_narrow, t_wide)
    _report(6, f"search median {t_narrow * 1e3:.0f} ms at l=500 vs "
               f"{t_wide * 1e3:.0f} ms at l=2000 (x{t_wide / t_narrow:.2f}), "
               f"total {elapsed:.0f} s")


# --- criterion 7: encrypted database size is affine in the entry count --------------------

def test_criterion_7_storage_linear_in_entries():
    keys = keygen(rng=SeededRng(71))
    entry_counts, sizes, expansions = [], [], []
    for r in (100, 200, 400):
        for l in (5, 10, 20):
            spec = SyntheticSpec.uniform(
                r, l, [("Cohort", r // 10), ("Background", r - r // 10)], seed=r + l)
            csv_text = gen_synthetic(spec)
            gdb = parse_gdb(csv_text)
            egdb = build_egdb(keys, build_inverted_index(gdb), SeededRng(r * l))
            size = len(egdb_to_bytes(egdb))
            n_entries = r * (l + 2)  # one entry per SNP, plus phenotype and id
            assert egdb.params.n_entries == n_entries
            entry_counts.append(n_entries)
            sizes.append(size)
            expansions.append(size / len(csv_text.encode()))

    design = np.stack([np.asarray(entry_counts, dtype=float),
                       np.ones(len(entry_counts))], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, np.asarray(sizes, float),
                                             rcond=None)
    predicted = design @ (slope, intercept)
    worst = float(np.max(np.abs(predicted - sizes) / np.asarray(sizes)))
    assert worst <= 0.10, f"worst affine-fit residual {worst:.1%}"
    assert all(10 <= e <= 400 for e in expansions), expansions
    _report(7, f"{slope:.1f} B/entry + {intercept:.0f} B, worst residual "
               f"{worst:.2%}, expansion {min(expansions):.0f}-{max(expansions):.0f}x")


# --- criterion 8: absolute timings are documented, not gated -------------------------------

def _timed_stages(query_type, seed=81, runs=3):
    """Build, token generation and search for a 3-term query anchored on 50 of
    500 records with 10 SNPs; token generation and search are medians."""
    spec = SyntheticSpec.uniform(
        500, 10, [("Cohort", 50), ("Background", 450)], seed=seed)
    gdb = parse_gdb(gen_synthetic(spec))
    keys = keygen(rng=SeededRng(seed + 1))
    t0 = time.perf_counter()
    egdb = build_egdb(keys, build_inverted_index(gdb), SeededRng(seed + 2))
    stages = {"build": time.perf_counter() - t0}

    target = next(rec for rec in gdb.records if rec.phenotype == "Cohort")
    query = Query((Predicate("phenotype", "Cohort"),
                   *(Predicate("snp", target.genotypes[s], snp=s + 1) for s in range(2))),
                  query_type)
    eq = encode_query(query)
    inv_len = len(egdb.tset.retrieve(TSet.tag(keys.k_t, eq.sterm)))
    tokgen, searching = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        rows = generate_token(eq, keys, range(1, inv_len + 1))
        t1 = time.perf_counter()
        res = search(egdb, search_init(eq, keys), rows)
        tokgen.append(t1 - t0)
        searching.append(time.perf_counter() - t1)
    stages["tokgen"] = statistics.median(tokgen)
    stages["search"] = statistics.median(searching)
    answer = COUNT.unpack(res)[0] if query_type == "count" else decrypt_ids(res, eq.sterm, keys)
    return stages, answer, evaluate_plain(gdb, query)


def test_criterion_8_bench_records_absolute_numbers():
    # Absolute wall-clock numbers are hardware-bound, so nothing here asserts
    # on them; the stage timer records them for the report, deploybench
    # measures the deployment, and criteria 5 and 6 pin down the scaling.
    lines = []
    for query_type in ("count", "boolean"):
        stages, answer, expected = _timed_stages(query_type)
        assert set(stages) == {"build", "tokgen", "search"}
        assert all(t > 0 for t in stages.values()), stages
        assert expected  # the anchor's first record matches every term
        assert answer == expected
        lines.append(f"{query_type}: " + ", ".join(
            f"{stage} {t * 1e3:.1f} ms" for stage, t in stages.items()))
    _report(8, "; ".join(lines))


# --- criterion 9: transcript exposes structure only ----------------------------------------
# It checks the wire, the frames an eavesdropper or the server receives, not
# what the server learns by computing the search. A column round sends a
# column's tokens only to the counters still undecided, and its bitmap tells
# the vetter which ones are; a row round sends every column left, and the
# server can raise all of them, so it can learn, for every tuple of that
# round, which of the query's cross-terms hold; that is within OXT's leakage
# profile (README, "Deployment assumptions").

def _session_transcript(addr, keys, where, qtype, k_prime=None):
    eq = encode_query(parse_query(where, qtype, k_prime))
    frames = []
    execute_search(addr, keys, eq, on_frame=lambda d, t, b: frames.append((d, t, b)))
    return eq, frames


def _round_sizes(types, bodies, chain, n_xterms) -> list:
    """Check round two's frames and return (frame type, counters) per round.

    Each round's token frames are of one type: a column frame holds 33
    bytes per counter of the round, a row frame 33 per counter and column
    left, and every token starts with a compressed point's 0x02 or 0x03. A
    column round ends in the result or a bitmap of ceil(r / 8) bytes over
    its r counters, zero-padded, whose set bits are the next round's
    counters; a row round ends in the result.
    """
    rounds, r, col, i = [], chain, 0, 2
    while True:
        kind = types[i]
        assert kind in (MSG_XCOLUMN, MSG_XTOKENS)
        tokens = b""
        while types[i] == kind:
            tokens += bodies[i]
            i += 1
        ncols = 1 if kind == MSG_XCOLUMN else n_xterms - col
        assert len(tokens) == r * ncols * 33
        assert set(tokens[::33]) <= {2, 3}
        rounds.append((kind, r))
        if types[i] == MSG_RESULT:
            assert i == len(types) - 1
            return rounds
        assert (kind, types[i]) == (MSG_XCOLUMN, MSG_UNDECIDED)
        assert len(bodies[i]) == -(-r // 8)
        bits = int.from_bytes(bodies[i], "little")
        assert bits and bits >> r == 0
        r, col, i = bin(bits).count("1"), col + 1, i + 1


def test_criterion_9_transcript_privacy_shape(demo_keys, demo_egdb, monkeypatch):
    srv = DataServer(("127.0.0.1", 0), demo_egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        # (type, where, k', cross-terms, COLUMN_MIN, rounds after round one):
        # round one answers a search without cross-terms or over an empty
        # chain; the demo's chains are shorter than the default COLUMN_MIN,
        # so at 1 they run column rounds
        sessions = [
            ("count", "phenotype=Cancer B, SNP2=CC, SNP4=AG", None, 2, COLUMN_MIN,
             [(MSG_XTOKENS, 3)]),
            ("boolean", "phenotype=Cancer B, SNP2!=CC, SNP4=AG", None, 2, COLUMN_MIN,
             [(MSG_XTOKENS, 3)]),
            ("match", "phenotype=Cancer B, SNP2=CC, SNP3=CT, SNP4=AG", 2, 3, COLUMN_MIN,
             [(MSG_XTOKENS, 3)]),
            ("boolean", "phenotype=Cancer B", None, 0, COLUMN_MIN, []),
            ("count", "phenotype=Cancer Z, SNP2=CC", None, 1, COLUMN_MIN, []),
            ("count", "phenotype=Cancer B, SNP2=CC, SNP4=AG", None, 2, 1,
             [(MSG_XCOLUMN, 3), (MSG_XTOKENS, 2)]),
            ("boolean", "SNP4=AG, SNP1!=AA, SNP3=TT", None, 2, 1,
             [(MSG_XCOLUMN, 4), (MSG_XTOKENS, 3)]),
            ("match", "phenotype=Cancer B, SNP2=CC, SNP3=CT, SNP4=AG", 2, 3, 1,
             [(MSG_XCOLUMN, 3), (MSG_XCOLUMN, 3), (MSG_XTOKENS, 2)]),
        ]
        for qtype, where, k_prime, n_xterms, column_min, rounds in sessions:
            monkeypatch.setattr(engine, "COLUMN_MIN", column_min)
            eq, frames = _session_transcript(
                srv.server_address, demo_keys, where, qtype, k_prime)
            types = [t for _, t, _ in frames]
            bodies = [b for _, _, b in frames]
            assert types[0] == MSG_SEARCH_INIT
            if not rounds:
                assert types == [MSG_SEARCH_INIT, MSG_RESULT]

            # every byte of the init: the anchor tag, then exactly the
            # predicate counts and the threshold; round one declares the
            # counts that every later token row has
            n_pos = len(eq.positive_xterms)
            n_neg = len(eq.negative_xterms)
            assert n_pos + n_neg == n_xterms
            init = bodies[0]
            assert init[:16] == TSet.tag(demo_keys.k_t, eq.sterm)
            assert len(init) == 16 + INIT_FIELDS.size
            assert INIT_FIELDS.unpack(init[16:]) == (eq.gamma, n_pos, n_neg, k_prime or 0)
            chain = None
            if rounds:
                # the chain length is one count, and the rounds carry raw
                # tokens and bitmaps and nothing else
                assert types[1] == MSG_STERM_COUNT and len(bodies[1]) == COUNT.size
                (chain,) = COUNT.unpack(bodies[1])
                assert _round_sizes(types, bodies, chain, n_xterms) == rounds
            # the result is one count, or whole 36-byte ciphertexts, no
            # more of them than the chain has tuples
            result = bodies[-1]
            if qtype == "count":
                assert len(result) == COUNT.size
            else:
                assert len(result) % 36 == 0
                assert chain is None or len(result) // 36 <= chain

            # no key material in any frame, raw, in base64 or in hex
            raw = b"".join(bodies)
            for secret in (demo_keys.k_s, demo_keys.k_x, demo_keys.k_i,
                           demo_keys.k_z, demo_keys.k_t):
                assert secret not in raw
                assert base64.b64encode(secret) not in raw
                assert secret.hex().encode() not in raw
    finally:
        srv.shutdown()
        srv.server_close()
    _report(9, f"{len(sessions)} session transcripts carry fixed-layout opaque fields only")
