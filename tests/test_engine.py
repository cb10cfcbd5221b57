"""Trapdoor generation, encrypted search, decryption, and vetting."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from privgendb import engine
from privgendb.crypto import (
    ENC_ID_LEN,
    ORDER,
    IDENTITY,
    SeededRng,
    base_pow,
    keygen,
    keyword_bytes,
    keyword_counter,
    prf_fp,
)
from privgendb.encoding import QueryError, encode_query, parse_query
from privgendb.engine import (
    GAMMA_BOOLEAN,
    GAMMA_COUNT,
    GAMMA_MATCH,
    Policy,
    SearchCore,
    TamperingError,
    decrypt_ids,
    generate_token,
    parse_policy,
    run_query,
    search_init,
    vet_count,
    vet_request,
)
from privgendb.index import Y_LEN, build_egdb, build_inverted_index
from privgendb.wire import COUNT, WireError

from conftest import (
    GOLDEN_COUNTS,
    GOLDEN_IDS,
    OFF_CURVE,
    _pack,
    init_body,
    probe_tokens,
    random_cohort,
    search,
)
from oracle import evaluate_plain


# --- token generation ------------------------------------------------------------

def test_token_shape_and_values(demo_keys):
    eq = encode_query(parse_query("phenotype=Cancer B, SNP2=CC, SNP4=AG", "boolean"))
    assert eq.sterm == "Cancer B"
    body = generate_token(eq, demo_keys, range(1, 4))
    # 3 rows of 2 positive tokens and no negative one, 33 bytes each
    assert type(body) is bytes and len(body) == 3 * 2 * 33
    assert set(body[::33]) <= {2, 3}
    # recompute one token from first principles: counter 2's first
    z2 = prf_fp(demo_keys.k_z, keyword_counter("Cancer B", 2))
    x_cc = prf_fp(demo_keys.k_x, keyword_bytes("2CC"))
    assert body[2 * 33 : 3 * 33] == base_pow(z2 * x_cc % ORDER).encode()


def test_token_negation_split(demo_keys):
    eq = encode_query(parse_query("phenotype=Cancer B, SNP2!=CC, SNP4=AG", "count"))
    body = generate_token(eq, demo_keys, range(1, 4))
    assert len(body) == 3 * 2 * 33  # each row: 1 positive token, then 1 negative
    # counter 1's row: the positive term's token, then the negated term's
    z1 = prf_fp(demo_keys.k_z, keyword_counter("Cancer B", 1))
    assert body[:33] == base_pow(z1 * prf_fp(demo_keys.k_x, keyword_bytes("4AG")) % ORDER).encode()
    assert body[33:66] == base_pow(z1 * prf_fp(demo_keys.k_x, keyword_bytes("2CC")) % ORDER).encode()


def test_token_without_cross_terms_skips_blinding(demo_keys, monkeypatch):
    eq = encode_query(parse_query("SNP2=CC", "count"))
    calls = []
    real = engine.prf_fp
    monkeypatch.setattr(engine, "prf_fp", lambda k, d: calls.append(k) or real(k, d))
    assert generate_token(eq, demo_keys, range(1, 6)) == b""  # 5 empty rows
    assert demo_keys.k_z not in calls  # no z_c derived for an empty token list


def test_token_zero_counters(demo_keys):
    eq = encode_query(parse_query("phenotype=Cancer Z, SNP2=CC", "count"))
    assert generate_token(eq, demo_keys, []) == b""
    for bad in ([-1], [0], [2, 0]):
        with pytest.raises(ValueError, match="bad counter"):
            generate_token(eq, demo_keys, bad)


def test_token_counter_range_is_a_slice_of_the_chain(demo_keys):
    eq = encode_query(parse_query("SNP2=CC, SNP4!=AG", "boolean"))
    body = generate_token(eq, demo_keys, range(1, 6))
    assert (eq.positive_xterms, eq.negative_xterms) == ((), ("4AG",))
    row = 33  # the negative token alone
    for first, last in [(1, 1), (2, 4), (5, 5), (3, 2)]:
        assert generate_token(eq, demo_keys, range(first, last + 1)) == \
            body[(first - 1) * row : last * row]
    # any counters, in the order given
    assert generate_token(eq, demo_keys, [5, 2]) == body[4 * row :] + body[row : 2 * row]


def test_token_columns_are_a_slice_of_the_rows(demo_keys):
    """Any run of columns of any counters: the same tokens the whole rows
    hold, and no others."""
    eq = encode_query(parse_query("phenotype=Cancer B, SNP2=CC, SNP3!=CT, SNP4=AG", "count"))
    width = 3
    rows = generate_token(eq, demo_keys, range(1, 4))
    token = lambda c, g: rows[((c - 1) * width + g) * 33 : ((c - 1) * width + g + 1) * 33]
    for counters, col, ncols in [([1, 2, 3], 0, 1), ([3, 1], 1, 1), ([2], 1, 2), ([1, 3], 2, 1),
                                 ([2, 3], 1, None), ([1], 0, 3), ([1, 2], 3, 0)]:
        stop = width if ncols is None else col + ncols
        assert generate_token(eq, demo_keys, counters, col, ncols) == b"".join(
            token(c, g) for c in counters for g in range(col, stop))
    for col, ncols in [(-1, 1), (2, 2), (4, None), (0, 4)]:
        with pytest.raises(ValueError, match="column range"):
            generate_token(eq, demo_keys, [1], col, ncols)


# --- golden query answers over the encrypted pipeline -------------------------------

@pytest.mark.parametrize("where,expected", GOLDEN_COUNTS)
def test_count_goldens(demo_keys, demo_egdb, demo_freq, where, expected):
    query = parse_query(where, "count")
    assert run_query(demo_keys, demo_egdb, query, demo_freq) == expected


@pytest.mark.parametrize("qtype,where,k_prime,expected", GOLDEN_IDS)
def test_id_goldens(demo_keys, demo_egdb, demo_freq, qtype, where, k_prime, expected):
    query = parse_query(where, qtype, k_prime)
    assert run_query(demo_keys, demo_egdb, query, demo_freq) == expected


def test_goldens_match_oracle(demo_gdb, demo_keys, demo_egdb, demo_freq):
    for where, _ in GOLDEN_COUNTS:
        q = parse_query(where, "count")
        assert evaluate_plain(demo_gdb, q, demo_freq) == run_query(
            demo_keys, demo_egdb, q, demo_freq)
    for qtype, where, k_prime, _ in GOLDEN_IDS:
        q = parse_query(where, qtype, k_prime)
        assert evaluate_plain(demo_gdb, q, demo_freq) == run_query(
            demo_keys, demo_egdb, q, demo_freq)


def test_anchor_choice_does_not_change_answers(demo_keys, demo_egdb, demo_freq):
    """Same query, different frequency hints => different anchors, same result."""
    query = parse_query("SNP2=CC, SNP4=AG", "boolean")
    skew_a = {"2CC": 1, "4AG": 100}
    skew_b = {"2CC": 100, "4AG": 1}
    assert encode_query(query, skew_a).sterm != encode_query(query, skew_b).sterm
    res_a = run_query(demo_keys, demo_egdb, query, skew_a)
    res_b = run_query(demo_keys, demo_egdb, query, skew_b)
    assert res_a == res_b == [1, 2, 4, 5]


def test_match_monotone_in_threshold(demo_keys, demo_egdb, demo_freq):
    results = [
        set(run_query(demo_keys, demo_egdb,
                      parse_query("phenotype=Cancer B, SNP2=CC, SNP3=CT, SNP4=AG", "match", k),
                      demo_freq))
        for k in (1, 2, 3)
    ]
    assert results[0] >= results[1] >= results[2]
    assert results[0] == {2, 5, 7}


def test_match_full_threshold_equals_boolean(demo_keys, demo_egdb, demo_freq):
    boolean = run_query(demo_keys, demo_egdb,
                        parse_query("phenotype=Cancer B, SNP2=CC, SNP4=AG", "boolean"),
                        demo_freq)
    full = run_query(demo_keys, demo_egdb,
                     parse_query("phenotype=Cancer B, SNP2=CC, SNP4=AG", "match", 2),
                     demo_freq)
    assert boolean == full


# --- server-side behaviour ------------------------------------------------------------

def test_search_refuses_rows_past_the_chain(demo_keys, demo_egdb):
    # every Cancer B tuple holds Cancer B, so each fed counter is a hit
    hits = probe_tokens(demo_keys, "Cancer B", 4, "Cancer B")  # the chain has 3
    init = init_body(demo_keys, gamma=GAMMA_COUNT)
    core = SearchCore(demo_egdb, init)
    with pytest.raises(WireError, match="counters 1..4 run past the chain of 3"):
        core.feed(b"".join(hits))
    # counter by counter: done after the third, and a fourth row is refused
    core = SearchCore(demo_egdb, init)
    for c in range(3):
        assert not core.done
        core.feed(hits[c])
    assert core.done and core.finish() == COUNT.pack(3)
    with pytest.raises(WireError, match="past the chain"):
        core.feed(hits[3])
    # a search decided when it opens takes no row at all: an empty chain
    # refuses a row, and a search without cross-terms any body
    empty = SearchCore(demo_egdb, init_body(demo_keys, "Cancer Z", GAMMA_COUNT))
    with pytest.raises(WireError, match="counters 1..1 run past the chain of 0"):
        empty.feed(hits[0])
    for body in (b"", hits[0]):
        with pytest.raises(WireError, match="rows of the 0 declared tokens"):
            SearchCore(demo_egdb, init_body(demo_keys, gamma=GAMMA_COUNT, n_pos=0)).feed(body)


def test_search_unknown_anchor_is_empty(demo_keys, demo_egdb):
    eq = encode_query(parse_query("phenotype=Nope, SNP2=CC", "boolean"))
    assert search(demo_egdb, search_init(eq, demo_keys), generate_token(eq, demo_keys, [])) == b""


# --- the search core ----------------------------------------------------------------

def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_tokenless_chain_builds_no_key(demo_keys, demo_egdb, monkeypatch):
    keys_made = _count_calls(monkeypatch, engine, "exponent_key")
    assert run_query(demo_keys, demo_egdb, parse_query("SNP2=CC", "count")) == 5
    assert keys_made == []
    # with cross-terms: one key per tuple, however many tokens it has
    eq = encode_query(parse_query("phenotype=Cancer B, SNP2=CC, SNP4=AG", "boolean"))
    rows = generate_token(eq, demo_keys, range(1, 4))
    keys_made.clear()
    assert len(search(demo_egdb, search_init(eq, demo_keys), rows)) == 2 * ENC_ID_LEN
    assert len(keys_made) == 3


def test_tokenless_search_is_decided_in_round_one(demo_keys, demo_egdb, monkeypatch):
    tokens_made = _count_calls(monkeypatch, engine, "generate_token")
    raised = _count_calls(monkeypatch, engine, "pow_x")
    assert run_query(demo_keys, demo_egdb, parse_query("SNP2=CC", "count")) == 5
    assert run_query(demo_keys, demo_egdb,
                     parse_query("phenotype=Cancer B", "boolean")) == [2, 5, 7]
    # an empty chain is decided too, cross-terms or not
    assert run_query(demo_keys, demo_egdb,
                     parse_query("phenotype=Cancer Z, SNP2=CC", "boolean")) == []
    assert tokens_made == [] and raised == []
    # the core expects no rows: a count takes the chain length, a boolean
    # every ciphertext, a match (k' of no tokens) nothing
    core = SearchCore(demo_egdb, init_body(demo_keys, gamma=GAMMA_COUNT, n_pos=0))
    assert core.done and core.finish() == COUNT.pack(3)
    core = SearchCore(demo_egdb, init_body(demo_keys, gamma=GAMMA_BOOLEAN, n_pos=0))
    assert core.done and not core.round_open and len(core.counters) == 0
    assert core.finish() == b"".join(bytes(row[Y_LEN:]) for row in core.tuples)
    core = SearchCore(demo_egdb, init_body(demo_keys, gamma=GAMMA_MATCH, n_pos=0, k_prime=1))
    assert core.done and core.finish() == b""
    assert not SearchCore(demo_egdb, init_body(demo_keys, gamma=GAMMA_BOOLEAN)).done
    empty = SearchCore(demo_egdb, init_body(demo_keys, "Cancer Z", GAMMA_BOOLEAN, 1, 1))
    assert empty.done and empty.finish() == b""


def test_boolean_early_exit_leaves_tokens_undecoded(demo_keys, demo_egdb, monkeypatch):
    decoded = _count_calls(monkeypatch, engine, "pow_x")
    # no Cancer B record is Cancer A: the first token misses on every tuple
    misses = probe_tokens(demo_keys, "Cancer B", 3, "Cancer A")
    core = SearchCore(demo_egdb, init_body(demo_keys, gamma=GAMMA_BOOLEAN, n_pos=3))
    core.feed(_pack([miss, OFF_CURVE, OFF_CURVE] for miss in misses))
    assert core.finish() == b""
    assert [args[1] for args in decoded] == misses  # one decode per tuple


def test_match_early_exits_leave_tokens_undecoded(demo_keys, demo_egdb, monkeypatch):
    decoded = _count_calls(monkeypatch, engine, "pow_x")
    misses = probe_tokens(demo_keys, "Cancer B", 3, "Cancer A")
    hits = probe_tokens(demo_keys, "Cancer B", 3, "Cancer B")
    # k' = 3 of 3: the first miss already decides
    core = SearchCore(demo_egdb, init_body(demo_keys, gamma=GAMMA_MATCH, n_pos=3, k_prime=3))
    core.feed(_pack([m, OFF_CURVE, OFF_CURVE] for m in misses))
    assert core.finish() == b""
    # k' = 1: the first hit already decides
    core = SearchCore(demo_egdb, init_body(demo_keys, gamma=GAMMA_MATCH, n_pos=2, k_prime=1))
    core.feed(_pack([h, OFF_CURVE] for h in hits))
    assert len(core.finish()) == 3 * ENC_ID_LEN
    assert len(decoded) == 6
    # k' above the token count: decided before any key or decode
    core = SearchCore(demo_egdb, init_body(demo_keys, gamma=GAMMA_MATCH, k_prime=2))
    core.feed(OFF_CURVE * 3)
    assert core.finish() == b"" and len(decoded) == 6


@pytest.mark.parametrize("bad,detail", [
    (OFF_CURVE, "group element at counter 1"),
    # the identity has no compressed encoding: refused by its prefix on arrival
    (IDENTITY.encode(), "group element at counter 1: prefix 0x00"),
], ids=["off-curve", "identity"])
def test_core_rejects_a_used_non_point(demo_keys, demo_egdb, bad, detail):
    core = SearchCore(demo_egdb, init_body(demo_keys, gamma=GAMMA_BOOLEAN))
    with pytest.raises(WireError, match=detail):
        core.feed(bad)


# each refused body, built from the 3 tokens that hit on the Cancer B chain;
# the search's positive-token count, then the error
_REFUSED_BODIES = {
    "empty": (1, lambda hits: b"", "rows of the 1 declared tokens, 33 bytes each; got 0 bytes"),
    "cut-row": (1, lambda hits: b"".join(hits)[:-1], "got 98 bytes"),
    "past-the-chain": (1, lambda hits: b"".join(hits) + hits[0],
                       "counters 1..4 run past the chain of 3"),
    "bad-prefix": (2, lambda hits: _pack([[hits[0], hits[0]], [hits[1], b"\x07" + hits[1][1:]]]),
                   "group element at counter 2: prefix 0x07, want 0x02 or 0x03"),
}


@pytest.mark.parametrize("case", list(_REFUSED_BODIES))
def test_feed_refuses_a_body_before_evaluating_any_row(demo_keys, demo_egdb, monkeypatch,
                                                       case):
    n_pos, make_body, error = _REFUSED_BODIES[case]
    keys_made = _count_calls(monkeypatch, engine, "exponent_key")
    hits = probe_tokens(demo_keys, "Cancer B", 3, "Cancer B")
    core = SearchCore(demo_egdb, init_body(demo_keys, gamma=GAMMA_BOOLEAN, n_pos=n_pos))
    with pytest.raises(WireError, match=error):
        core.feed(make_body(hits))
    assert keys_made == []


def test_decrypt_ids_detects_tampering(demo_keys, demo_egdb):
    eq = encode_query(parse_query("phenotype=Cancer B, SNP2=CC", "boolean"))
    res = search(demo_egdb, search_init(eq, demo_keys), generate_token(eq, demo_keys, range(1, 4)))
    assert len(res) == 2 * ENC_ID_LEN
    assert decrypt_ids(res, eq.sterm, demo_keys) == [2, 5]
    evil = bytearray(res)
    evil[20] ^= 0x01
    with pytest.raises(TamperingError, match="ciphertext 0"):
        decrypt_ids(bytes(evil), eq.sterm, demo_keys)
    # decryption under the wrong anchor keyword must also fail loudly
    with pytest.raises(TamperingError):
        decrypt_ids(res, "Cancer A", demo_keys)
    # and so must a result cut inside its last ciphertext
    with pytest.raises(TamperingError, match="ciphertext 1"):
        decrypt_ids(res[:-1], eq.sterm, demo_keys)


def test_decrypt_ids_sorts_and_dedupes(demo_keys, demo_egdb):
    eq = encode_query(parse_query("SNP2=CC", "boolean"))
    res = search(demo_egdb, search_init(eq, demo_keys), generate_token(eq, demo_keys, range(1, 6)))
    doubled = res + res[:2 * ENC_ID_LEN]
    assert decrypt_ids(doubled, eq.sterm, demo_keys) == [1, 2, 4, 5, 6]


# --- differential check against the plaintext oracle --------------------------------

_PHENOS = ("Cancer A", "Cancer B", "Cancer C")
_GT = ("AA", "AG", "GG", "CC")


def _random_query(rng: random.Random, n_records: int, n_snps: int) -> "str | tuple":
    qtype = rng.choice(("count", "boolean", "match"))
    n_preds = rng.randint(2, min(4, n_snps + 1))
    fields = rng.sample([f"snp{i}" for i in range(1, n_snps + 1)] + ["phenotype"],
                        n_preds)
    parts = []
    for f in fields:
        if f == "phenotype":
            lhs, value = "phenotype", rng.choice(_PHENOS)
        else:
            lhs, value = f, rng.choice(_GT)
        neg = qtype != "match" and rng.random() < 0.3
        parts.append(f"{lhs}{'!=' if neg else '='}{value}")
    if all("!=" in p for p in parts):
        parts[0] = parts[0].replace("!=", "=")
    where = ", ".join(parts)
    k_prime = rng.randint(1, n_preds - 1) if qtype == "match" else None
    return parse_query(where, qtype, k_prime)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_encrypted_matches_oracle(seed):
    rng = random.Random(seed)
    n_records, n_snps = rng.randint(5, 20), rng.randint(2, 4)
    gdb = random_cohort(rng, n_records, n_snps)
    keys = keygen(rng=SeededRng(seed ^ 0xA5A5))
    egdb = build_egdb(keys, build_inverted_index(gdb), SeededRng(seed ^ 0x5A5A))
    for _ in range(4):
        query = _random_query(rng, n_records, n_snps)
        assert run_query(keys, egdb, query) == evaluate_plain(gdb, query)


# --- vetting -----------------------------------------------------------------------

POLICY_TEXT = """\
# staff
user alice role clinician
user bob role analyst
threshold 3
"""


def test_parse_policy():
    pol = parse_policy(POLICY_TEXT)
    assert pol.roles == {"alice": "clinician", "bob": "analyst"}
    assert pol.threshold == 3
    assert parse_policy("").threshold == 1
    with pytest.raises(ValueError):
        parse_policy("user mallory\n")
    with pytest.raises(ValueError):
        parse_policy("threshold many\n")
    with pytest.raises(ValueError):
        parse_policy("user eve role admin\n")
    with pytest.raises(ValueError):
        Policy({}, threshold=0)


_POLICY_WORDS = ["user", "role", "threshold", "alice", "clinician", "analyst", "admin", "#",
                 "0", "-1", "3", "1" * 5000, "many", "", "\t", "\r", "é", "\x00"]
_POLICY_LINES = st.lists(st.sampled_from(_POLICY_WORDS), max_size=5).map(" ".join)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=200), st.lists(_POLICY_LINES, max_size=6).map("\n".join),
                 st.builds(lambda at, put: POLICY_TEXT[:at] + put + POLICY_TEXT[at:],
                           st.integers(0, len(POLICY_TEXT)), st.text(max_size=6))))
def test_parse_policy_fuzz(text):
    """A policy file parses or raises ValueError, and nothing else, in
    bounded time; a parsed policy holds only known roles and a threshold >= 1."""
    t0 = time.perf_counter()
    try:
        policy = parse_policy(text)
    except ValueError:
        return
    finally:
        assert time.perf_counter() - t0 < 2.0
    assert policy.threshold >= 1 and set(policy.roles.values()) <= {"analyst", "clinician"}


@pytest.mark.parametrize("user,qtype,allowed", [
    ("alice", "count", True),
    ("alice", "boolean", True),
    ("alice", "match", True),
    ("bob", "count", True),
    ("bob", "boolean", False),
    ("bob", "match", False),
    ("mallory", "count", False),
])
def test_vet_request(user, qtype, allowed):
    pol = parse_policy(POLICY_TEXT)
    ok, reason = vet_request(user, qtype, pol)
    assert ok is allowed
    assert ok == (reason == "")


def test_vet_release():
    pol = parse_policy(POLICY_TEXT)
    assert vet_count(3, pol) == 3
    assert vet_count(2, pol) is None
    assert vet_count(0, pol) is None
