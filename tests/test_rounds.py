"""Tokens on demand: column rounds, row rounds and the undecided bitmaps of
round two, in process and over the wire."""

import collections
import hashlib
import random
import re
import socket
import threading

import numpy as np
import pytest

from privgendb import engine, services
from privgendb.crypto import SeededRng, keygen
from privgendb.encoding import encode_query, parse_gdb, parse_query
from privgendb.engine import (
    COLUMN_MIN,
    Policy,
    SearchCore,
    TokenRounds,
    decrypt_ids,
    generate_token,
    read_undecided,
    round_columns,
    run_query,
    search_init,
)
from privgendb.index import Y_LEN, build_egdb, build_inverted_index, keyword_frequencies
from privgendb.services import DataServer, ServiceError, Vetter, execute_search, submit_query
from privgendb.wire import (
    COUNT,
    MSG_RESULT,
    MSG_SEARCH_INIT,
    MSG_STERM_COUNT,
    MSG_UNDECIDED,
    MSG_XCOLUMN,
    MSG_XTOKENS,
    WireError,
    read_frame,
    send_frame,
)

from oracle import SyntheticSpec, evaluate_plain, gen_synthetic

CHAIN = 20  # the Cohort phenotype's records, so every search anchored on it


class Cohort:
    """A 48-record, 6-SNP cohort whose Cohort chain runs column rounds."""

    def __init__(self):
        self.gdb = parse_gdb(gen_synthetic(SyntheticSpec.uniform(
            48, 6, [("Cohort", CHAIN), ("Background", 48 - CHAIN)], seed=23)))
        self.keys = keygen(rng=SeededRng(23))
        self.iinx = build_inverted_index(self.gdb)
        self.egdb = build_egdb(self.keys, self.iinx, SeededRng(24))
        self.freq = keyword_frequencies(self.gdb)
        self.g = next(r for r in self.gdb.records if r.phenotype == "Cohort").genotypes

    def where(self, *terms) -> str:
        """``phenotype=Cohort`` and SNP terms ``(snp, negated)`` on the first
        Cohort record's genotypes, so that some tuples pass each term."""
        return ", ".join(["phenotype=Cohort"] + [
            f"SNP{s}{'!=' if neg else '='}{self.g[s - 1]}" for s, neg in terms])


@pytest.fixture(scope="module")
def cohort():
    return Cohort()


@pytest.fixture(scope="module")
def server(cohort):
    srv = DataServer(("127.0.0.1", 0), cohort.egdb)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


# one of each query type, every one with column rounds at the default
QUERIES = [
    ("count", ((1, False), (2, False), (3, True)), None),
    ("boolean", ((1, False), (4, False), (5, False), (6, True)), None),
    ("match", ((1, False), (2, False), (3, False), (4, False)), 2),
]


def _answer(qtype, body, eq, keys):
    return COUNT.unpack(body)[0] if qtype == "count" else decrypt_ids(body, eq.sterm, keys)


def _transcript(addr, keys, eq, **kw):
    frames = []
    body = execute_search(addr, keys, eq, on_frame=lambda d, t, b: frames.append((d, t, b)),
                          timeout=30, **kw)
    return body, frames


def _token_rounds(frames) -> list:
    """(frame type, tokens sent) of each token round of a transcript."""
    rounds = []
    for i, (d, t, b) in enumerate(frames):
        if t in (MSG_XTOKENS, MSG_XCOLUMN):
            if frames[i - 1][1] not in (MSG_XTOKENS, MSG_XCOLUMN):
                rounds.append([t, []])
            rounds[-1][1] += [b[j : j + 33] for j in range(0, len(b), 33)]
    return rounds


# --- the rule and the bitmaps ----------------------------------------------------------

def test_round_rule():
    assert COLUMN_MIN == 8
    assert round_columns(COLUMN_MIN, 2) == 1  # a column round
    assert round_columns(COLUMN_MIN - 1, 5) == 5  # a row round: few counters
    assert round_columns(100, 1) == 1  # a row round: one column left
    assert round_columns(100, 0) == 0


def undecided_bitmap(mask) -> bytes:
    """A bitmap written bit by bit: bit i of the little-endian integer."""
    return sum(1 << i for i, u in enumerate(mask) if u).to_bytes(-(-len(mask) // 8), "little")


@pytest.mark.parametrize("r", [1, 7, 8, 9, 20])
def test_bitmap_roundtrip(r):
    rng = np.random.default_rng(r)
    for _ in range(20):
        mask = rng.random(r) < 0.5
        mask[rng.integers(r)] = True
        bitmap = undecided_bitmap(mask)
        assert len(bitmap) == -(-r // 8)
        assert [bool(bitmap[i // 8] >> (i % 8) & 1) for i in range(r)] == mask.tolist()
        assert read_undecided(bitmap, r).tolist() == mask.tolist()


@pytest.mark.parametrize("bitmap,r,error", [
    (b"", 9, "2 bytes; got 0"), (b"\x01", 9, "2 bytes; got 1"), (b"\x01\x00\x00", 9, "got 3"),
    (b"\x01\x02", 9, "bits set past the round's 9"), (b"\x00\x80", 15, "past the round's 15"),
    (b"\x00\x00", 9, "no counter is undecided"), (b"\x00", 1, "no counter"),
], ids=["empty", "short", "long", "past-9", "past-15", "zero", "zero-1"])
def test_read_undecided_refuses(bitmap, r, error):
    with pytest.raises(ValueError, match=error):
        read_undecided(bitmap, r)


def test_token_rounds_follow_the_bitmaps(cohort):
    eq = encode_query(parse_query(cohort.where((1, False), (2, False), (3, False)), "count"))
    rounds = TokenRounds(eq, CHAIN)
    assert (list(rounds.counters), rounds.col, rounds.ncols, rounds.column) == (
        list(range(1, CHAIN + 1)), 0, 1, True)
    mask = np.zeros(CHAIN, dtype=bool)
    mask[[1, 4, 5, 7, 8, 10, 12, 19]] = True  # 8 undecided: another column round
    rounds.advance(undecided_bitmap(mask))
    assert (rounds.counters.tolist(), rounds.col, rounds.ncols, rounds.column) == (
        [2, 5, 6, 8, 9, 11, 13, 20], 1, 1, True)
    mask = np.zeros(8, dtype=bool)
    mask[[0, 7]] = True  # 2 undecided: a row round of the last column
    rounds.advance(undecided_bitmap(mask))
    assert (rounds.counters.tolist(), rounds.col, rounds.ncols, rounds.column) == (
        [2, 20], 2, 1, False)
    with pytest.raises(ValueError, match="after one"):
        rounds.advance(b"\x03")
    # fewer than COLUMN_MIN counters from the start: one row round of every column
    rounds = TokenRounds(eq, COLUMN_MIN - 1)
    assert (rounds.ncols, rounds.column) == (3, False)


# --- the same answers and the same work ------------------------------------------------

def _random_queries(cohort, n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        qtype = rng.choice(("count", "boolean", "match"))
        g = rng.choice([r for r in cohort.gdb.records if r.phenotype == "Cohort"]).genotypes
        snps = rng.sample(range(1, 7), rng.randint(1, 5))
        terms = [f"SNP{s}{'!=' if qtype != 'match' and rng.random() < 0.25 else '='}{g[s - 1]}"
                 for s in snps]
        k = rng.randint(1, len(snps)) if qtype == "match" else None
        out.append(parse_query(", ".join(["phenotype=Cohort"] + terms), qtype, k))
    return out


@pytest.mark.parametrize("column_min", [1, COLUMN_MIN])
def test_answers_equal_the_oracle(monkeypatch, cohort, server, column_min):
    """In process and over the wire, on the 20-tuple chain."""
    monkeypatch.setattr(engine, "COLUMN_MIN", column_min)
    columns = 0
    for query in _random_queries(cohort, 30, seed=column_min):
        expected = evaluate_plain(cohort.gdb, query, cohort.freq)
        assert run_query(cohort.keys, cohort.egdb, query, cohort.freq) == expected
        eq = encode_query(query, cohort.freq)
        body, frames = _transcript(server.server_address, cohort.keys, eq)
        assert _answer(query.query_type, body, eq, cohort.keys) == expected, query
        columns += any(t == MSG_XCOLUMN for _, t, _ in frames)
    assert columns >= 10  # most of the queries ran a column round


def _row_round_pairs(cohort, eq):
    """The (counter, column) pairs a row round from column 0 raises, worked
    out over the plaintext: each tuple's tokens in column order, up to its
    early exit."""
    core = SearchCore(cohort.egdb, search_init(eq, cohort.keys))
    terms = eq.positive_xterms + eq.negative_xterms
    n_pos = len(eq.positive_xterms)
    pairs = []
    for c in range(1, len(core.tuples) + 1):
        (rid,) = decrypt_ids(core.tuples[c - 1, Y_LEN:].tobytes(), eq.sterm, cohort.keys)
        holds = [rid in cohort.iinx[kw] for kw in terms]
        if eq.gamma == engine.GAMMA_MATCH:
            hits, left = 0, len(terms)
            for g, h in enumerate(holds):
                pairs.append((c, g))
                left -= 1
                hits += h
                if hits >= eq.k_prime or hits + left < eq.k_prime:
                    break
            continue
        for g, h in enumerate(holds):
            pairs.append((c, g))
            if h != (g < n_pos):
                break
    return sorted(pairs)


@pytest.mark.parametrize("column_min", [1, COLUMN_MIN])
@pytest.mark.parametrize("qtype,terms,k_prime", QUERIES, ids=[q[0] for q in QUERIES])
def test_the_server_raises_the_pairs_a_row_round_raises(monkeypatch, cohort, server,
                                                        column_min, qtype, terms, k_prime):
    """Column rounds change which tokens are sent, not which are raised."""
    monkeypatch.setattr(engine, "COLUMN_MIN", column_min)
    eq = encode_query(parse_query(cohort.where(*terms), qtype, k_prime))
    width = len(eq.xterms)
    rows = generate_token(eq, cohort.keys, range(1, CHAIN + 1))
    pair_of = {rows[i * 33 : (i + 1) * 33]: divmod(i, width) for i in range(CHAIN * width)}
    raised = []
    real = engine.pow_x
    monkeypatch.setattr(engine, "pow_x", lambda key, tok: raised.append(tok) or real(key, tok))
    expected = _row_round_pairs(cohort, eq)
    for search in ("in process", "networked"):
        raised.clear()
        if search == "in process":
            run_query(cohort.keys, cohort.egdb, parse_query(cohort.where(*terms), qtype, k_prime))
            sent = None
        else:
            _, frames = _transcript(server.server_address, cohort.keys, eq)
            sent = [tok for _, toks in _token_rounds(frames) for tok in toks]
            assert any(t == MSG_UNDECIDED for _, t, _ in frames)
        assert sorted((c + 1, g) for c, g in map(pair_of.get, raised)) == expected, search
    # every token raised was sent; with one column a round while two are
    # left, every token sent is raised
    assert not collections.Counter(raised) - collections.Counter(sent)
    if column_min == 1:
        assert collections.Counter(sent) == collections.Counter(raised)
    assert len(sent) < CHAIN * width


def test_column_rounds_never_send_more_tokens_than_rows(cohort, server):
    """Each search of the random queries sends at most a token per counter
    and column, as one row round does; together they send fewer."""
    sent = rows = 0
    for query in _random_queries(cohort, 30, seed=5):
        eq = encode_query(query, cohort.freq)
        stats = {}
        _transcript(server.server_address, cohort.keys, eq, stats=stats)
        assert stats["tokens"] <= CHAIN * len(eq.xterms)
        sent += stats["tokens"]
        rows += CHAIN * len(eq.xterms)
    assert sent < rows, (sent, rows)


# --- the core's refusals ---------------------------------------------------------------

def _second_round(cohort, where="") -> SearchCore:
    """A core on a 3-column count, after its first column round."""
    eq = encode_query(parse_query(where or cohort.where((1, False), (2, False), (3, False)),
                                  "count"))
    core = SearchCore(cohort.egdb, search_init(eq, cohort.keys))
    core.feed(generate_token(eq, cohort.keys, range(1, CHAIN + 1), 0, 1), column=True)
    assert not core.round_open and not core.done
    undecided = core.undecided.copy()
    bitmap = core.next_round()
    assert bitmap == undecided_bitmap(undecided)
    assert 1 <= len(core.counters) < CHAIN and len(bitmap) == 3
    assert core.counters.tolist() == (np.flatnonzero(read_undecided(bitmap, CHAIN)) + 1).tolist()
    return eq, core


def test_core_refuses_rows_past_the_round(cohort):
    eq, core = _second_round(cohort)
    r = len(core.counters)
    counters = list(core.counters) + [1]
    with pytest.raises(WireError, match=f"token rows 1..{r + 1} run past the round of {r} "
                                        f"undecided counters"):
        core.feed(generate_token(eq, cohort.keys, counters, 1, 1), column=True)
    with pytest.raises(WireError, match=f"rows 1..{r + 1} run past the round of {r}"):
        core.feed(generate_token(eq, cohort.keys, counters, 1), column=False)
    core.feed(generate_token(eq, cohort.keys, counters[:1], 1, 1), column=True)
    with pytest.raises(WireError, match=f"rows 2..{r + 1} run past the round of {r}"):
        core.feed(generate_token(eq, cohort.keys, counters[1:], 1, 1), column=True)


def test_core_refuses_a_row_of_the_wrong_width(cohort):
    eq, core = _second_round(cohort)
    c = core.counters[:1]
    for body in (generate_token(eq, cohort.keys, c, 0),  # every column, not those left
                 generate_token(eq, cohort.keys, c, 1, 1)):  # one column, in a row frame
        with pytest.raises(WireError, match="rows of the 2 declared tokens, 66 bytes each"):
            core.feed(body)
    core.feed(generate_token(eq, cohort.keys, c, 1))  # the two columns left
    eq, core = _second_round(cohort)
    with pytest.raises(WireError, match="rows of the 1 declared tokens, 33 bytes each; got 32"):
        core.feed(generate_token(eq, cohort.keys, core.counters[:1], 1, 1)[:32], column=True)


def test_core_refuses_a_column_frame_with_one_column_left(cohort):
    where = cohort.where((1, False), (2, False))
    eq, core = _second_round(cohort, where)
    with pytest.raises(WireError, match="two or more columns left; 1 left"):
        core.feed(generate_token(eq, cohort.keys, core.counters[:1], 1, 1), column=True)
    # a one-column query has no column round
    eq = encode_query(parse_query(cohort.where((1, False)), "boolean"))
    core = SearchCore(cohort.egdb, search_init(eq, cohort.keys))
    with pytest.raises(WireError, match="two or more columns left; 1 left"):
        core.feed(generate_token(eq, cohort.keys, [1]), column=True)


@pytest.mark.parametrize("first", [True, False], ids=["column-then-row", "row-then-column"])
def test_core_refuses_a_change_of_frame_type_within_a_round(cohort, first):
    eq = encode_query(parse_query(cohort.where((1, False), (2, False), (3, False)), "boolean"))
    core = SearchCore(cohort.egdb, search_init(eq, cohort.keys))
    core.feed(generate_token(eq, cohort.keys, [1], 0, 1 if first else None), column=first)
    with pytest.raises(WireError, match="all be column frames or all row frames"):
        core.feed(generate_token(eq, cohort.keys, [2], 0, None if first else 1),
                  column=not first)


# --- the vetter's refusals and a lying server ------------------------------------------

def _fake_server(answers, width, chain=CHAIN):
    """A data server that claims ``chain`` tuples for a query of ``width``
    columns, then answers each token round with the next of ``answers``, a
    (type, body) pair. Returns the listener, its thread and (type, counters,
    tokens) for each round it read."""
    listener = socket.create_server(("127.0.0.1", 0))
    rounds = []

    def serve():
        conn, _ = listener.accept()
        with conn:
            rd = conn.makefile("rb")
            read_frame(rd)
            send_frame(conn, MSG_STERM_COUNT, COUNT.pack(chain))
            r, col = chain, 0
            for mtype, body in answers:
                counters = tokens = 0
                while counters < r:
                    frame_type, _, frame = read_frame(rd)
                    if frame_type not in (MSG_XCOLUMN, MSG_XTOKENS):
                        return
                    tokens += len(frame) // 33
                    counters += len(frame) // 33 // (
                        1 if frame_type == MSG_XCOLUMN else width - col)
                rounds.append((frame_type, counters, tokens))
                send_frame(conn, mtype, body)
                r = bin(int.from_bytes(body, "little")).count("1")
                col += 1
            read_frame(rd)  # until the vetter hangs up

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread, rounds


ALL_UNDECIDED = (MSG_UNDECIDED, b"\xff\xff\x0f")  # every counter of the chain


@pytest.mark.parametrize("bitmap,error", [
    (b"\xff\xff", "a bitmap over 20 counters is 3 bytes; got 2"),
    (b"\xff\xff\x1f", "bits set past the round's 20"),
    (bytes(3), "no counter is undecided"),
], ids=["length", "past-the-round", "all-zero"])
def test_vetter_refuses_a_malformed_bitmap(cohort, bitmap, error):
    eq = encode_query(parse_query(cohort.where((1, False), (2, False)), "count"))
    listener, thread, rounds = _fake_server([(MSG_UNDECIDED, bitmap)], 2)
    try:
        with pytest.raises(ServiceError, match=f"malformed undecided bitmap: {error}"):
            execute_search(listener.getsockname(), cohort.keys, eq, timeout=10)
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        listener.close()
    assert rounds == [(MSG_XCOLUMN, CHAIN, CHAIN)]


def test_vetter_refuses_a_bitmap_after_a_row_round(cohort):
    eq = encode_query(parse_query(cohort.where((1, False), (2, False)), "count"))
    listener, thread, rounds = _fake_server([ALL_UNDECIDED] * 2, 2)
    try:
        with pytest.raises(ServiceError, match="malformed undecided bitmap: a row round"):
            execute_search(listener.getsockname(), cohort.keys, eq, timeout=10)
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        listener.close()
    assert rounds == [(MSG_XCOLUMN, CHAIN, CHAIN), (MSG_XTOKENS, CHAIN, CHAIN)]


def test_a_server_that_decides_nothing_gets_no_more_than_every_token(cohort):
    """Marked undecided after every column round, each counter still gets
    each column's token once, and the search ends within one round a
    column."""
    eq = encode_query(parse_query(cohort.where((1, False), (2, False), (3, True), (4, False)),
                                  "count"))
    width = len(eq.xterms)
    listener, thread, rounds = _fake_server(
        [ALL_UNDECIDED] * (width - 1) + [(MSG_RESULT, COUNT.pack(7))], width)
    stats = {}
    try:
        body = execute_search(listener.getsockname(), cohort.keys, eq, timeout=10, stats=stats)
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        listener.close()
    assert body == COUNT.pack(7)
    assert rounds == [(MSG_XCOLUMN, CHAIN, CHAIN)] * (width - 1) + [(MSG_XTOKENS, CHAIN, CHAIN)]
    assert stats == {"tokens": CHAIN * width, "rounds": width}


def test_a_lying_chain_length_cannot_outlast_the_deadline_in_column_rounds(cohort):
    listener = socket.create_server(("127.0.0.1", 0))
    types = []

    def lying_server():
        conn, _ = listener.accept()
        with conn:
            rd = conn.makefile("rb")
            read_frame(rd)
            send_frame(conn, MSG_STERM_COUNT, COUNT.pack(10**9))
            while True:
                try:
                    mtype, _, body = read_frame(rd)
                except (OSError, WireError):
                    return
                if not mtype:
                    return
                types.append((mtype, len(body)))

    thread = threading.Thread(target=lying_server, daemon=True)
    thread.start()
    try:
        eq = encode_query(parse_query(cohort.where((1, False), (2, False)), "boolean"))
        with pytest.raises(ServiceError, match="past its 0.5 s deadline"):
            execute_search(listener.getsockname(), cohort.keys, eq, timeout=0.5)
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        listener.close()
    assert types and set(types) == {(MSG_XCOLUMN, 8 * 33)}


# --- the audit line, a golden transcript -----------------------------------------------

def test_audit_counts_the_tokens_and_rounds_sent(monkeypatch, cohort, server, tmp_path):
    transcripts = []
    real = services.execute_search

    def recorded(*args, **kwargs):
        transcripts.append([])
        kwargs["on_frame"] = lambda d, t, b: transcripts[-1].append((d, t, b))
        return real(*args, **kwargs)

    monkeypatch.setattr(services, "execute_search", recorded)
    audit = tmp_path / "audit.log"
    vet = Vetter(("127.0.0.1", 0), cohort.keys, Policy({"alice": "clinician"}),
                 server.server_address, audit_path=audit)
    thread = threading.Thread(target=vet.serve_forever, daemon=True)
    thread.start()
    try:
        for qtype, terms, k_prime in QUERIES:
            mtype, _ = submit_query(vet.server_address, "alice", qtype, cohort.where(*terms),
                                    k_prime, timeout=30)
            assert mtype != services.MSG_ERROR
    finally:
        vet.shutdown()
        vet.server_close()
        thread.join(timeout=10)
    lines = audit.read_text().splitlines()
    assert len(lines) == len(transcripts) == len(QUERIES)
    for line, frames in zip(lines, transcripts):
        m = re.search(r" tokens=(\d+) rounds=(\d+) ms_total=\S+ ms_upstream=\S+$", line)
        assert m, line
        rounds = _token_rounds(frames)
        assert len(rounds) >= 2 and rounds[0][0] == MSG_XCOLUMN
        assert (int(m[1]), int(m[2])) == (sum(len(t) for _, t in rounds), len(rounds))


# SHA-256 of the on_frame transcript (direction, type, u32 length, body per
# frame) of a 3-column count over the 20-tuple chain: column rounds over 20
# and 12 counters, each in frames of at most 8, then a row round of the last
# column over 3.
COLUMN_GOLDEN = "6c78640f0a0536d8fe58efedccfe1faf4396ee7e82bac059b6dc1ea0f33a0fa7"


def test_column_round_transcript_matches_golden(cohort, server):
    where = cohort.where((1, False), (2, False), (5, False))
    eq = encode_query(parse_query(where, "count"))
    body, frames = _transcript(server.server_address, cohort.keys, eq)
    assert [(t, len(b)) for _, t, b in frames] == [
        (MSG_SEARCH_INIT, 29), (MSG_STERM_COUNT, 8),
        (MSG_XCOLUMN, 8 * 33), (MSG_XCOLUMN, 8 * 33), (MSG_XCOLUMN, 4 * 33), (MSG_UNDECIDED, 3),
        (MSG_XCOLUMN, 8 * 33), (MSG_XCOLUMN, 4 * 33), (MSG_UNDECIDED, 2),
        (MSG_XTOKENS, 3 * 33), (MSG_RESULT, 8)]
    assert _answer("count", body, eq, cohort.keys) == evaluate_plain(
        cohort.gdb, parse_query(where, "count"))
    transcript = b"".join(d.encode() + bytes([t]) + len(b).to_bytes(4, "little") + b
                          for d, t, b in frames)
    assert hashlib.sha256(transcript).hexdigest() == COLUMN_GOLDEN
