"""Wire protocol and the networked data-server / vetter deployment."""

import dataclasses
import hashlib
import io
import json
import re
import socket
import struct
import threading
import time
import types

import pytest

from privgendb.encoding import encode_query, parse_query
from privgendb.crypto import IDENTITY, SeededRng
from privgendb.engine import Policy, decrypt_ids, run_query
from privgendb.index import TSet, build_egdb
from privgendb import services
from privgendb.services import (
    DataServer,
    ServiceError,
    Vetter,
    execute_search,
    parse_hostport,
    submit_query,
)
from privgendb.wire import (
    MAX_PAYLOAD,
    MSG_ANSWER,
    MSG_DENIED,
    MSG_ERROR,
    MSG_QUERY,
    MSG_RESULT,
    MSG_SEARCH_INIT,
    MSG_STERM_COUNT,
    MSG_XTOKENS,
    WireError,
    b64d,
    b64e,
    encode_frame,
    read_frame,
    send_frame,
)

from conftest import GOLDEN_COUNTS, GOLDEN_IDS, OFF_CURVE, probe_tokens


# --- framed JSON codec -------------------------------------------------------------

def test_frame_roundtrip():
    for mtype in range(1, 9):
        obj = {"n": mtype, "blob": b64e(bytes(range(mtype)))}
        frame = encode_frame(mtype, obj)
        got_type, got_obj, body = read_frame(io.BytesIO(frame))
        assert got_type == mtype and got_obj == obj
        assert json.loads(body) == obj


def test_frame_eof_and_garbage():
    assert read_frame(io.BytesIO(b""))[0] == 0
    with pytest.raises(WireError):
        read_frame(io.BytesIO(b"\x01\x02"))  # truncated header
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", 0, 1)))  # zero length
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", MAX_PAYLOAD + 1, 1)))
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", 3, 9) + b"{}"))  # unknown type
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", 3, 1) + b"{"))  # truncated body
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", 4, 1) + b"not"))  # not JSON
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", 4, 1) + b"[1]"))  # not an object
    with pytest.raises(WireError):
        encode_frame(0, {})


def test_b64_helpers():
    assert b64d(b64e(b"\x00\xffhello")) == b"\x00\xffhello"
    with pytest.raises(WireError):
        b64d("not base64!!")
    with pytest.raises(WireError):
        b64d(123)


def test_parse_hostport():
    assert parse_hostport("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_hostport("[::1]:80") == ("[::1]", 80)
    with pytest.raises(ValueError):
        parse_hostport("9000")
    with pytest.raises(ValueError):
        parse_hostport("host:notaport")


# --- live services -----------------------------------------------------------------

POLICY = Policy({"alice": "clinician", "bob": "analyst"}, threshold=3)


@pytest.fixture(scope="module")
def data_server(demo_egdb):
    srv = DataServer(("127.0.0.1", 0), demo_egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture(scope="module")
def audit_file(tmp_path_factory):
    return tmp_path_factory.mktemp("vetter") / "audit.log"


@pytest.fixture(scope="module")
def vetter(demo_keys, data_server, audit_file):
    srv = Vetter(("127.0.0.1", 0), demo_keys, POLICY,
                 data_server.server_address, audit_path=audit_file)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _raw(addr, payload: bytes, expect_frames: int = 1):
    """Push raw bytes at a server and read back up to expect_frames frames."""
    out = []
    with socket.create_connection(addr, timeout=10) as sock:
        sock.sendall(payload)
        rd = sock.makefile("rb")
        for _ in range(expect_frames):
            mtype, obj, _ = read_frame(rd)
            out.append((mtype, obj))
            if mtype in (0, MSG_ERROR):
                break
    return out


# --- end-to-end equivalence -----------------------------------------------------------

E2E_CASES = [
    ("count", "SNP2=CC", None),
    ("count", "phenotype=Cancer B, SNP2=CC, SNP3=CT", None),
    ("boolean", "phenotype=Cancer B, SNP2=CC, SNP4=AG", None),
    ("boolean", "phenotype=Cancer A, SNP1!=AG", None),
    ("match", "phenotype=Cancer B, SNP2=CC, SNP4=AG", 1),
    ("match", "id=7, SNP2=CC, SNP3=CT, SNP4=AG", 2),
]


@pytest.mark.parametrize("qtype,where,k_prime", E2E_CASES)
def test_tcp_matches_in_process(vetter, demo_keys, demo_egdb, demo_freq,
                                qtype, where, k_prime):
    expected = run_query(demo_keys, demo_egdb,
                         parse_query(where, qtype, k_prime), demo_freq)
    mtype, body = submit_query(vetter.server_address, "alice", qtype, where, k_prime)
    if qtype == "count":
        if expected < POLICY.threshold:
            assert mtype == MSG_DENIED and body["reason"] == "threshold"
        else:
            assert (mtype, body["count"]) == (MSG_ANSWER, expected)
    else:
        assert (mtype, body["ids"]) == (MSG_ANSWER, expected)


def test_networked_search_matches_in_process_goldens(data_server, demo_keys, demo_egdb,
                                                    demo_freq):
    cases = [("count", where, None, n) for where, n in GOLDEN_COUNTS] + GOLDEN_IDS
    for qtype, where, k_prime, expected in cases:
        query = parse_query(where, qtype, k_prime)
        eq = encode_query(query, demo_freq)
        res = execute_search(data_server.server_address, demo_keys, eq)
        if qtype == "count":
            networked = res.count
        else:
            networked = decrypt_ids(res.enc_ids, eq.sterm, demo_keys)
        assert networked == run_query(demo_keys, demo_egdb, query, demo_freq) == expected


def test_threshold_denial(vetter):
    # true count is 2, below the release threshold of 3
    mtype, body = submit_query(vetter.server_address, "alice", "count",
                               "phenotype=Cancer B, SNP2=CC, SNP4=AG")
    assert mtype == MSG_DENIED
    assert body["reason"] == "threshold"
    assert "count" not in body  # the withheld number must not leak


@pytest.mark.parametrize("user,qtype,where,reason", [
    ("bob", "boolean", "SNP2=CC", "auth"),
    ("bob", "match", "SNP2=CC, SNP3=TT", "auth"),
    ("mallory", "count", "SNP2=CC", "auth"),
    ("alice", "drop", "SNP2=CC", "auth"),
    ("alice", "boolean", "SNP0=ZZ", "parse"),
    ("alice", "boolean", "", "parse"),
    ("alice", "match", "SNP2=CC, SNP3=TT", "parse"),  # missing k_prime
])
def test_vetter_denials(vetter, user, qtype, where, reason):
    mtype, body = submit_query(vetter.server_address, user, qtype, where)
    assert mtype == MSG_DENIED
    assert body["reason"] == reason
    assert body["detail"]


def test_vetter_rejects_non_integer_k_prime(vetter):
    mtype, body = submit_query(vetter.server_address, "alice", "match",
                               "SNP2=CC, SNP3=TT", k_prime="one")
    assert mtype == MSG_DENIED and body["reason"] == "parse"


def test_analyst_count_allowed(vetter):
    mtype, body = submit_query(vetter.server_address, "bob", "count", "SNP2=CC")
    assert (mtype, body["count"]) == (MSG_ANSWER, 5)


def test_audit_log_written(vetter, audit_file):
    submit_query(vetter.server_address, "bob", "count", "SNP2=CC")
    submit_query(vetter.server_address, "bob", "boolean", "SNP2=CC")
    text = audit_file.read_text()
    assert "user='bob' type=count" in text and "answered:count=5" in text
    assert "denied:auth" in text
    answered = [line for line in text.splitlines() if "outcome=answered:" in line]
    assert answered
    for line in answered:
        m = re.search(r" ms_total=(\S+) ms_upstream=(\S+)$", line)
        assert m, line
        ms_total, ms_upstream = float(m[1]), float(m[2])
        assert 0 <= ms_upstream <= ms_total


def test_vetter_upstream_unavailable(demo_keys, tmp_path):
    dead = ("127.0.0.1", 1)  # nothing listens there
    srv = Vetter(("127.0.0.1", 0), demo_keys, POLICY, dead)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        mtype, body = submit_query(srv.server_address, "alice", "count", "SNP2=CC")
        assert mtype == MSG_ERROR
        assert "unavailable" in body["error"]
    finally:
        srv.shutdown()
        srv.server_close()


# --- search protocol details ------------------------------------------------------------

def test_transcript_shape_and_leakage(data_server, demo_keys, demo_freq):
    eq = encode_query(parse_query("phenotype=Cancer B, SNP2=CC, SNP4=AG", "boolean"),
                      demo_freq)
    frames = []
    res = execute_search(data_server.server_address, demo_keys, eq,
                         on_frame=lambda d, t, b: frames.append((d, t, b)))
    assert [(d, t) for d, t, _ in frames] == [
        ("send", MSG_SEARCH_INIT),
        ("recv", MSG_STERM_COUNT),
        ("send", MSG_XTOKENS),
        ("recv", MSG_RESULT),
    ]
    # every field of every frame fits a fixed schema of opaque values, so no
    # slot exists for query plaintext, keywords, or record ids to travel in
    init = json.loads(frames[0][2])
    assert set(init) == {"stag", "gamma", "n_pos", "n_neg"}
    assert len(b64d(init["stag"])) == 16 and init["gamma"] == 1
    assert (init["n_pos"], init["n_neg"]) == (2, 0)
    count = json.loads(frames[1][2])
    assert count == {"count": 3}
    tokens = json.loads(frames[2][2])
    assert set(tokens) == {"start", "pos", "neg", "final"}
    assert (tokens["start"], tokens["final"]) == (1, True)
    # each row holds exactly the tokens round one declared
    assert len(tokens["pos"]) == 3 and all(len(row) == init["n_pos"] for row in tokens["pos"])
    assert all(len(b64d(t)) == 33 for row in tokens["pos"] for t in row)
    assert len(tokens["neg"]) == 3 and all(len(row) == init["n_neg"] for row in tokens["neg"])
    result = json.loads(frames[3][2])
    assert set(result) == {"enc_ids"}
    assert all(len(b64d(e)) == 36 for e in result["enc_ids"])
    # a space never occurs in base64, so the multi-word keyword is checkable raw
    assert b"Cancer B" not in b"".join(b for _, _, b in frames)
    assert len(res.enc_ids) == 2


@pytest.fixture
def upstream_writes(monkeypatch, data_server):
    """Every sendall on a connection to the shared data server, as bytes."""
    writes = []
    real = socket.socket.sendall

    def spy(sock, data, *args):
        if sock.getpeername() == data_server.server_address:
            writes.append(bytes(data))
        return real(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", spy)
    return writes


@pytest.mark.parametrize("qtype,where,expected", [
    ("count", "SNP2=CC", 5),
    ("boolean", "phenotype=Cancer B", [2, 5, 7]),
])
def test_cross_term_free_search_ends_in_round_one(data_server, demo_keys, demo_freq,
                                                  upstream_writes, qtype, where, expected):
    eq = encode_query(parse_query(where, qtype), demo_freq)
    frames = []
    res = execute_search(data_server.server_address, demo_keys, eq,
                         on_frame=lambda d, t, b: frames.append((d, t, b)))
    assert [(d, t) for d, t, _ in frames] == [("send", MSG_SEARCH_INIT), ("recv", MSG_RESULT)]
    assert len(upstream_writes) == 1
    init = json.loads(frames[0][2])
    assert (init["n_pos"], init["n_neg"]) == (0, 0)
    if qtype == "count":
        assert json.loads(frames[1][2]) == {"count": expected} and res.count == expected
    else:
        assert decrypt_ids(res.enc_ids, eq.sterm, demo_keys) == expected


def test_small_batches_equal_one_shot(data_server, demo_keys, demo_egdb, demo_freq,
                                     upstream_writes):
    eq = encode_query(parse_query("SNP2=CC, SNP4!=AG", "boolean"), demo_freq)
    one = execute_search(data_server.server_address, demo_keys, eq)
    upstream_writes.clear()
    trickle_frames = []
    trickle = execute_search(data_server.server_address, demo_keys, eq, batch=1,
                             on_frame=lambda d, t, b: trickle_frames.append(t))
    assert one.enc_ids == trickle.enc_ids
    assert trickle_frames.count(MSG_XTOKENS) == 5  # 5 tuples, one per batch
    assert len(upstream_writes) == 2  # yet one write per round


# SHA-256 of the bytes the vetter side wrote, and of the on_frame transcript
# (direction, type, u32 length, body per frame). They equal the earlier
# transcripts with the session ids taken out, the cross-term counts put in
# the init frame, and the count's round two dropped, as it has no cross-terms.
WIRE_GOLDENS = [
    ("boolean", "SNP2=CC, SNP4!=AG", None, 1,
     "c786577b11129908eb15e72aa636fff9c4730e9f7bc98847931f7a803c8cd220",
     "7f0fe7b8c8d0d8ced9ec415ede9fe6e4bbd1295ec354d7c3f7a414cebe37236b"),
    ("match", "phenotype=Cancer B, SNP2=CC, SNP4=AG", 1, 2,
     "d611a8634406bfa53f2ef9ebc21865859fc89ca99c8de6b26ed66c13b85708fe",
     "af73bfa028ec235be7930f9a9e7aae993e4be05769cbe1e649283ab9451b482c"),
    ("count", "SNP2=CC", None, 256,
     "506f6e93b92894ed888a38924b45a4ec01dd1e9f9d996767cd6550404b151dd4",
     "9251a678754eea30eae37714a4838b8d78ed4eb02bbc41d4bbd0a9d182a6cd59"),
]


@pytest.mark.parametrize("qtype,where,k_prime,batch,wire_sha,transcript_sha", WIRE_GOLDENS,
                         ids=[g[0] for g in WIRE_GOLDENS])
def test_wire_bytes_match_golden(data_server, demo_keys, demo_freq, upstream_writes,
                                 qtype, where, k_prime, batch, wire_sha, transcript_sha):
    eq = encode_query(parse_query(where, qtype, k_prime), demo_freq)
    frames = []
    execute_search(data_server.server_address, demo_keys, eq, batch=batch,
                   on_frame=lambda d, t, b: frames.append((d, t, b)))
    transcript = b"".join(d.encode() + bytes([t]) + len(b).to_bytes(4, "little") + b
                          for d, t, b in frames)
    assert hashlib.sha256(b"".join(upstream_writes)).hexdigest() == wire_sha
    assert hashlib.sha256(transcript).hexdigest() == transcript_sha


def test_nagle_is_off_on_every_connection(monkeypatch, vetter, data_server):
    nodelay = {}
    real = socket.socket.sendall

    def spy(sock, data, *args):
        ends = {"peer": sock.getpeername(), "local": sock.getsockname()}
        for end, addr in ends.items():
            for name, srv in (("vetter", vetter), ("server", data_server)):
                if addr == srv.server_address:
                    nodelay[(end, name)] = sock.getsockopt(socket.IPPROTO_TCP,
                                                           socket.TCP_NODELAY)
        return real(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", spy)
    mtype, _ = submit_query(vetter.server_address, "alice", "count", "SNP2=CC")
    assert mtype == MSG_ANSWER
    # submit_query's socket, the vetter's upstream socket, and the
    # connection each server accepted
    assert set(nodelay) == {("peer", "vetter"), ("peer", "server"),
                            ("local", "vetter"), ("local", "server")}
    assert all(nodelay.values()), nodelay


def test_rejected_first_batch_of_a_coalesced_stream_fails_cleanly(
        monkeypatch, demo_egdb, demo_keys, demo_freq, tmp_path):
    real = services.generate_token

    def off_curve_at_counter_1(eq, keys, inv_len):
        token = real(eq, keys, inv_len)
        bad = types.SimpleNamespace(encode=lambda: OFF_CURVE)
        return dataclasses.replace(token, neg=((bad,) * len(token.neg[0]),) + token.neg[1:])

    monkeypatch.setattr(services, "generate_token", off_curve_at_counter_1)
    srv = DataServer(("127.0.0.1", 0), demo_egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    audit = tmp_path / "audit.log"
    vet = Vetter(("127.0.0.1", 0), demo_keys, POLICY, srv.server_address,
                 audit_path=audit, batch=1)
    threading.Thread(target=vet.serve_forever, daemon=True).start()
    try:
        # 5 one-counter batches in one write; the server refuses the first
        eq = encode_query(parse_query("SNP2=CC, SNP4!=AG", "boolean"), demo_freq)
        with pytest.raises((ServiceError, OSError)) as err:
            execute_search(srv.server_address, demo_keys, eq, batch=1, timeout=10)
        if isinstance(err.value, ServiceError):
            assert "group element at counter 1" in str(err.value)
        mtype, body = submit_query(vet.server_address, "alice", "boolean",
                                   "SNP2=CC, SNP4!=AG", timeout=10)
        assert mtype == MSG_ERROR and "unavailable" in body["error"]
        assert "outcome=error:upstream ms_total=" in audit.read_text()
        # the refused searches took nothing with them: a new one is answered
        eq = encode_query(parse_query("SNP2=CC", "count"))
        assert execute_search(srv.server_address, demo_keys, eq, timeout=10).count == 5
    finally:
        vet.shutdown()
        vet.server_close()
        srv.shutdown()
        srv.server_close()


def test_count_zero_still_answers(data_server, demo_keys):
    eq = encode_query(parse_query("phenotype=Nothing Here", "count"))
    res = execute_search(data_server.server_address, demo_keys, eq)
    assert res.count == 0


def test_concurrent_searches(demo_egdb, demo_keys, demo_freq):
    srv = DataServer(("127.0.0.1", 0), demo_egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        queries = [
            ("boolean", "phenotype=Cancer B, SNP2=CC", None, [2, 5]),
            ("count", "SNP2=CC", None, 5),
            ("match", "phenotype=Cancer B, SNP2=CC, SNP4=AG", 1, [2, 5, 7]),
        ] * 3
        results = [None] * len(queries)

        def work(i, qtype, where, k):
            eq = encode_query(parse_query(where, qtype, k), demo_freq)
            res = execute_search(srv.server_address, demo_keys, eq, batch=2)
            results[i] = res.count if qtype == "count" else len(res.enc_ids)

        threads = [threading.Thread(target=work, args=(i, q, w, k))
                   for i, (q, w, k, _) in enumerate(queries)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        expected = [e if isinstance(e, int) else len(e) for _, _, _, e in queries]
        assert results == expected
    finally:
        srv.shutdown()
        srv.server_close()


# --- data-server protocol robustness ---------------------------------------------------

def _init_frame(demo_keys, sterm="Cancer B", gamma=1, n_pos=1, n_neg=0, **extra):
    """A search init; a field given as None is left out."""
    obj = {"stag": b64e(TSet.tag(demo_keys.k_t, sterm)), "gamma": gamma,
           "n_pos": n_pos, "n_neg": n_neg, **extra}
    return encode_frame(MSG_SEARCH_INIT, {k: v for k, v in obj.items() if v is not None})


def _hits(demo_keys, counters=3):
    """Tokens that hit on every tuple of the Cancer B chain, base64-encoded."""
    return [b64e(t) for t in probe_tokens(demo_keys, "Cancer B", counters, "Cancer B")]


def test_server_rejects_unexpected_type(data_server):
    [(mtype, obj)] = _raw(data_server.server_address,
                          encode_frame(MSG_QUERY, {"user": "x"}))
    assert mtype == MSG_ERROR and "unexpected" in obj["error"]


def test_server_rejects_bad_gamma(data_server, demo_keys):
    [(mtype, obj)] = _raw(data_server.server_address,
                          _init_frame(demo_keys, gamma=7))
    assert mtype == MSG_ERROR and "gamma" in obj["error"]


@pytest.mark.parametrize("counts", [
    {"n_pos": None}, {"n_neg": None}, {"n_pos": -1}, {"n_neg": -1},
    {"n_pos": True}, {"n_neg": False}, {"n_pos": 1.0}, {"n_neg": "0"}, {"n_pos": [1]},
], ids=["pos-missing", "neg-missing", "pos-negative", "neg-negative", "pos-bool",
        "neg-bool", "pos-float", "neg-string", "pos-list"])
def test_server_rejects_bad_cross_term_counts(data_server, demo_keys, counts):
    [(mtype, obj)] = _raw(data_server.server_address, _init_frame(demo_keys, **counts))
    assert mtype == MSG_ERROR and "n_pos and n_neg" in obj["error"]


def test_server_rejects_oversize_header(data_server):
    [(mtype, obj)] = _raw(data_server.server_address,
                          struct.pack("<IB", MAX_PAYLOAD + 9, MSG_SEARCH_INIT))
    assert mtype == MSG_ERROR and "bad frame" in obj["error"]


def test_server_rejects_out_of_order_batch(data_server, demo_keys):
    with socket.create_connection(data_server.server_address, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys))
        mtype, obj, _ = read_frame(rd)
        assert (mtype, obj) == (MSG_STERM_COUNT, {"count": 3})
        send_frame(sock, MSG_XTOKENS, {"start": 2, "pos": [_hits(demo_keys, 1)],
                                       "neg": [[]], "final": True})
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_ERROR and "out-of-order" in obj["error"]


def test_server_rejects_unknown_session(data_server, demo_keys):
    # search state lives on its connection: a batch on a connection with no
    # open search is refused, even while another connection has one open
    addr = data_server.server_address
    batch = encode_frame(MSG_XTOKENS, {"start": 1, "pos": [_hits(demo_keys, 1)],
                                       "neg": [[]], "final": True})
    with socket.create_connection(addr, timeout=10) as other:
        other.sendall(_init_frame(demo_keys))
        assert read_frame(other.makefile("rb"))[0] == MSG_STERM_COUNT
        [(mtype, obj)] = _raw(addr, batch)
        assert mtype == MSG_ERROR and "without an open search" in obj["error"]
    # a search that round one answered takes no batch
    [(mtype, _), (mtype2, obj)] = _raw(addr, _init_frame(demo_keys, n_pos=0) + batch, 2)
    assert (mtype, mtype2) == (MSG_RESULT, MSG_ERROR)
    assert "without an open search" in obj["error"]
    # and a connection opens one search at a time
    [(mtype, _), (mtype2, obj)] = _raw(addr, _init_frame(demo_keys) * 2, 2)
    assert (mtype, mtype2) == (MSG_STERM_COUNT, MSG_ERROR)
    assert "already open" in obj["error"]


def test_server_rejects_negations_in_match(data_server, demo_keys):
    addr = data_server.server_address
    [(mtype, obj)] = _raw(addr, _init_frame(demo_keys, gamma=3, n_neg=1, k_prime=1))
    assert mtype == MSG_ERROR and "negative" in obj["error"]
    # declared without them, a negative token breaks the declared row width
    mtype, obj = _send_tokens(addr, demo_keys, [[h] for h in _hits(demo_keys)],
                              [[_hits(demo_keys, 1)[0]], [], []], gamma=3, k_prime=1,
                              n_neg=0)
    assert mtype == MSG_ERROR and "0 declared tokens" in obj["error"]


def test_server_rejects_token_rows_of_undeclared_width(data_server, demo_keys):
    addr = data_server.server_address
    h1, h2, h3 = _hits(demo_keys)
    for pos in ([[h1, h1], [h2], [h3]], [[h1], [], [h3]], [[h1], [h2], h3]):
        mtype, obj = _send_tokens(addr, demo_keys, pos, [[], [], []], n_pos=1)
        assert mtype == MSG_ERROR and "1 declared tokens" in obj["error"]
    # the same search at the declared width is answered
    mtype, obj = _send_tokens(addr, demo_keys, [[h1], [h2], [h3]], [[], [], []])
    assert mtype == MSG_RESULT and len(obj["enc_ids"]) == 3


def test_server_rejects_malformed_group_element(data_server, demo_keys):
    with socket.create_connection(data_server.server_address, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys))
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_STERM_COUNT
        junk = b64e(b"\x07" * 33)  # invalid prefix byte for a compressed point
        send_frame(sock, MSG_XTOKENS, {"start": 1, "pos": [[junk]], "neg": [[]],
                                       "final": True})
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_ERROR and "group element" in obj["error"]


def test_server_reports_a_corrupt_chain_in_round_one(demo_keys, demo_iinx):
    egdb = build_egdb(demo_keys, demo_iinx, SeededRng(1102))
    table = egdb.tset.table
    for label, body in table.items():  # every flag byte unmasks to an invalid flag
        table[label] = bytes([body[0] ^ 0x80]) + body[1:]
    srv = DataServer(("127.0.0.1", 0), egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        for qtype, where in (("count", "SNP2=CC"), ("boolean", "phenotype=Cancer B")):
            eq = encode_query(parse_query(where, qtype))
            with pytest.raises(ServiceError, match="index corrupt: .*flag byte"):
                execute_search(srv.server_address, demo_keys, eq, timeout=10)
    finally:
        srv.shutdown()
        srv.server_close()


def test_protocol_error_drops_the_session(data_server, demo_keys):
    addr = data_server.server_address
    junk = b64e(b"\x07" * 33)
    h1, h2, h3 = _hits(demo_keys)
    # a failed batch, final or not, ends its search and its connection
    for final in (True, False):
        with socket.create_connection(addr, timeout=10) as sock:
            rd = sock.makefile("rb")
            sock.sendall(_init_frame(demo_keys))
            assert read_frame(rd)[0] == MSG_STERM_COUNT
            send_frame(sock, MSG_XTOKENS, {"start": 1, "pos": [[junk], [h2], [h3]],
                                           "neg": [[], [], []], "final": final})
            mtype, obj, _ = read_frame(rd)
            assert mtype == MSG_ERROR and "group element" in obj["error"]
            assert read_frame(rd)[0] == 0  # the server hung up
    # a good batch that is not final keeps the search open for the next one
    # while the connection lasts, and the connection then runs its next search
    with socket.create_connection(addr, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys))
        assert read_frame(rd)[0] == MSG_STERM_COUNT
        send_frame(sock, MSG_XTOKENS, {"start": 1, "pos": [[h1]], "neg": [[]],
                                       "final": False})
        send_frame(sock, MSG_XTOKENS, {"start": 2, "pos": [[h2], [h3]], "neg": [[], []],
                                       "final": True})
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_RESULT and len(obj["enc_ids"]) == 3
        sock.sendall(_init_frame(demo_keys, n_pos=0))
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_RESULT and len(obj["enc_ids"]) == 3


def _poll(cond, seconds: float = 5.0) -> bool:
    """Whether cond() holds within a few seconds; server threads act on their own."""
    deadline = time.monotonic() + seconds
    while not cond():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _chain_count(addr, demo_keys):
    """Open a search on a new connection and close it; the reported chain
    length, or None if the server refused the connection."""
    try:
        with socket.create_connection(addr, timeout=10) as sock:
            sock.sendall(_init_frame(demo_keys))
            mtype, obj, _ = read_frame(sock.makefile("rb"))
    except OSError:  # refused: the server may reset a connection it never read
        return None
    return obj["count"] if mtype == MSG_STERM_COUNT else None


@pytest.fixture
def small_server(monkeypatch, demo_egdb):
    """A data server that serves at most two connections at once."""
    monkeypatch.setattr(services, "MAX_CONNECTIONS", 2)
    srv = DataServer(("127.0.0.1", 0), demo_egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    yield srv
    srv.shutdown()
    srv.server_close()


def test_abandoned_sessions_end_with_their_connections(small_server, demo_keys):
    # each init-and-close connection frees its slot for the next
    for _ in range(5):
        assert _poll(lambda: _chain_count(small_server.server_address, demo_keys) == 3)


def _send_tokens(addr, demo_keys, pos, neg, final=True, **init):
    """Open a search on the 3-tuple Cancer B chain and send one batch.

    The search is a boolean that declares the widths of the first rows,
    unless ``init`` says otherwise.
    """
    init = {"n_pos": len(pos[0]), "n_neg": len(neg[0]), **init}
    with socket.create_connection(addr, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys, **init))
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_STERM_COUNT and obj["count"] == 3
        send_frame(sock, MSG_XTOKENS, {"start": 1, "pos": pos, "neg": neg, "final": final})
        return read_frame(rd)[:2]


def test_server_rejects_unused_malformed_token_on_arrival(data_server, demo_keys):
    addr = data_server.server_address
    junk = b64e(b"\x07" * 33)
    h1, h2, h3 = _hits(demo_keys)
    # no Cancer B record is Cancer A, so the core stops at the first token
    miss = b64e(probe_tokens(demo_keys, "Cancer B", 1, "Cancer A")[0])
    mtype, obj = _send_tokens(addr, demo_keys, [[miss, junk], [h2, h2], [h3, h3]],
                              [[], [], []])
    assert mtype == MSG_ERROR and "group element" in obj["error"]
    # counter 4 is past the chain, so the core would never use this token
    mtype, obj = _send_tokens(addr, demo_keys, [[h1], [h2], [h3], [junk]],
                              [[], [], [], []])
    assert mtype == MSG_ERROR and "group element" in obj["error"]
    mtype, obj = _send_tokens(addr, demo_keys, [[], [], []],
                              [[b64e(b"\x02" * 32)], [h2], [h3]])  # 32 bytes
    assert mtype == MSG_ERROR and "group element" in obj["error"]


@pytest.mark.parametrize("bad", [OFF_CURVE, IDENTITY.encode()], ids=["off-curve", "identity"])
def test_server_rejects_used_non_point(data_server, demo_keys, bad):
    _, h2, h3 = _hits(demo_keys)
    mtype, obj = _send_tokens(data_server.server_address, demo_keys,
                              [[b64e(bad)], [h2], [h3]], [[], [], []])
    assert mtype == MSG_ERROR and "group element" in obj["error"]


def test_live_sessions_are_capped(small_server, demo_keys):
    addr = small_server.server_address
    held = []
    try:
        for _ in range(2):
            sock = socket.create_connection(addr, timeout=10)
            rd = sock.makefile("rb")
            held.append((sock, rd))
            sock.sendall(_init_frame(demo_keys))
            assert read_frame(rd)[0] == MSG_STERM_COUNT
        # a third connection is refused before it sends anything, then closed
        with socket.create_connection(addr, timeout=10) as sock:
            rd = sock.makefile("rb")
            mtype, obj, _ = read_frame(rd)
            assert mtype == MSG_ERROR and "too many connections (limit 2)" in obj["error"]
            assert read_frame(rd)[0] == 0
        # a finished search keeps its connection's slot; closing frees it
        sock, rd = held.pop()
        send_frame(sock, MSG_XTOKENS, {"start": 1, "pos": [[h] for h in _hits(demo_keys)],
                                       "neg": [[]] * 3, "final": True})
        assert read_frame(rd)[0] == MSG_RESULT
        assert _chain_count(addr, demo_keys) is None
        rd.close()
        sock.close()
        assert _poll(lambda: _chain_count(addr, demo_keys) == 3)
    finally:
        for sock, rd in held:
            rd.close()
            sock.close()


def test_session_expiry(monkeypatch, small_server, demo_keys):
    # the handler's socket timeout is the idle bound: it ends an idle
    # connection and the search open on it, and frees the connection's slot
    monkeypatch.setattr(services._DataHandler, "timeout", 0.1)
    addr = small_server.server_address
    with socket.create_connection(addr, timeout=10) as sock, \
            socket.create_connection(addr, timeout=10) as other:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys))
        assert read_frame(rd)[0] == MSG_STERM_COUNT
        t0 = time.monotonic()
        assert read_frame(rd)[0] == 0  # the server hung up
        assert time.monotonic() - t0 < 5
        assert read_frame(other.makefile("rb"))[0] == 0  # idle from the start
    assert _poll(lambda: _chain_count(addr, demo_keys) == 3)
