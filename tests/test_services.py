"""Wire protocol and the networked data-server / vetter deployment."""

import dataclasses
import hashlib
import io
import json
import re
import secrets
import socket
import struct
import threading
import time
import types

import pytest

from privgendb.encoding import encode_query, parse_query
from privgendb.crypto import IDENTITY
from privgendb.engine import Policy, decrypt_ids, run_query
from privgendb.index import TSet
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


# --- two-round search protocol details --------------------------------------------------

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
    assert set(init) == {"stag", "gamma"}
    assert len(b64d(init["stag"])) == 16 and init["gamma"] == 1
    count = json.loads(frames[1][2])
    assert set(count) == {"session", "count"}
    assert isinstance(count["session"], str) and count["count"] == 3
    tokens = json.loads(frames[2][2])
    assert set(tokens) == {"session", "start", "pos", "neg", "final"}
    assert tokens["session"] == count["session"]
    assert (tokens["start"], tokens["final"]) == (1, True)
    assert len(tokens["pos"]) == 3 and all(len(row) == 2 for row in tokens["pos"])
    assert all(len(b64d(t)) == 33 for row in tokens["pos"] for t in row)
    assert tokens["neg"] == [[], [], []]
    result = json.loads(frames[3][2])
    assert set(result) == {"session", "enc_ids"}
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
# (direction, type, u32 length, body per frame), with the session id fixed.
# Recorded when every frame was its own write, so they pin the bytes on the
# wire across the change to one write per round.
WIRE_GOLDENS = [
    ("boolean", "SNP2=CC, SNP4!=AG", None, 1,
     "411d1d90e579a8dbf490982ce887ed620903c089783b3f24a3de80ed0eb1e506",
     "e2f168e8c35206f49d4f6c528eb75d57f53c08d349f1cf7c9303af68b0104639"),
    ("match", "phenotype=Cancer B, SNP2=CC, SNP4=AG", 1, 2,
     "51029211866e79c5a2426b0d4d193d2c2d3d153609b03b5f8049089079850e7b",
     "e8815694b0af1989b0a81ac3265358667f094014fed74aceb7258db449c16acd"),
    ("count", "SNP2=CC", None, 256,
     "59cd967f1078ac770734ad47ceba341f2675d263539ef2e8a8752568c6fd981f",
     "eaa5c4ef3a4bb50e33311332c828fb8630604cc157dfa59a7f5722cc5f2ab4c3"),
]


@pytest.mark.parametrize("qtype,where,k_prime,batch,wire_sha,transcript_sha", WIRE_GOLDENS,
                         ids=[g[0] for g in WIRE_GOLDENS])
def test_wire_bytes_match_golden(monkeypatch, data_server, demo_keys, demo_freq,
                                 upstream_writes, qtype, where, k_prime, batch,
                                 wire_sha, transcript_sha):
    monkeypatch.setattr(secrets, "token_hex", lambda n=16: "5e" * n)
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
        assert srv.sessions == {}
        mtype, body = submit_query(vet.server_address, "alice", "boolean",
                                   "SNP2=CC, SNP4!=AG", timeout=10)
        assert mtype == MSG_ERROR and "unavailable" in body["error"]
        assert "outcome=error:upstream ms_total=" in audit.read_text()
        assert srv.sessions == {}
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
        assert srv.sessions == {}  # every session retired on its final batch
    finally:
        srv.shutdown()
        srv.server_close()


# --- data-server protocol robustness ---------------------------------------------------

def _init_frame(demo_keys, sterm="Cancer B", gamma=1, **extra):
    obj = {"stag": b64e(TSet.tag(demo_keys.k_t, sterm)), "gamma": gamma}
    obj.update(extra)
    return encode_frame(MSG_SEARCH_INIT, obj)


def test_server_rejects_unexpected_type(data_server):
    [(mtype, obj)] = _raw(data_server.server_address,
                          encode_frame(MSG_QUERY, {"user": "x"}))
    assert mtype == MSG_ERROR and "unexpected" in obj["error"]


def test_server_rejects_bad_gamma(data_server, demo_keys):
    [(mtype, obj)] = _raw(data_server.server_address,
                          _init_frame(demo_keys, gamma=7))
    assert mtype == MSG_ERROR and "gamma" in obj["error"]


def test_server_rejects_oversize_header(data_server):
    [(mtype, obj)] = _raw(data_server.server_address,
                          struct.pack("<IB", MAX_PAYLOAD + 9, MSG_SEARCH_INIT))
    assert mtype == MSG_ERROR and "bad frame" in obj["error"]


def test_server_rejects_out_of_order_batch(data_server, demo_keys):
    with socket.create_connection(data_server.server_address, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys))
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_STERM_COUNT and obj["count"] == 3
        send_frame(sock, MSG_XTOKENS, {"session": obj["session"], "start": 2,
                                       "pos": [[]], "neg": [[]], "final": True})
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_ERROR and "out-of-order" in obj["error"]


def test_server_rejects_unknown_session(data_server):
    frame = encode_frame(MSG_XTOKENS, {"session": "feedbeef", "start": 1,
                                       "pos": [[]], "neg": [[]], "final": True})
    [(mtype, obj)] = _raw(data_server.server_address, frame)
    assert mtype == MSG_ERROR and "session" in obj["error"]


def test_server_rejects_negations_in_match(data_server, demo_keys):
    with socket.create_connection(data_server.server_address, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys, gamma=3, k_prime=1))
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_STERM_COUNT
        tok = b64e(b"\x00" * 33)
        send_frame(sock, MSG_XTOKENS, {"session": obj["session"], "start": 1,
                                       "pos": [[]], "neg": [[tok]], "final": True})
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_ERROR and "negative" in obj["error"]


def test_server_rejects_malformed_group_element(data_server, demo_keys):
    with socket.create_connection(data_server.server_address, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys))
        mtype, obj, _ = read_frame(rd)
        junk = b64e(b"\x07" * 33)  # invalid prefix byte for a compressed point
        send_frame(sock, MSG_XTOKENS, {"session": obj["session"], "start": 1,
                                       "pos": [[junk]], "neg": [[]], "final": True})
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_ERROR and "group element" in obj["error"]


def test_protocol_error_drops_the_session(demo_egdb, demo_keys):
    srv = DataServer(("127.0.0.1", 0), demo_egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        junk = b64e(b"\x07" * 33)
        for final in (True, False):
            mtype, obj = _send_tokens(srv.server_address, demo_keys,
                                      [[junk], [], []], [[], [], []], final)
            assert mtype == MSG_ERROR and "group element" in obj["error"]
            assert len(srv.sessions) == 0
        # a good batch that is not final keeps its session for the next one
        # while the connection lasts; the connection's end drops it
        with socket.create_connection(srv.server_address, timeout=10) as sock:
            rd = sock.makefile("rb")
            sock.sendall(_init_frame(demo_keys))
            sid = read_frame(rd)[1]["session"]
            send_frame(sock, MSG_XTOKENS, {"session": sid, "start": 1,
                                           "pos": [[]], "neg": [[]], "final": False})
            assert _poll(lambda: sid in srv.sessions
                         and srv.sessions[sid].core.next_counter == 2)
            send_frame(sock, MSG_XTOKENS, {"session": [sid], "start": 2,
                                           "pos": [[]], "neg": [[]], "final": False})
            mtype, obj, _ = read_frame(rd)
            assert mtype == MSG_ERROR and "session" in obj["error"]
        assert _poll(lambda: not srv.sessions)
    finally:
        srv.shutdown()
        srv.server_close()


def _poll(cond, seconds: float = 5.0) -> bool:
    """Whether cond() holds within a few seconds; server threads act on their own."""
    deadline = time.monotonic() + seconds
    while not cond():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def test_abandoned_sessions_end_with_their_connections(monkeypatch, demo_egdb, demo_keys):
    # with 3 slots, a fourth init-and-close connection still gets a session
    monkeypatch.setattr(services, "MAX_SESSIONS", 3)
    srv = DataServer(("127.0.0.1", 0), demo_egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        for _ in range(4):
            with socket.create_connection(srv.server_address, timeout=10) as sock:
                sock.sendall(_init_frame(demo_keys))
                mtype, obj, _ = read_frame(sock.makefile("rb"))
                assert mtype == MSG_STERM_COUNT and obj["count"] == 3
                assert obj["session"] in srv.sessions
            assert _poll(lambda: len(srv.sessions) == 0)
    finally:
        srv.shutdown()
        srv.server_close()


def _send_tokens(addr, demo_keys, pos, neg, final=True):
    """Open a boolean search on the 3-tuple Cancer B chain and send one batch."""
    with socket.create_connection(addr, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys))
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_STERM_COUNT and obj["count"] == 3
        send_frame(sock, MSG_XTOKENS, {"session": obj["session"], "start": 1,
                                       "pos": pos, "neg": neg, "final": final})
        return read_frame(rd)[:2]


def test_server_rejects_unused_malformed_token_on_arrival(data_server, demo_keys):
    junk = b64e(b"\x07" * 33)
    # no Cancer B record is Cancer A, so the core stops at the first token
    miss = b64e(probe_tokens(demo_keys, "Cancer B", 1, "Cancer A")[0])
    mtype, obj = _send_tokens(data_server.server_address, demo_keys,
                              [[miss, junk], [], []], [[], [], []])
    assert mtype == MSG_ERROR and "group element" in obj["error"]
    # counter 4 is past the chain, so the core would never use this token
    mtype, obj = _send_tokens(data_server.server_address, demo_keys,
                              [[], [], [], [junk]], [[], [], [], []])
    assert mtype == MSG_ERROR and "group element" in obj["error"]
    mtype, obj = _send_tokens(data_server.server_address, demo_keys,
                              [[], [], []], [[b64e(b"\x02" * 32)], [], []])  # 32 bytes
    assert mtype == MSG_ERROR and "group element" in obj["error"]


@pytest.mark.parametrize("bad", [OFF_CURVE, IDENTITY.encode()], ids=["off-curve", "identity"])
def test_server_rejects_used_non_point(data_server, demo_keys, bad):
    mtype, obj = _send_tokens(data_server.server_address, demo_keys,
                              [[b64e(bad)], [], []], [[], [], []])
    assert mtype == MSG_ERROR and "group element" in obj["error"]


def test_live_sessions_are_capped(monkeypatch, demo_egdb, demo_keys):
    monkeypatch.setattr(services, "MAX_SESSIONS", 2)
    srv = DataServer(("127.0.0.1", 0), demo_egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()

    def open_session():
        sock = socket.create_connection(srv.server_address, timeout=10)
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys))
        mtype, obj, _ = read_frame(rd)
        return sock, rd, mtype, obj

    held = []
    try:
        for _ in range(2):
            sock, rd, mtype, obj = open_session()
            held.append((sock, rd, obj.get("session")))
            assert mtype == MSG_STERM_COUNT
        sock, _, mtype, obj = open_session()
        sock.close()
        assert mtype == MSG_ERROR and "too many open sessions" in obj["error"]
        assert len(srv.sessions) == 2
        # finishing one search frees its slot for the next
        sock, rd, sid = held.pop()
        send_frame(sock, MSG_XTOKENS, {"session": sid, "start": 1, "pos": [[]] * 3,
                                       "neg": [[]] * 3, "final": True})
        assert read_frame(rd)[0] == MSG_RESULT
        sock.close()
        sock, rd, mtype, obj = open_session()
        held.append((sock, rd, obj.get("session")))
        assert mtype == MSG_STERM_COUNT
        assert len(srv.sessions) == 2
    finally:
        for sock, _, _ in held:
            sock.close()
        srv.shutdown()
        srv.server_close()


def test_session_expiry(demo_egdb, demo_keys):
    srv = DataServer(("127.0.0.1", 0), demo_egdb, idle_timeout=0.05)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        with socket.create_connection(srv.server_address, timeout=10) as sock:
            rd = sock.makefile("rb")
            sock.sendall(_init_frame(demo_keys))
            mtype, obj, _ = read_frame(rd)
            assert mtype == MSG_STERM_COUNT
            sid = obj["session"]
            assert sid in srv.sessions
            time.sleep(0.15)
            send_frame(sock, MSG_XTOKENS, {"session": sid, "start": 1,
                                           "pos": [[]], "neg": [[]], "final": True})
            mtype, obj, _ = read_frame(rd)
            assert mtype == MSG_ERROR and "expired" in obj["error"]
        assert srv.sessions == {}
    finally:
        srv.shutdown()
        srv.server_close()
