"""Wire protocol and the networked data-server / vetter deployment."""

import base64
import hashlib
import io
import json
import os
import pathlib
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from privgendb.encoding import encode_query, parse_gdb, parse_query
from privgendb.crypto import ENC_ID_LEN, IDENTITY, SeededRng, keygen
from privgendb.engine import Policy, SearchCore, decrypt_ids, generate_token, run_query
from privgendb.index import (
    TSet,
    build_egdb,
    build_inverted_index,
    keyword_frequencies,
    serialize_egdb,
)
from privgendb import engine, services, wire
from privgendb.services import (
    DataServer,
    ServiceError,
    Vetter,
    execute_search,
    format_hostport,
    parse_hostport,
    submit_query,
)
from privgendb.wire import (
    COUNT,
    INIT_FIELDS,
    MAX_PAYLOAD,
    MSG_ANSWER,
    MSG_DENIED,
    MSG_ERROR,
    MSG_QUERY,
    MSG_RESULT,
    MSG_SEARCH_INIT,
    MSG_STERM_COUNT,
    MSG_UNDECIDED,
    MSG_XCOLUMN,
    MSG_XTOKENS,
    RAW_TYPES,
    WireError,
    encode_frame,
    read_frame,
    send_frame,
)

from conftest import GOLDEN_COUNTS, GOLDEN_IDS, OFF_CURVE, _pack, init_body, probe_tokens
from oracle import SyntheticSpec, evaluate_plain, gen_synthetic


# --- frame codec ----------------------------------------------------------------------

def test_frame_roundtrip():
    for mtype in range(1, 11):
        obj = {"n": mtype, "text": "é" * mtype}
        if mtype in RAW_TYPES:  # the search frames, whose bodies are raw bytes
            obj = b"\xff\x00{" * (mtype + 10)
        frame = encode_frame(mtype, obj)
        got_type, got_obj, body = read_frame(io.BytesIO(frame))
        assert got_type == mtype and got_obj == obj
        assert (body if mtype in RAW_TYPES else json.loads(body)) == obj
    for mtype in RAW_TYPES:
        assert read_frame(io.BytesIO(encode_frame(mtype, b"")))[1:] == (b"", b"")


def test_frame_eof_and_garbage(monkeypatch):
    assert read_frame(io.BytesIO(b""))[0] == 0
    with pytest.raises(WireError):
        read_frame(io.BytesIO(b"\x01\x02"))  # truncated header
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", 0, 1)))  # zero length
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", MAX_PAYLOAD + 1, 1)))
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", 3, 11) + b"{}"))  # unknown type
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", 3, 1) + b"{"))  # truncated body
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", 4, MSG_QUERY) + b"not"))  # not JSON
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", 4, MSG_ERROR) + b"[1]"))  # not an object
    with pytest.raises(WireError):
        read_frame(io.BytesIO(struct.pack("<IB", 34, MSG_XTOKENS) + b"\x02" * 32))
    with pytest.raises(WireError):
        encode_frame(0, {})
    monkeypatch.setattr(wire, "MAX_PAYLOAD", 100)
    encode_frame(MSG_XTOKENS, bytes(99))
    with pytest.raises(WireError, match="too large"):
        encode_frame(MSG_XTOKENS, bytes(100))


def test_parse_hostport():
    assert parse_hostport("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_hostport("[::1]:80") == ("::1", 80)  # as getaddrinfo takes it
    assert parse_hostport("[fe80::1%eth0]:80") == ("fe80::1%eth0", 80)
    for bad in ("9000", "[]:80", ":80"):
        with pytest.raises(ValueError, match="host:port"):
            parse_hostport(bad)
    with pytest.raises(ValueError):
        parse_hostport("host:notaport")
    assert parse_hostport("h:0") == ("h", 0) and parse_hostport("h:65535") == ("h", 65535)
    for port in ("65536", "70000", "-1"):
        with pytest.raises(ValueError, match="port must be 0-65535"):
            parse_hostport(f"127.0.0.1:{port}")


_SERVE_AND_REPORT = """
import atexit, sys
from privgendb.cli import main

atexit.register(lambda: print(*sorted(m for m in sys.modules if m.startswith("cryptography"))))
sys.exit(main(["server", "--egdb", sys.argv[1], "--listen", "127.0.0.1:0"]))
"""


def test_serving_data_server_never_loads_cryptography(tmp_path, demo_egdb, demo_keys,
                                                      demo_freq):
    """A data server started through ``privgendb server`` loads an .egdb and
    answers a two-round search without importing ``cryptography`` or mapping
    its statically linked OpenSSL: its tuple-set AES runs in the system's."""
    egdb_path = tmp_path / "demo.egdb"
    with open(egdb_path, "wb") as fh:
        serialize_egdb(demo_egdb, fh)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(services.__file__).parents[1]),
               PRIVGENDB_LOG="INFO")
    proc = subprocess.Popen([sys.executable, "-c", _SERVE_AND_REPORT, str(egdb_path)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        start = re.search(r"data server on ([\d.]+):(\d+)", proc.stderr.readline())
        assert start, "the server printed no start line"
        eq = encode_query(parse_query("phenotype=Cancer B, SNP2=CC, SNP4=AG", "boolean"),
                          demo_freq)
        frames = []
        res = execute_search((start[1], int(start[2])), demo_keys, eq,
                             on_frame=lambda d, t, b: frames.append(t))
        assert frames == [MSG_SEARCH_INIT, MSG_STERM_COUNT, MSG_XTOKENS, MSG_RESULT]
        assert decrypt_ids(res, eq.sterm, demo_keys) == [2, 5]
        if sys.platform.startswith("linux"):
            maps = pathlib.Path(f"/proc/{proc.pid}/maps").read_text()
            assert "cryptography" not in maps
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert out.strip() == "", f"cryptography modules loaded: {out}"


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
            networked = COUNT.unpack(res)[0]
        else:
            networked = decrypt_ids(res, eq.sterm, demo_keys)
        assert networked == run_query(demo_keys, demo_egdb, query, demo_freq) == expected


def test_streamed_search_is_the_same_for_any_frame_size(monkeypatch):
    """Chains of 16-25 tuples, so most frame sizes split them unevenly."""
    gdb = parse_gdb(gen_synthetic(SyntheticSpec.uniform(
        60, 4, [("Cohort", 16), ("Background", 44)], seed=13)))
    keys = keygen(rng=SeededRng(13))
    egdb = build_egdb(keys, build_inverted_index(gdb), SeededRng(14))
    freq = keyword_frequencies(gdb)
    g = next(rec for rec in gdb.records if rec.phenotype == "Cohort").genotypes
    cases = [("count", f"phenotype=Cohort, SNP1={g[0]}, SNP2!={g[1]}", None),
             ("boolean", f"SNP3={g[2]}, phenotype!=Background", None),
             ("match", f"phenotype=Cohort, SNP1={g[0]}, SNP3={g[2]}, SNP4={g[3]}", 2)]
    srv = DataServer(("127.0.0.1", 0), egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        for qtype, where, k_prime in cases:
            query = parse_query(where, qtype, k_prime)
            eq = encode_query(query, freq)
            chain = len(egdb.tset.retrieve(TSet.tag(keys.k_t, eq.sterm)))
            assert 16 <= chain <= 25, (where, chain)
            expected = evaluate_plain(gdb, query, freq)
            assert expected and run_query(keys, egdb, query, freq) == expected
            for frame_counters in (1, 3, 8, chain, 64):
                monkeypatch.setattr(services, "FRAME_COUNTERS", frame_counters)
                res = execute_search(srv.server_address, keys, eq, timeout=10)
                networked = COUNT.unpack(res)[0] if qtype == "count" else decrypt_ids(
                    res, eq.sterm, keys)
                assert networked == expected, (where, frame_counters)
    finally:
        srv.shutdown()
        srv.server_close()


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


@pytest.mark.parametrize("mtype,body", [
    (MSG_SEARCH_INIT, bytes(16) + INIT_FIELDS.pack(2, 0, 0, 0)),
    (MSG_STERM_COUNT, COUNT.pack(5)),
    (MSG_XTOKENS, b"\x02" * 33),
    (MSG_RESULT, COUNT.pack(5)),
    (MSG_XCOLUMN, b"\x02" * 33),
    (MSG_UNDECIDED, b"\x01"),
], ids=["init", "chain-length", "tokens", "result", "column", "undecided"])
def test_client_refuses_a_token_frame_from_the_vetter(mtype, body):
    """A data-server hop frame's body is raw bytes, so it is no reply a
    client can read."""
    listener = socket.create_server(("127.0.0.1", 0))

    def fake_vetter():
        conn, _ = listener.accept()
        with conn:
            read_frame(conn.makefile("rb"))
            send_frame(conn, mtype, body)

    thread = threading.Thread(target=fake_vetter, daemon=True)
    thread.start()
    try:
        with pytest.raises(ServiceError, match=f"data-server frame \\(type {mtype}\\)"):
            submit_query(listener.getsockname(), "bob", "count", "SNP2=CC", timeout=10)
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        listener.close()


def _binds_ipv6_loopback() -> bool:
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _binds_ipv6_loopback(), reason="the IPv6 loopback cannot be bound")
def test_servers_answer_on_the_ipv6_loopback(demo_egdb, demo_keys):
    """A data server and a vetter given ``[::1]:0`` bind it, and a query
    through addresses written and read as host:port is answered."""
    data = DataServer(parse_hostport("[::1]:0"), demo_egdb)
    threads = [threading.Thread(target=data.serve_forever, daemon=True)]
    threads[0].start()
    upstream = format_hostport(data.server_address)
    assert re.fullmatch(r"\[::1\]:\d+", upstream)
    vet = Vetter(parse_hostport("[::1]:0"), demo_keys, POLICY, parse_hostport(upstream))
    threads.append(threading.Thread(target=vet.serve_forever, daemon=True))
    threads[1].start()
    try:
        assert data.socket.family == vet.socket.family == socket.AF_INET6
        mtype, body = submit_query(parse_hostport(format_hostport(vet.server_address)),
                                   "alice", "boolean", "phenotype=Cancer B, SNP2=CC", timeout=10)
        assert (mtype, body) == (MSG_ANSWER, {"ids": [2, 5]})
    finally:
        for srv in (vet, data):
            srv.shutdown()
            srv.server_close()
        for thread in threads:
            thread.join(timeout=10)


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
    # every frame is a fixed layout of opaque values, so no slot exists for
    # query plaintext, keywords, or record ids to travel in
    init = frames[0][2]
    assert len(init) == 16 + INIT_FIELDS.size
    assert INIT_FIELDS.unpack(init[16:]) == (1, 2, 0, 0)  # gamma, n_pos, n_neg, k'
    assert frames[1][2] == COUNT.pack(3)
    # 3 rows of exactly the tokens round one declared, nothing else: 33
    # bytes each, every one a compressed point's 0x02 or 0x03 prefix
    tokens = frames[2][2]
    assert len(tokens) == 3 * 2 * 33
    assert set(tokens[::33]) <= {2, 3}
    # the result is its two ciphertexts back to back
    assert frames[3][2] == res and len(res) == 2 * ENC_ID_LEN
    assert b"Cancer B" not in b"".join(b for _, _, b in frames)


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
    assert INIT_FIELDS.unpack(frames[0][2][16:])[1:3] == (0, 0)  # n_pos, n_neg
    if qtype == "count":
        assert frames[1][2] == res == COUNT.pack(expected)
    else:
        assert decrypt_ids(res, eq.sterm, demo_keys) == expected


def _joined_token_frames(writes) -> list:
    """The frames in a run of writes, with each run of token frames joined."""
    rd = io.BytesIO(b"".join(writes))
    frames = []
    while (frame := read_frame(rd))[0]:
        mtype, obj, _ = frame
        if mtype == MSG_XTOKENS and frames and frames[-1][0] == MSG_XTOKENS:
            frames[-1] = (mtype, frames[-1][1] + obj)
        else:
            frames.append((mtype, obj))
    return frames


def test_small_batches_equal_one_shot(monkeypatch, data_server, demo_keys, demo_freq,
                                     upstream_writes):
    eq = encode_query(parse_query("SNP2=CC, SNP4!=AG", "boolean"), demo_freq)
    monkeypatch.setattr(services, "FRAME_COUNTERS", 5)  # the chain length: one frame
    one = execute_search(data_server.server_address, demo_keys, eq)
    one_writes = upstream_writes[:]
    upstream_writes.clear()
    monkeypatch.setattr(services, "FRAME_COUNTERS", 1)
    trickle_frames = []
    trickle = execute_search(data_server.server_address, demo_keys, eq,
                             on_frame=lambda d, t, b: trickle_frames.append(t))
    assert one == trickle
    assert trickle_frames.count(MSG_XTOKENS) == 5  # 5 tuples, one per frame
    # one write for round one, then one per token frame as it is made
    assert len(one_writes) == 2 and len(upstream_writes) == 1 + 5
    # the same bytes, apart from the frame split
    joined = _joined_token_frames(upstream_writes)
    assert joined == _joined_token_frames(one_writes)
    assert b"".join(encode_frame(t, obj) for t, obj in joined) == b"".join(one_writes)


def test_token_frames_hold_only_rows(monkeypatch, data_server, demo_keys, demo_freq):
    monkeypatch.setattr(services, "FRAME_COUNTERS", 2)
    eq = encode_query(parse_query("SNP2=CC, SNP4=AG, SNP3!=CT", "boolean"), demo_freq)
    assert (eq.sterm, eq.positive_xterms, eq.negative_xterms) == ("2CC", ("4AG",), ("3CT",))
    frames = []
    execute_search(data_server.server_address, demo_keys, eq,
                   on_frame=lambda d, t, b: frames.append((t, b)))
    bodies = [body for mtype, body in frames if mtype == MSG_XTOKENS]
    assert [len(body) for body in bodies] == [2 * 66, 2 * 66, 66]  # the 5-tuple chain
    # the frames carry generate_token's rows in counter order, each row its
    # positive token, then its negative one
    tokens = b"".join(bodies)
    assert tokens == services.generate_token(eq, demo_keys, range(1, 6))
    assert tokens == _pack(zip(probe_tokens(demo_keys, "2CC", 5, "4AG"),
                               probe_tokens(demo_keys, "2CC", 5, "3CT")))


def test_server_answers_after_the_last_counter(monkeypatch, data_server, demo_keys,
                                               demo_egdb, demo_freq):
    monkeypatch.setattr(services, "FRAME_COUNTERS", 1)
    query = parse_query("SNP2=CC, SNP4!=AG", "boolean")
    eq = encode_query(query, demo_freq)
    assert eq.sterm == "2CC"
    frames = []
    res = execute_search(data_server.server_address, demo_keys, eq,
                         on_frame=lambda d, t, b: frames.append((d, t)))
    assert frames == [("send", MSG_SEARCH_INIT), ("recv", MSG_STERM_COUNT)] \
        + [("send", MSG_XTOKENS)] * 5 + [("recv", MSG_RESULT)]
    assert decrypt_ids(res, eq.sterm, demo_keys) == run_query(
        demo_keys, demo_egdb, query, demo_freq) == [6]
    # by hand: tokens that hit on every tuple, one counter per frame. The
    # count after the fifth frame takes all five, and the connection is then
    # free for its next search, which round one answers.
    hits = probe_tokens(demo_keys, "2CC", 5, "2CC")
    with socket.create_connection(data_server.server_address, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys, sterm="2CC", gamma=2))
        assert read_frame(rd)[:2] == (MSG_STERM_COUNT, COUNT.pack(5))
        sock.sendall(b"".join(encode_frame(MSG_XTOKENS, h) for h in hits[:4]))
        sock.sendall(encode_frame(MSG_XTOKENS, hits[4])
                     + _init_frame(demo_keys, sterm="2CC", gamma=2, n_pos=0))
        assert read_frame(rd)[:2] == (MSG_RESULT, COUNT.pack(5))
        assert read_frame(rd)[:2] == (MSG_RESULT, COUNT.pack(5))


@pytest.mark.parametrize("qtype,expected", [("count", COUNT.pack(0)), ("boolean", b"")],
                         ids=["count-expected0", "boolean-expected1"])
def test_empty_chain_search_ends_in_round_one(data_server, demo_keys, demo_egdb, demo_freq,
                                              upstream_writes, qtype, expected):
    query = parse_query("phenotype=Cancer Z, SNP2=CC", qtype)
    eq = encode_query(query, demo_freq)
    frames = []
    res = execute_search(data_server.server_address, demo_keys, eq,
                         on_frame=lambda d, t, b: frames.append((d, t, b)))
    assert [(d, t) for d, t, _ in frames] == [("send", MSG_SEARCH_INIT), ("recv", MSG_RESULT)]
    assert len(upstream_writes) == 1
    # declared, as for any chain
    assert INIT_FIELDS.unpack(frames[0][2][16:])[1:3] == (1, 0)
    assert frames[1][2] == expected
    networked = COUNT.unpack(res)[0] if qtype == "count" else decrypt_ids(res, eq.sterm,
                                                                 demo_keys)
    assert networked == run_query(demo_keys, demo_egdb, query, demo_freq) == (
        0 if qtype == "count" else [])


@pytest.mark.parametrize("body", [COUNT.pack(0), COUNT.pack(5)[:7], COUNT.pack(5) + b"\0",
                                  b'{"count":5}'], ids=["0", "short", "long", "json"])
def test_vetter_rejects_a_chain_length_below_one(demo_keys, body):
    """A server that asks for tokens over no chain, or whose chain length is
    not one 8-byte count, as an older server's JSON one is not, is answered
    with an error."""
    listener = socket.create_server(("127.0.0.1", 0))
    got = []

    def fake_server():
        conn, _ = listener.accept()
        with conn:
            rd = conn.makefile("rb")
            read_frame(rd)
            send_frame(conn, MSG_STERM_COUNT, body)
            got.append(read_frame(rd)[0])  # 0: the vetter hung up
            if got[0]:
                send_frame(conn, MSG_RESULT, COUNT.pack(0))

    thread = threading.Thread(target=fake_server, daemon=True)
    thread.start()
    try:
        eq = encode_query(parse_query("phenotype=Cancer Z, SNP2=CC", "count"))
        with pytest.raises(ServiceError, match="malformed tuple-count"):
            execute_search(listener.getsockname(), demo_keys, eq, timeout=10)
        thread.join(timeout=10)
        assert not thread.is_alive() and got == [0]  # no token frame went out
    finally:
        listener.close()


def test_a_lying_chain_length_cannot_outlast_the_deadline(demo_keys):
    """A server that claims 10^9 tuples in round one, then only reads, holds
    the search no longer than its timeout: the search fails with
    ServiceError after a bounded number of token frames, each the rows
    generate_token makes for its counters."""
    listener = socket.create_server(("127.0.0.1", 0))
    bodies = []

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
                if mtype != MSG_XTOKENS:
                    return
                bodies.append(body)

    thread = threading.Thread(target=lying_server, daemon=True)
    thread.start()
    try:
        eq = encode_query(parse_query("id=2, SNP2=CC", "boolean"))
        t0 = time.monotonic()
        with pytest.raises(ServiceError, match="past its 0.5 s deadline"):
            execute_search(listener.getsockname(), demo_keys, eq, timeout=0.5)
        elapsed = time.monotonic() - t0
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        listener.close()
    assert elapsed < 1.5
    # at about 0.5 ms a frame, 0.5 s makes some hundreds
    assert 0 < len(bodies) < 5000
    n = services.FRAME_COUNTERS
    for i in (0, 1, len(bodies) - 1):
        assert bodies[i] == generate_token(eq, demo_keys, range(i * n + 1, (i + 1) * n + 1))


# SHA-256 of the bytes the vetter side wrote, and of the on_frame transcript
# (direction, type, u32 length, body per frame), with FRAME_COUNTERS set to
# the fourth column. They equal the transcripts of JSON search frames with
# base64 fields, and raw token frames, with every JSON body re-encoded into
# its raw layout (init: stag + INIT_FIELDS; chain length and count: COUNT;
# ids: the ciphertexts joined) and the frame lengths adjusted; the token
# frames are unchanged. The count ends in round one and has no token frame.
WIRE_GOLDENS = [
    ("boolean", "SNP2=CC, SNP4!=AG", None, 1,
     "4e5a6046ec503d0beb8c398e647367f4709e4b9fa7b3250acb288f24f1fc5ab5",
     "280f0479a0c89c5f4a4bb6dff9c7bc645e474ef89a9b527ca5ca4405c1f96813"),
    ("match", "phenotype=Cancer B, SNP2=CC, SNP4=AG", 1, 2,
     "6f406fb4409cb7ccab9dc5e6ed4980f6278a0debcc720f96a2a118404c7f2a56",
     "da2c95bf4bb2c08a9f717c6be5b7dd0e23162f6e20540395dec9ff06eff4a404"),
    ("count", "SNP2=CC", None, 256,
     "e6a32f9c9b2d21aa38982dad16820ec800e90b236a20974b38e6ce2e3336c107",
     "bbbe6d5aba8d766f6453b4c2ed57f97b0cd8a760c3bdd274d4502032b0b18b96"),
]


@pytest.mark.parametrize("qtype,where,k_prime,frame_counters,wire_sha,transcript_sha",
                         WIRE_GOLDENS, ids=[g[0] for g in WIRE_GOLDENS])
def test_wire_bytes_match_golden(monkeypatch, data_server, demo_keys, demo_freq,
                                 upstream_writes, qtype, where, k_prime, frame_counters,
                                 wire_sha, transcript_sha):
    monkeypatch.setattr(services, "FRAME_COUNTERS", frame_counters)
    eq = encode_query(parse_query(where, qtype, k_prime), demo_freq)
    frames = []
    execute_search(data_server.server_address, demo_keys, eq,
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


def test_round_two_streams_each_frame_as_it_is_made(monkeypatch, data_server, demo_keys,
                                                    demo_freq):
    """Frame 1 reaches the server before the vetter makes frame 2."""
    monkeypatch.setattr(services, "FRAME_COUNTERS", 1)
    fed = threading.Event()
    real_feed = services.SearchCore.feed

    def feed(core, body, column=False):
        real_feed(core, body, column)
        if core.fed:
            fed.set()

    waited = []
    real_generate = services.generate_token

    def generate_token(eq, keys, counters, col=0, ncols=None):
        if counters[0] == 2:
            waited.append(fed.wait(timeout=10))
        return real_generate(eq, keys, counters, col, ncols)

    monkeypatch.setattr(services.SearchCore, "feed", feed)
    monkeypatch.setattr(services, "generate_token", generate_token)
    eq = encode_query(parse_query("SNP2=CC, SNP4!=AG", "boolean"), demo_freq)
    res = execute_search(data_server.server_address, demo_keys, eq, timeout=30)
    assert waited == [True]
    assert decrypt_ids(res, eq.sterm, demo_keys) == [6]


def _pump(src, dst):
    try:
        while chunk := src.recv(1 << 16):
            dst.sendall(chunk)
    except OSError:
        pass
    for s in (dst, src):  # wakes the pump of the other direction
        try:
            s.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


def _frame_gaps_through_a_nagle_relay(monkeypatch, demo_egdb, demo_keys, demo_freq,
                                      searches=3):
    """Milliseconds between the server's reads of the frames of 5-frame
    streams, each sent on its own connection through a relay that, like a
    TLS terminator or a load balancer, leaves Nagle's algorithm on toward
    the data server."""
    monkeypatch.setattr(services, "FRAME_COUNTERS", 1)
    reads = []
    real_tokens = services._DataHandler._tokens

    def tokens(handler, core, obj, column):
        reads[-1].append(time.perf_counter())
        return real_tokens(handler, core, obj, column)

    monkeypatch.setattr(services._DataHandler, "_tokens", tokens)
    srv = DataServer(("127.0.0.1", 0), demo_egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    listener = socket.create_server(("127.0.0.1", 0))

    def relay():
        for _ in range(searches):
            client, _ = listener.accept()
            upstream = socket.create_connection(srv.server_address)
            back = threading.Thread(target=_pump, args=(upstream, client), daemon=True)
            back.start()
            _pump(client, upstream)
            back.join(timeout=10)
            client.close()
            upstream.close()

    thread = threading.Thread(target=relay, daemon=True)
    thread.start()
    try:
        eq = encode_query(parse_query("SNP2=CC, SNP4!=AG", "boolean"), demo_freq)
        for _ in range(searches):
            reads.append([])
            res = execute_search(listener.getsockname(), demo_keys, eq, timeout=10)
            assert decrypt_ids(res, eq.sterm, demo_keys) == [6]
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        listener.close()
        srv.shutdown()
        srv.server_close()
    assert [len(r) for r in reads] == [5] * searches
    return [(b - a) * 1e3 for r in reads for a, b in zip(r, r[1:])]


needs_quickack = pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"),
                                    reason="TCP_QUICKACK is Linux-only")


@needs_quickack
def test_a_hop_with_nagle_on_does_not_stall_the_stream(monkeypatch, demo_egdb, demo_keys,
                                                       demo_freq):
    gaps = _frame_gaps_through_a_nagle_relay(monkeypatch, demo_egdb, demo_keys, demo_freq)
    assert max(gaps) < 30, gaps  # a delayed ACK holds a frame for 40 ms or more


@needs_quickack
def test_the_stall_check_fails_without_quick_ack(monkeypatch, demo_egdb, demo_keys,
                                                 demo_freq):
    """The check above has power: without the quick-ACK, the relay's Nagle
    holds the second frame of a connection until the server's delayed ACK
    of the first (the kernel then leaves its delayed-ACK mode)."""
    monkeypatch.setattr(services._DataHandler, "_quick_ack", lambda handler: None)
    gaps = _frame_gaps_through_a_nagle_relay(monkeypatch, demo_egdb, demo_keys, demo_freq)
    assert max(gaps) >= 30, gaps


def test_rejected_first_batch_of_a_coalesced_stream_fails_cleanly(
        monkeypatch, demo_egdb, demo_keys, demo_freq, tmp_path):
    real = services.generate_token
    hung_up = threading.Event()
    real_close = DataServer.shutdown_request

    def shutdown_request(server, request):
        real_close(server, request)
        hung_up.set()

    def off_curve_at_counter_1(eq, keys, counters, col=0, ncols=None):
        body = real(eq, keys, counters, col, ncols)
        if counters[0] == 1:  # the query's one token: a negative one
            return OFF_CURVE + body[33:]
        hung_up.wait(timeout=10)  # later frames go to a server that hung up
        return body

    broken = []
    real_send = services.send_frame

    def send_frame(sock, mtype, obj):
        try:
            return real_send(sock, mtype, obj)
        except ConnectionError as exc:
            broken.append(exc)
            raise

    monkeypatch.setattr(DataServer, "shutdown_request", shutdown_request)
    monkeypatch.setattr(services, "generate_token", off_curve_at_counter_1)
    monkeypatch.setattr(services, "send_frame", send_frame)
    monkeypatch.setattr(services, "FRAME_COUNTERS", 1)
    srv = DataServer(("127.0.0.1", 0), demo_egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    audit = tmp_path / "audit.log"
    vet = Vetter(("127.0.0.1", 0), demo_keys, POLICY, srv.server_address,
                 audit_path=audit)
    threading.Thread(target=vet.serve_forever, daemon=True).start()
    try:
        # 5 one-counter frames; the server refuses the first and hangs up,
        # so a later frame's write fails
        eq = encode_query(parse_query("SNP2=CC, SNP4!=AG", "boolean"), demo_freq)
        with pytest.raises(ServiceError, match="group element at counter 1"):
            execute_search(srv.server_address, demo_keys, eq, timeout=10)
        assert broken  # the reason was read after a write had failed
        hung_up.clear()
        mtype, body = submit_query(vet.server_address, "alice", "boolean",
                                   "SNP2=CC, SNP4!=AG", timeout=10)
        assert mtype == MSG_ERROR and "unavailable" in body["error"]
        assert re.search(r"outcome=error:upstream tokens=\d+ rounds=1 ms_total=",
                         audit.read_text())
        # the refused searches took nothing with them: a new one is answered
        eq = encode_query(parse_query("SNP2=CC", "count"))
        assert execute_search(srv.server_address, demo_keys, eq, timeout=10) == COUNT.pack(5)
    finally:
        vet.shutdown()
        vet.server_close()
        srv.shutdown()
        srv.server_close()


def test_count_zero_still_answers(data_server, demo_keys):
    eq = encode_query(parse_query("phenotype=Nothing Here", "count"))
    res = execute_search(data_server.server_address, demo_keys, eq)
    assert res == COUNT.pack(0)


def test_concurrent_searches(monkeypatch, demo_egdb, demo_keys, demo_freq):
    monkeypatch.setattr(services, "FRAME_COUNTERS", 2)
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
            res = execute_search(srv.server_address, demo_keys, eq)
            results[i] = COUNT.unpack(res)[0] if qtype == "count" else len(res) // ENC_ID_LEN

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

def _init_frame(demo_keys, **fields):
    return encode_frame(MSG_SEARCH_INIT, init_body(demo_keys, **fields))


def _hits(demo_keys, counters=3):
    """Tokens that hit on every tuple of the Cancer B chain."""
    return probe_tokens(demo_keys, "Cancer B", counters, "Cancer B")


def test_server_rejects_unexpected_type(data_server):
    [(mtype, obj)] = _raw(data_server.server_address,
                          encode_frame(MSG_QUERY, {"user": "x"}))
    assert mtype == MSG_ERROR and "unexpected" in obj["error"]


def test_server_rejects_bad_gamma(data_server, demo_keys):
    [(mtype, obj)] = _raw(data_server.server_address,
                          _init_frame(demo_keys, gamma=7))
    assert mtype == MSG_ERROR and "gamma" in obj["error"]


@pytest.mark.parametrize("gamma,k_prime,why", [
    (3, None, "16- or 32-byte tag"), (3, 0, "need k_prime >= 1"),
    (1, 1, "only applies to match"),
], ids=["match-missing", "match-zero", "boolean-with-k"])
def test_server_rejects_bad_k_prime(data_server, demo_keys, gamma, k_prime, why):
    """A k' field cut off leaves the init short, refused by its length."""
    body = init_body(demo_keys, gamma=gamma, k_prime=k_prime)
    if k_prime is None:
        body = body[:-4]
    [(mtype, obj)] = _raw(data_server.server_address, encode_frame(MSG_SEARCH_INIT, body))
    assert mtype == MSG_ERROR and why in obj["error"]


def test_server_rejects_unequal_token_arrays(data_server, demo_keys):
    """A frame whose last row lacks its negative token is not whole rows."""
    h1, h2, h3 = _hits(demo_keys)
    miss = probe_tokens(demo_keys, "Cancer B", 2, "Cancer A")
    mtype, obj = _send_tokens(data_server.server_address, demo_keys,
                              [[h1, miss[0]], [h2, miss[1]], [h3]], n_neg=1)
    assert mtype == MSG_ERROR and "rows of the 2 declared tokens" in obj["error"]
    # a JSON token frame, as an older vetter sent it, is refused the same way
    legacy = json.dumps({"pos": [[base64.b64encode(h1).decode()]], "neg": [[]]}).encode()
    assert len(legacy) % 33
    [(mtype, _), (mtype2, obj)] = _raw(data_server.server_address, _init_frame(demo_keys)
                                       + encode_frame(MSG_XTOKENS, legacy), 2)
    assert (mtype, mtype2) == (MSG_STERM_COUNT, MSG_ERROR)
    assert "rows of the 1 declared tokens" in obj["error"]


@pytest.mark.parametrize("cut", [12, 8], ids=["pos-missing", "neg-missing"])
def test_server_rejects_bad_cross_term_counts(data_server, demo_keys, cut):
    """An init that ends before its n_pos or n_neg field is refused by its
    length; the unsigned fields themselves hold any count."""
    body = init_body(demo_keys)[:-cut]
    [(mtype, obj)] = _raw(data_server.server_address, encode_frame(MSG_SEARCH_INIT, body))
    assert mtype == MSG_ERROR and "16- or 32-byte tag" in obj["error"]


def test_server_refuses_an_init_by_its_length(data_server, demo_keys):
    """Only a 16- or 32-byte tag and the fields make an init. An older
    vetter's JSON init is refused by its length too."""
    addr = data_server.server_address
    good = init_body(demo_keys)
    legacy = json.dumps({"stag": base64.b64encode(good[:16]).decode(), "gamma": 1,
                         "n_pos": 1, "n_neg": 0}).encode()
    for body in (b"", good[:13], good[1:], b"\0" + good, bytes(17) + good, legacy):
        [(mtype, obj)] = _raw(addr, encode_frame(MSG_SEARCH_INIT, body))
        assert mtype == MSG_ERROR, body
        assert f"got {len(body)} bytes" in obj["error"]
    # a 32-byte tag, as a λ = 256 index has, is taken; its chain here is empty
    [(mtype, obj)] = _raw(addr, encode_frame(MSG_SEARCH_INIT, bytes(16) + good))
    assert (mtype, obj) == (MSG_RESULT, b"")


def test_server_rejects_oversize_header(data_server):
    [(mtype, obj)] = _raw(data_server.server_address,
                          struct.pack("<IB", MAX_PAYLOAD + 9, MSG_SEARCH_INIT))
    assert mtype == MSG_ERROR and "bad frame" in obj["error"]


def test_server_rejects_rows_past_the_chain(data_server, demo_keys):
    h1, h2, h3 = _hits(demo_keys)
    # in one frame, and across frames: 2 rows, then 2 more for the last counter
    mtype, obj = _send_tokens(data_server.server_address, demo_keys,
                              [[h1], [h2], [h3], [h1]])
    assert mtype == MSG_ERROR and "counters 1..4 run past the chain of 3" in obj["error"]
    with socket.create_connection(data_server.server_address, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys))
        mtype, obj, _ = read_frame(rd)
        assert (mtype, obj) == (MSG_STERM_COUNT, COUNT.pack(3))
        sock.sendall(encode_frame(MSG_XTOKENS, h1 + h2) + encode_frame(MSG_XTOKENS, h3 + h1))
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_ERROR and "counters 3..4 run past the chain" in obj["error"]
        assert read_frame(rd)[0] == 0  # the server hung up


def test_server_rejects_unknown_session(data_server, demo_keys):
    # search state lives on its connection: a batch on a connection with no
    # open search is refused, even while another connection has one open
    addr = data_server.server_address
    batch = encode_frame(MSG_XTOKENS, _hits(demo_keys, 1)[0])
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
    # declared without them, a negative token in every row breaks the
    # declared row width
    h1, h2, h3 = _hits(demo_keys)
    mtype, obj = _send_tokens(addr, demo_keys, [[h1, h1, h1], [h2, h2, h2], [h3, h3, h3]],
                              gamma=3, k_prime=1, n_pos=2)
    assert mtype == MSG_ERROR and "rows of the 2 declared tokens" in obj["error"]


def test_server_rejects_token_rows_of_undeclared_width(data_server, demo_keys):
    addr = data_server.server_address
    h1, h2, h3 = _hits(demo_keys)
    for rows in ([[h1, h1], [h2]], [[h1], [h2], [h3]], [[h1, h1], [h2, h2], [h3, h3[:32]]]):
        mtype, obj = _send_tokens(addr, demo_keys, rows, n_pos=2)
        assert mtype == MSG_ERROR and "rows of the 2 declared tokens" in obj["error"]
    for rows in ([[h1], [h2], [h3[:32]]], [[h1], [h2[:1]]], [[h1 + b"\x02"]]):
        mtype, obj = _send_tokens(addr, demo_keys, rows, n_pos=1)
        assert mtype == MSG_ERROR and "rows of the 1 declared tokens" in obj["error"]
    # the same search at the declared width is answered
    mtype, obj = _send_tokens(addr, demo_keys, [[h1], [h2], [h3]])
    assert mtype == MSG_RESULT and len(obj) == 3 * 36


def test_server_refuses_a_token_frame_of_no_rows(data_server, demo_keys):
    """An empty frame would keep the search open while doing nothing."""
    with socket.create_connection(data_server.server_address, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys))
        assert read_frame(rd)[0] == MSG_STERM_COUNT
        send_frame(sock, MSG_XTOKENS, b"")
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_ERROR and "one or more rows" in obj["error"]
        assert read_frame(rd)[0] == 0  # the server hung up


def test_server_rejects_malformed_group_element(data_server, demo_keys):
    with socket.create_connection(data_server.server_address, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys))
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_STERM_COUNT
        junk = b"\x07" * 33  # invalid prefix byte for a compressed point
        send_frame(sock, MSG_XTOKENS, junk)
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_ERROR and "group element at counter 1" in obj["error"]


def test_server_reports_a_corrupt_chain_in_round_one(demo_keys, demo_iinx):
    egdb = build_egdb(demo_keys, demo_iinx, SeededRng(1102))
    ts = egdb.tset
    rows = ts.rows.copy()
    rows[:, ts.label_width] ^= 0x80  # every flag byte unmasks to an invalid flag
    egdb.tset = TSet(rows, ts.label_width, ts.payload_width)
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
    junk = b"\x07" * 33
    h1, h2, h3 = _hits(demo_keys)
    # a failed frame, whether or not it reaches the last counter, ends its
    # search and its connection
    for body in (junk + h2 + h3, junk):
        with socket.create_connection(addr, timeout=10) as sock:
            rd = sock.makefile("rb")
            sock.sendall(_init_frame(demo_keys))
            assert read_frame(rd)[0] == MSG_STERM_COUNT
            send_frame(sock, MSG_XTOKENS, body)
            mtype, obj, _ = read_frame(rd)
            assert mtype == MSG_ERROR and "group element" in obj["error"]
            assert read_frame(rd)[0] == 0  # the server hung up
    # a good frame short of the last counter keeps the search open for the
    # next one while the connection lasts, and the connection then runs its
    # next search
    with socket.create_connection(addr, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys))
        assert read_frame(rd)[0] == MSG_STERM_COUNT
        send_frame(sock, MSG_XTOKENS, h1)
        send_frame(sock, MSG_XTOKENS, h2 + h3)
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_RESULT and len(obj) == 3 * 36
        sock.sendall(_init_frame(demo_keys, n_pos=0))
        mtype, obj, _ = read_frame(rd)
        assert mtype == MSG_RESULT and len(obj) == 3 * 36


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
    return COUNT.unpack(obj)[0] if mtype == MSG_STERM_COUNT else None


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


def _send_tokens(addr, demo_keys, rows, **init):
    """Open a search on the 3-tuple Cancer B chain and send one token frame
    of ``rows``, each a list of tokens, packed.

    The search is ``_init_frame``'s boolean unless ``init`` says otherwise.
    """
    with socket.create_connection(addr, timeout=10) as sock:
        rd = sock.makefile("rb")
        sock.sendall(_init_frame(demo_keys, **init))
        mtype, obj, _ = read_frame(rd)
        assert (mtype, obj) == (MSG_STERM_COUNT, COUNT.pack(3))
        send_frame(sock, MSG_XTOKENS, _pack(rows))
        return read_frame(rd)[:2]


def test_server_rejects_unused_malformed_token_on_arrival(data_server, demo_keys):
    addr = data_server.server_address
    junk = b"\x07" * 33
    h1, h2, h3 = _hits(demo_keys)
    # no Cancer B record is Cancer A, so the core would stop at each row's
    # first token
    miss = probe_tokens(demo_keys, "Cancer B", 3, "Cancer A")
    for rows, counter in (([[miss[0], junk], [h2, h2], [h3, h3]], 1),
                          ([[miss[0], h1], [miss[1], h2], [miss[2], junk]], 3)):
        mtype, obj = _send_tokens(addr, demo_keys, rows, n_pos=2)
        assert mtype == MSG_ERROR
        assert f"group element at counter {counter}: prefix 0x07" in obj["error"]
    # counter 4 is past the chain: the row count is refused before any
    # token of the frame is looked at
    mtype, obj = _send_tokens(addr, demo_keys, [[h1], [h2], [h3], [junk]])
    assert mtype == MSG_ERROR and "counters 1..4 run past the chain of 3" in obj["error"]
    # a 32-byte token leaves the body short of whole rows
    mtype, obj = _send_tokens(addr, demo_keys, [[b"\x02" * 32], [h2], [h3]], n_pos=0,
                              n_neg=1)
    assert mtype == MSG_ERROR and "rows of the 1 declared tokens" in obj["error"]


@pytest.mark.parametrize("bad", [OFF_CURVE, IDENTITY.encode()], ids=["off-curve", "identity"])
def test_server_rejects_used_non_point(data_server, demo_keys, bad):
    """Off the curve, refused where the core reaches it; the identity's
    all-zero encoding, refused by its prefix on arrival."""
    _, h2, h3 = _hits(demo_keys)
    mtype, obj = _send_tokens(data_server.server_address, demo_keys, [[bad], [h2], [h3]])
    assert mtype == MSG_ERROR and "group element at counter 1" in obj["error"]


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
        send_frame(sock, MSG_XTOKENS, b"".join(_hits(demo_keys)))
        assert read_frame(rd)[0] == MSG_RESULT
        assert _chain_count(addr, demo_keys) is None
        rd.close()
        sock.close()
        assert _poll(lambda: _chain_count(addr, demo_keys) == 3)
    finally:
        for sock, rd in held:
            rd.close()
            sock.close()


def test_vetter_connections_are_capped(monkeypatch, demo_keys, data_server):
    monkeypatch.setattr(services, "MAX_CONNECTIONS", 2)
    handled = []
    real = services._VetterHandler.handle
    monkeypatch.setattr(services._VetterHandler, "handle",
                        lambda self: handled.append(1) or real(self))
    srv = Vetter(("127.0.0.1", 0), demo_keys, POLICY, data_server.server_address)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    addr = srv.server_address
    query = {"user": "bob", "type": "count", "where": "SNP2=CC"}
    held = []

    def answered() -> bool:
        try:
            return submit_query(addr, "bob", "count", "SNP2=CC", timeout=10)[0] == MSG_ANSWER
        except OSError:  # refused: the server may reset a connection it never read
            return False

    try:
        for _ in range(2):
            sock = socket.create_connection(addr, timeout=10)
            rd = sock.makefile("rb")
            held.append((sock, rd))
            send_frame(sock, MSG_QUERY, query)
            assert read_frame(rd)[:2] == (MSG_ANSWER, {"count": 5})
        # a third connection is refused before it sends anything, then closed
        with socket.create_connection(addr, timeout=10) as sock:
            rd = sock.makefile("rb")
            mtype, obj, _ = read_frame(rd)
            assert mtype == MSG_ERROR and "too many connections (limit 2)" in obj["error"]
            assert read_frame(rd)[0] == 0
        # closing a held connection frees its slot
        sock, rd = held.pop()
        rd.close()
        sock.close()
        assert _poll(answered)
        assert len(handled) == 3  # no handler ran for the refused connection
    finally:
        for sock, rd in held:
            rd.close()
            sock.close()
        srv.shutdown()
        srv.server_close()


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


def test_vetter_ends_idle_and_reset_connections_quietly(monkeypatch, demo_keys, data_server):
    """An idle client is hung up on after the handler's timeout, and a
    client that resets is let go; neither reaches handle_error, which would
    print a traceback."""
    monkeypatch.setattr(services._VetterHandler, "timeout", 0.1)
    errors, closed = [], []

    class RecordingVetter(Vetter):
        def handle_error(self, request, client_address):
            errors.append(sys.exc_info()[1])

        def shutdown_request(self, request):
            super().shutdown_request(request)
            closed.append(request)

    srv = RecordingVetter(("127.0.0.1", 0), demo_keys, POLICY, data_server.server_address)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        with socket.create_connection(srv.server_address, timeout=10) as idle:
            t0 = time.monotonic()
            assert read_frame(idle.makefile("rb"))[0] == 0  # the vetter hung up
            assert time.monotonic() - t0 < 5
        reset = socket.create_connection(srv.server_address, timeout=10)
        reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        reset.close()  # a zero linger sends RST, not FIN
        assert _poll(lambda: len(closed) == 2)
    finally:
        srv.shutdown()
        srv.server_close()
    assert errors == []


# --- fuzzing ---------------------------------------------------------------------------

@st.composite
def _frame_streams(draw):
    """Byte strings that hold frame headers, search-frame ones most of all,
    with bodies that may be short, long, cut or garbage."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    out = b""
    for _ in range(draw(st.integers(1, 3))):
        mtype = draw(st.sampled_from(sorted(RAW_TYPES) * 2 + list(range(0, 13))))
        body = draw(st.binary(max_size=200))
        length = draw(st.one_of(st.just(len(body) + 1), st.integers(0, 400),
                                st.integers(0, 2**32 - 1)))
        out += struct.pack("<IB", length, mtype) + body
    return out[:draw(st.integers(0, len(out)))] if draw(st.booleans()) else out


@settings(max_examples=400, deadline=None)
@given(_frame_streams())
@example(encode_frame(MSG_XCOLUMN, b"\x02" * 66) + encode_frame(MSG_UNDECIDED, b"\x05"))
@example(struct.pack("<IB", 3, MSG_UNDECIDED) + b"\x01")  # cut short
def test_read_frame_fuzz(data):
    rd = io.BytesIO(data)
    t0 = time.perf_counter()
    try:
        while (frame := read_frame(rd))[0]:
            mtype, obj, body = frame
            assert obj is body if mtype in RAW_TYPES else isinstance(obj, dict)
    except WireError:
        pass
    assert time.perf_counter() - t0 < 1


class _RecordingServer(DataServer):
    """A data server that records what its connection threads raise."""

    def __init__(self, addr, egdb):
        self.errors = []
        super().__init__(addr, egdb)

    def handle_error(self, request, client_address):
        self.errors.append(sys.exc_info()[1])


@pytest.fixture(scope="module")
def fuzz_server(demo_egdb):
    srv = _RecordingServer(("127.0.0.1", 0), demo_egdb)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    yield srv
    srv.shutdown()
    srv.server_close()


@st.composite
def _token_frames(draw, pool):
    """A search over the 3-tuple Cancer B chain, and a frame for it: a row
    frame, a column frame or a bitmap, whose body is arbitrary bytes, or
    rows drawn from hits, misses, non-points, bad prefixes and random
    tokens, possibly cut or extended."""
    gamma = draw(st.sampled_from([1, 2, 3]))
    n_pos = draw(st.integers(1 if gamma == 3 else 0, 2))
    n_neg = 0 if gamma == 3 else draw(st.integers(0 if n_pos else 1, 2))
    k_prime = draw(st.integers(1, n_pos + 1)) if gamma == 3 else None
    mtype = draw(st.sampled_from([MSG_XTOKENS, MSG_XTOKENS, MSG_XCOLUMN, MSG_XCOLUMN,
                                  MSG_UNDECIDED]))
    if draw(st.integers(0, 3)) == 0:
        body = draw(st.binary(max_size=300))
    else:
        token = st.one_of(st.sampled_from(pool), st.sampled_from(pool),
                          st.binary(min_size=33, max_size=33),
                          st.binary(min_size=32, max_size=32).map(lambda x: b"\x02" + x))
        rows = draw(st.sampled_from([0, 1, 2, 3, 3, 3, 4]))  # the chain has 3 tuples
        width = 1 if mtype == MSG_XCOLUMN else n_pos + n_neg
        body = b"".join(draw(st.lists(token, min_size=rows * width, max_size=rows * width)))
        if draw(st.integers(0, 3)) == 0:
            body = body[:draw(st.integers(0, len(body)))] + draw(st.binary(max_size=40))
    return gamma, n_pos, n_neg, k_prime, mtype, body


def _expected_token_answer(egdb, keys, gamma, n_pos, n_neg, k_prime, mtype, body):
    """The answer a frame must get: "error", "open" (valid rows short of the
    chain's end), or the (type, body) reply of the same frame fed in
    process: the result, or after a column frame that leaves some tuple
    undecided, the bitmap."""
    core = SearchCore(egdb, init_body(keys, "Cancer B", gamma, n_pos, n_neg, k_prime))
    column = mtype == MSG_XCOLUMN
    width = n_pos + n_neg
    if mtype == MSG_UNDECIDED or (column and width < 2):
        return "error"
    n_rows, rest = divmod(len(body), (1 if column else width) * 33)
    if rest or not 0 < n_rows <= len(core.tuples) or not set(body[::33]) <= {2, 3}:
        return "error"
    try:
        core.feed(body, column)
    except WireError:
        return "error"
    if core.round_open:
        return "open"
    return (MSG_RESULT, core.finish()) if core.done else (MSG_UNDECIDED, core.next_round())


def test_data_server_token_path_fuzz(fuzz_server, demo_egdb, demo_keys):
    pool = [IDENTITY.encode(), OFF_CURVE, b"\x07" * 33, b"\x04" + OFF_CURVE[1:]]
    for keyword in ("Cancer B", "Cancer A", "2CC", "4AG"):
        pool += probe_tokens(demo_keys, "Cancer B", 3, keyword)
    hits = probe_tokens(demo_keys, "Cancer B", 3, "Cancer B")
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(_token_frames(pool))
    # one of each outcome on every run, whatever the strategy draws
    @example((1, 1, 0, None, MSG_XTOKENS, b"".join(hits)))
    @example((2, 1, 0, None, MSG_XTOKENS, hits[0]))
    @example((2, 1, 0, None, MSG_XTOKENS, b""))
    @example((2, 2, 0, None, MSG_XCOLUMN, b"".join(hits)))
    @example((2, 1, 1, None, MSG_XCOLUMN, hits[0]))
    @example((1, 2, 0, None, MSG_UNDECIDED, b"\x07"))
    def check(frame):
        gamma, n_pos, n_neg, k_prime, mtype, body = frame
        expected = _expected_token_answer(demo_egdb, demo_keys, *frame)
        with socket.create_connection(fuzz_server.server_address, timeout=10) as sock:
            rd = sock.makefile("rb")
            sock.sendall(_init_frame(demo_keys, gamma=gamma, n_pos=n_pos, n_neg=n_neg,
                                     k_prime=k_prime)
                         + encode_frame(mtype, body))
            sock.shutdown(socket.SHUT_WR)
            assert read_frame(rd)[:2] == (MSG_STERM_COUNT, COUNT.pack(3))
            got = read_frame(rd)[:2]
            # then the server hangs up, an open round waiting for rows
            # until the close
            assert got[0] == 0 or read_frame(rd)[0] == 0
        assert not fuzz_server.errors
        if expected == "error":
            assert got[0] == MSG_ERROR, got
        elif expected == "open":
            assert got[0] == 0
        else:
            assert got == expected
        seen.add(expected if isinstance(expected, str) else expected[0])

    check()
    assert seen == {"error", "open", MSG_RESULT, MSG_UNDECIDED}


@st.composite
def _init_bodies(draw):
    """Arbitrary bytes, or an init of a drawn tag length and drawn fields."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=80))
    tag = draw(st.sampled_from([0, 15, 16, 16, 16, 17, 31, 32, 32, 33]))
    small = st.integers(0, 3)
    fields = [draw(st.one_of(st.integers(0, 4), st.integers(0, 255))),
              *(draw(st.one_of(small, small, st.integers(0, 2**32 - 1))) for _ in range(3))]
    return draw(st.binary(min_size=tag, max_size=tag)) + INIT_FIELDS.pack(*fields)


def _valid_init(body: bytes) -> bool:
    tag_len = len(body) - INIT_FIELDS.size
    if tag_len not in (16, 32):
        return False
    gamma, _, n_neg, k_prime = INIT_FIELDS.unpack_from(body, tag_len)
    if gamma == 3:
        return k_prime >= 1 and not n_neg
    return gamma in (1, 2) and not k_prime


def test_data_server_init_fuzz(fuzz_server, demo_keys):
    """Every init gets a chain length, a result or an error within a second;
    an error exactly when the init breaks a rule of its layout."""
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(_init_bodies())
    # one of each answer on every run, whatever the strategy draws
    @example(init_body(demo_keys))
    @example(init_body(demo_keys, n_pos=0))
    @example(b"")
    def check(body):
        with socket.create_connection(fuzz_server.server_address, timeout=10) as sock:
            rd = sock.makefile("rb")
            t0 = time.perf_counter()
            sock.sendall(encode_frame(MSG_SEARCH_INIT, body))
            mtype, obj, _ = read_frame(rd)
            assert time.perf_counter() - t0 < 1
        assert not fuzz_server.errors
        assert mtype in (MSG_STERM_COUNT, MSG_RESULT, MSG_ERROR)
        assert (mtype == MSG_ERROR) == (not _valid_init(body)), (body, obj)
        if mtype == MSG_STERM_COUNT:
            assert len(obj) == COUNT.size
        seen.add(mtype)

    check()
    assert seen == {MSG_STERM_COUNT, MSG_RESULT, MSG_ERROR}


@settings(max_examples=300, deadline=None)
@given(_init_bodies())
@example(b"")
def test_search_core_init_fuzz(demo_egdb, body):
    """In process, the core opens on any init or raises WireError, and
    nothing else: exactly when the init breaks a rule of its layout. An
    open core holds the init's fields."""
    try:
        core = SearchCore(demo_egdb, body)
    except WireError:
        assert not _valid_init(body)
        return
    assert _valid_init(body)
    gamma, n_pos, n_neg, k_prime = INIT_FIELDS.unpack(body[-INIT_FIELDS.size:])
    assert (core.gamma, core.n_pos, core.n_neg, core.k_prime) == (gamma, n_pos, n_neg, k_prime)


_SAME_BODY_CASES = [("count", "SNP2=CC", None), ("count", "phenotype=Cancer B, SNP2!=CC", None),
                    ("boolean", "phenotype=Cancer B, SNP2=CC, SNP4=AG", None),
                    ("boolean", "phenotype=Cancer Z, SNP2=CC", None),
                    ("match", "id=7, SNP2=CC, SNP3=CT, SNP4=AG", 2)]


@pytest.mark.parametrize("qtype,where,k_prime", _SAME_BODY_CASES)
def test_run_query_opens_and_finishes_on_the_wire_bodies(monkeypatch, data_server, demo_gdb,
                                                          demo_keys, demo_egdb, demo_freq,
                                                          qtype, where, k_prime):
    """The in-process pipeline's core opens on the init the vetter sends and
    finishes into the result the data server sends, byte for byte."""
    opened, finished = [], []

    class RecordingCore(SearchCore):
        def __init__(self, egdb, init):
            opened.append(init)
            super().__init__(egdb, init)

        def finish(self):
            finished.append(super().finish())
            return finished[-1]

    monkeypatch.setattr(engine, "SearchCore", RecordingCore)  # not the data server's
    query = parse_query(where, qtype, k_prime)
    answer = run_query(demo_keys, demo_egdb, query, demo_freq)
    frames = []
    execute_search(data_server.server_address, demo_keys, encode_query(query, demo_freq),
                   on_frame=lambda d, t, b: frames.append((t, b)))
    assert opened == [b for t, b in frames if t == MSG_SEARCH_INIT]
    assert finished == [b for t, b in frames if t == MSG_RESULT]
    assert answer == evaluate_plain(demo_gdb, query, demo_freq)


def test_a_confused_data_server_gets_a_typed_refusal(demo_keys, demo_freq):
    """Whatever frames a data server answers a search with, the search
    returns a result body of its query's shape or fails with ServiceError or
    WireError."""
    listener = socket.create_server(("127.0.0.1", 0))
    replies = []
    stop = threading.Event()

    def fake_server():
        while True:
            conn, _ = listener.accept()
            if stop.is_set():
                conn.close()
                return
            with conn:
                try:
                    rd = conn.makefile("rb")
                    read_frame(rd)
                    conn.sendall(b"".join(struct.pack("<IB", len(body) + 1, mtype) + body
                                          for mtype, body in replies.pop()))
                    conn.shutdown(socket.SHUT_WR)
                    while rd.read(1 << 16):  # take any token frames until the close
                        pass
                except OSError:
                    pass  # the vetter gave up and reset the connection

    thread = threading.Thread(target=fake_server, daemon=True)
    thread.start()
    count, boolean, match = (
        encode_query(parse_query(where, qtype, k), demo_freq) for qtype, where, k in (
            ("count", "SNP2=CC, SNP4=AG", None), ("boolean", "SNP2=CC, SNP4!=AG", None),
            ("match", "phenotype=Cancer B, SNP2=CC, SNP4=AG", 1)))
    body = st.one_of(st.integers(0, 4).map(COUNT.pack),
                     st.binary(max_size=120).filter(lambda b: len(b) != COUNT.size),
                     st.integers(0, 3).map(lambda n: bytes(36 * n)))
    reply = st.tuples(st.sampled_from([MSG_STERM_COUNT, MSG_RESULT, MSG_RESULT, MSG_ERROR,
                                       MSG_XTOKENS, MSG_ANSWER, MSG_UNDECIDED]), body)
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([count, boolean, match]), st.lists(reply, min_size=1, max_size=2))
    # one of each outcome on every run, whatever the strategy draws
    @example(count, [(MSG_STERM_COUNT, COUNT.pack(2)), (MSG_RESULT, COUNT.pack(1))])
    @example(boolean, [(MSG_RESULT, bytes(35))])
    @example(match, [(MSG_ERROR, b"not json")])
    def check(eq, answers):
        replies.append(answers)
        try:
            res = execute_search(listener.getsockname(), demo_keys, eq, timeout=10)
        except (ServiceError, WireError) as exc:
            seen.add(type(exc))
            return
        assert len(res) == COUNT.size if eq is count else len(res) % ENC_ID_LEN == 0
        seen.add(type(res))

    try:
        check()
    finally:
        # accept() does not wake when its socket closes: wake it, so that
        # no thread outlives the test (a later build forks only when this
        # process runs one thread)
        stop.set()
        socket.create_connection(listener.getsockname(), timeout=10).close()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()
    assert len(seen) == 3, seen
