"""Networked deployment: untrusted data server, trusted vetter, query client.

The data server holds only the encrypted database and executes the two-round
search protocol (anchor-tag init -> tuple count, then token batches ->
result). The vetter holds the keys and the policy: it admits or denies user
queries, drives the search, decrypts results, and applies release vetting.
Users speak plaintext to the vetter only.
"""

from __future__ import annotations

import logging
import secrets
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .crypto import ELEMENT_LEN, KeySet, load_keys
from .encoding import QueryError, encode_query, parse_query
from .engine import (
    GAMMA_COUNT,
    GAMMA_MATCH,
    Policy,
    ResultSet,
    SearchCore,
    TamperingError,
    decrypt_ids,
    generate_token,
    parse_policy,
    vet_count,
    vet_ids,
    vet_request,
)
from .index import CorruptIndexError, Egdb, TSet, load_egdb
from .wire import (
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
    read_frame,
    send_frame,
    send_frames,
)

log = logging.getLogger("privgendb.services")

DEFAULT_BATCH = 256
# Live search sessions a data server holds at once; each keeps its parsed
# anchor chain until its final batch, a failed batch, the end of the
# connection that opened it or the idle timeout.
MAX_SESSIONS = 256


class ServiceError(Exception):
    """A peer reported an error or broke the protocol."""


def parse_hostport(text: str) -> "tuple[str, int]":
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {text!r}")
    return host, int(port)


# --- data server -----------------------------------------------------------------

@dataclass
class _Session:
    core: SearchCore
    last_active: float = field(default_factory=time.monotonic)


class DataServer(socketserver.ThreadingTCPServer):
    """Serves the encrypted database; holds no keys and sees no plaintext."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr, egdb: Egdb, idle_timeout: float = 300.0):
        self.egdb = egdb
        self.idle_timeout = idle_timeout
        self.sessions: dict = {}
        self.sessions_lock = threading.Lock()
        super().__init__(addr, _DataHandler)

    def purge_expired(self) -> None:
        deadline = time.monotonic() - self.idle_timeout
        with self.sessions_lock:
            stale = [sid for sid, s in self.sessions.items() if s.last_active < deadline]
            for sid in stale:
                del self.sessions[sid]
        if stale:
            log.info("expired %d idle session(s)", len(stale))


class _DataHandler(socketserver.StreamRequestHandler):
    timeout = 120
    disable_nagle_algorithm = True

    def handle(self):
        srv: DataServer = self.server
        self.opened: set = set()  # ids of the sessions this connection started
        try:
            while True:
                try:
                    mtype, obj, _ = read_frame(self.rfile)
                except WireError as exc:
                    self._error(f"bad frame: {exc}")
                    return
                if mtype == 0:
                    return  # clean disconnect
                try:
                    if mtype == MSG_SEARCH_INIT:
                        self._init(srv, obj)
                    elif mtype == MSG_XTOKENS:
                        self._tokens(srv, obj)
                    else:
                        self._error(f"unexpected message type {mtype}")
                        return
                except WireError as exc:
                    self._error(str(exc))
                    return
                except CorruptIndexError as exc:
                    self._error(f"index corrupt: {exc}")
                    return
        finally:
            # a session ends with its connection, whether or not it finished
            with srv.sessions_lock:
                for sid in self.opened:
                    srv.sessions.pop(sid, None)

    def _error(self, detail: str):
        log.warning("search protocol error: %s", detail)
        try:
            send_frame(self.connection, MSG_ERROR, {"error": detail})
        except OSError:
            pass

    def _init(self, srv: DataServer, obj: dict):
        srv.purge_expired()
        gamma = obj.get("gamma")
        if gamma not in (1, 2, 3):
            raise WireError(f"bad gamma {gamma!r}")
        k_prime = obj.get("k_prime")
        if gamma == GAMMA_MATCH:
            if not isinstance(k_prime, int) or k_prime < 1:
                raise WireError("match searches need integer k_prime >= 1")
        elif k_prime is not None:
            raise WireError("k_prime only applies to match searches")
        core = SearchCore(srv.egdb, b64d(obj.get("stag")), gamma, k_prime)
        sid = secrets.token_hex(16)
        with srv.sessions_lock:
            if len(srv.sessions) >= MAX_SESSIONS:
                raise WireError(f"too many open sessions (limit {MAX_SESSIONS})")
            srv.sessions[sid] = _Session(core)
            self.opened.add(sid)
        send_frame(self.connection, MSG_STERM_COUNT,
                   {"session": sid, "count": len(core.tuples)})

    def _tokens(self, srv: DataServer, obj: dict):
        """One token batch. The session is taken out of the map while the
        batch runs and goes back only if the batch succeeds without being
        final, so a batch that fails drops its session with the error."""
        srv.purge_expired()
        sid = obj.get("session")
        with srv.sessions_lock:
            sess = srv.sessions.pop(sid, None) if isinstance(sid, str) else None
        if sess is None:
            raise WireError("unknown or expired session")
        core = sess.core
        start = obj.get("start")
        pos = obj.get("pos")
        neg = obj.get("neg")
        final = obj.get("final")
        if not isinstance(start, int) or start != core.next_counter:
            raise WireError(f"out-of-order token batch (expected {core.next_counter})")
        if not isinstance(pos, list) or not isinstance(neg, list) or len(pos) != len(neg):
            raise WireError("token arrays must be equal-length lists")
        if not isinstance(final, bool):
            raise WireError("final flag must be a boolean")
        if core.gamma == GAMMA_MATCH and any(neg):
            raise WireError("match searches cannot carry negative tokens")
        core.feed(self._elements(pos), self._elements(neg))
        if not final:
            sess.last_active = time.monotonic()
            with srv.sessions_lock:
                srv.sessions[sid] = sess
            return
        self.opened.discard(sid)
        res = core.finish()
        if res.gamma == GAMMA_COUNT:
            send_frame(self.connection, MSG_RESULT, {"session": sid, "count": res.count})
        else:
            send_frame(self.connection, MSG_RESULT,
                       {"session": sid, "enc_ids": [b64e(e) for e in res.enc_ids]})

    @staticmethod
    def _elements(rows) -> list:
        """Per-counter token lists, each token checked for shape on arrival.

        Only the structure is checked here (base64, 33 bytes, compressed
        prefix); whether a token is a curve point is checked by the search
        core if and when it uses the token.
        """
        out = []
        for row in rows:
            if not isinstance(row, list):
                raise WireError("token rows must be lists")
            toks = [b64d(text) for text in row]
            for tok in toks:
                if len(tok) != ELEMENT_LEN or tok[0] not in (2, 3):
                    raise WireError(f"malformed group element: want {ELEMENT_LEN} bytes "
                                    "starting 0x02 or 0x03")
            out.append(toks)
        return out


# --- vetter-side search client ------------------------------------------------------

def execute_search(server_addr, keys: KeySet, eq, batch: int = DEFAULT_BATCH,
                   on_frame=None, timeout: float = 60.0) -> ResultSet:
    """Drive the two-round protocol against a data server.

    Each round goes out in one write on a socket with Nagle's algorithm off:
    the server answers only the final token batch, so a batch held back for
    an ACK would stall the search by the peer's delayed-ACK timer. ``batch``
    sets the counters per token frame, not the number of writes.

    ``on_frame(direction, msg_type, body_bytes)`` observes every frame; the
    transcript tests use it to audit exactly what a network eavesdropper (or
    the server itself) gets to see.
    """
    with socket.create_connection(server_addr, timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rd = sock.makefile("rb")

        def send(frames):
            raw = send_frames(sock, frames)
            if on_frame:
                for (mtype, _), frame in zip(frames, raw):
                    on_frame("send", mtype, frame[5:])

        def recv():
            mtype, obj, body = read_frame(rd)
            if mtype == 0:
                raise ServiceError("server closed the connection")
            if on_frame:
                on_frame("recv", mtype, body)
            if mtype == MSG_ERROR:
                raise ServiceError(obj.get("error", "server error"))
            return mtype, obj

        init = {"stag": b64e(TSet.tag(keys.k_t, eq.sterm)), "gamma": eq.gamma}
        if eq.gamma == GAMMA_MATCH:
            init["k_prime"] = eq.k_prime
        send([(MSG_SEARCH_INIT, init)])
        mtype, obj = recv()
        if mtype != MSG_STERM_COUNT:
            raise ServiceError(f"expected tuple count, got message type {mtype}")
        sid = obj.get("session")
        inv_len = obj.get("count")
        if not isinstance(sid, str) or not isinstance(inv_len, int) or inv_len < 0:
            raise ServiceError("malformed tuple-count response")

        token = generate_token(eq, keys, inv_len)
        frames = []
        start = 1
        while True:
            hi = min(start - 1 + batch, token.counters)
            final = hi >= token.counters
            frames.append((MSG_XTOKENS, {
                "session": sid,
                "start": start,
                "pos": [[b64e(e.encode()) for e in token.pos[c]] for c in range(start - 1, hi)],
                "neg": [[b64e(e.encode()) for e in token.neg[c]] for c in range(start - 1, hi)],
                "final": final,
            }))
            if final:
                break
            start = hi + 1
        send(frames)
        mtype, obj = recv()
        if mtype != MSG_RESULT:
            raise ServiceError(f"expected result, got message type {mtype}")
        if eq.gamma == GAMMA_COUNT:
            count = obj.get("count")
            if not isinstance(count, int) or count < 0:
                raise ServiceError("malformed count result")
            return ResultSet(eq.gamma, count=count)
        enc = obj.get("enc_ids")
        if not isinstance(enc, list):
            raise ServiceError("malformed id result")
        return ResultSet(eq.gamma, enc_ids=tuple(b64d(x) for x in enc))


# --- vetter ---------------------------------------------------------------------------

class Vetter(socketserver.ThreadingTCPServer):
    """Trusted gatekeeper: holds the keys, enforces policy, vets releases."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr, keys: KeySet, policy: Policy, server_addr,
                 audit_path=None, batch: int = DEFAULT_BATCH):
        self.keys = keys
        self.policy = policy
        self.server_addr = server_addr
        self.audit_path = audit_path
        self.audit_lock = threading.Lock()
        self.batch = batch
        super().__init__(addr, _VetterHandler)

    def audit(self, user: str, query_type: str, where: str, outcome: str) -> None:
        line = (
            f"{datetime.now(timezone.utc).isoformat()} user={user!r} "
            f"type={query_type} where={where!r} outcome={outcome}\n"
        )
        if self.audit_path is None:
            log.info("audit: %s", line.strip())
            return
        with self.audit_lock:
            with open(self.audit_path, "a", encoding="utf-8") as fh:
                fh.write(line)


class _VetterHandler(socketserver.StreamRequestHandler):
    timeout = 300
    disable_nagle_algorithm = True

    def handle(self):
        while True:
            try:
                mtype, obj, _ = read_frame(self.rfile)
            except WireError as exc:
                self._send(MSG_ERROR, {"error": f"bad frame: {exc}"})
                return
            if mtype == 0:
                return
            if mtype != MSG_QUERY:
                self._send(MSG_ERROR, {"error": f"unexpected message type {mtype}"})
                return
            self._query(obj)

    def _send(self, mtype, obj):
        try:
            send_frame(self.connection, mtype, obj)
        except OSError:
            pass

    def _query(self, obj: dict):
        t_request = time.perf_counter()
        srv: Vetter = self.server
        user = obj.get("user", "")
        qtype = obj.get("type", "")
        where = obj.get("where", "")
        k_prime = obj.get("k_prime")
        if not isinstance(user, str) or not isinstance(qtype, str) or not isinstance(where, str):
            srv.audit(str(user), str(qtype), str(where), "denied:parse")
            self._send(MSG_DENIED, {"reason": "parse", "detail": "malformed query fields"})
            return
        ok, why = vet_request(user, qtype, srv.policy) if qtype in ("count", "boolean", "match") \
            else (False, f"unknown query type {qtype!r}")
        if not ok:
            srv.audit(user, qtype, where, "denied:auth")
            self._send(MSG_DENIED, {"reason": "auth", "detail": why})
            return
        try:
            query = parse_query(where, qtype, k_prime, user)
            eq = encode_query(query)
        except QueryError as exc:
            srv.audit(user, qtype, where, "denied:parse")
            self._send(MSG_DENIED, {"reason": "parse", "detail": str(exc)})
            return
        t_upstream = time.perf_counter()
        try:
            res = execute_search(srv.server_addr, srv.keys, eq, batch=srv.batch)
            failure = None
        except (OSError, WireError, ServiceError) as exc:
            failure = exc
        ms_upstream = (time.perf_counter() - t_upstream) * 1e3

        def audit(outcome: str) -> None:
            ms_total = (time.perf_counter() - t_request) * 1e3
            srv.audit(user, qtype, where,
                      f"{outcome} ms_total={ms_total:.3f} ms_upstream={ms_upstream:.3f}")

        if failure is not None:
            audit("error:upstream")
            self._send(MSG_ERROR, {"error": f"data server unavailable: {failure}"})
            return
        if eq.gamma == GAMMA_COUNT:
            released = vet_count(res.count, srv.policy)
            if released is None:
                audit("denied:threshold")
                self._send(MSG_DENIED, {
                    "reason": "threshold",
                    "detail": f"count below release threshold {srv.policy.threshold}",
                })
                return
            audit(f"answered:count={released}")
            self._send(MSG_ANSWER, {"count": released})
            return
        try:
            ids = decrypt_ids(res.enc_ids, eq.sterm, srv.keys)
        except TamperingError as exc:
            audit("error:tampering")
            self._send(MSG_ERROR, {"error": str(exc)})
            return
        ids = vet_ids(ids)
        audit(f"answered:ids={len(ids)}")
        self._send(MSG_ANSWER, {"ids": ids})


# --- user-side client -------------------------------------------------------------------

def submit_query(vetter_addr, user: str, query_type: str, where: str,
                 k_prime: "int | None" = None, timeout: float = 300.0) -> "tuple[int, dict]":
    """Send one query to a vetter; returns (message type, body)."""
    obj = {"user": user, "type": query_type, "where": where}
    if k_prime is not None:
        obj["k_prime"] = k_prime
    with socket.create_connection(vetter_addr, timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_frame(sock, MSG_QUERY, obj)
        rd = sock.makefile("rb")
        mtype, body, _ = read_frame(rd)
        if mtype == 0:
            raise ServiceError("vetter closed the connection")
        return mtype, body


# --- daemon entry points ------------------------------------------------------------------

def serve_data(egdb_path, listen: str, idle_timeout: float = 300.0) -> None:
    egdb = load_egdb(egdb_path)
    addr = parse_hostport(listen)
    with DataServer(addr, egdb, idle_timeout) as srv:
        log.info("data server on %s:%d (%d entries)", *srv.server_address,
                 egdb.params.n_entries)
        srv.serve_forever()


def serve_vetter(keys_path, policy_path, server: str, listen: str,
                 audit_path=None) -> None:
    keys = load_keys(keys_path)
    with open(policy_path, "r", encoding="utf-8") as fh:
        policy = parse_policy(fh.read())
    addr = parse_hostport(listen)
    with Vetter(addr, keys, policy, parse_hostport(server), audit_path) as srv:
        log.info("vetter on %s:%d (%d users)", *srv.server_address, len(policy.roles))
        srv.serve_forever()
