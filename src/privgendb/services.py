"""Networked deployment: untrusted data server, trusted vetter, query client.

The data server holds only the encrypted database and executes the search
protocol: round one opens a search on the anchor tag and answers the result
itself when that already decides the search (no cross-terms, or an empty
chain), and the chain's tuple count otherwise. Round two then runs in
rounds, each over the counters still undecided: a column round takes one
token per counter, of one cross-term, and the server answers the undecided
counters' bitmap, or the result once every tuple is decided; a row round
takes every column left and is answered with the result. These search
frames have the raw layouts that ``wire`` defines, and the engine writes and
reads every body, and sets which round comes next: ``search_init``,
``generate_token``, ``TokenRounds`` on the vetter, ``SearchCore`` on the
data server, which opens from the init and finishes into the result. This
module only moves the bytes. The vetter holds the keys
and the policy: it admits or denies user queries, drives the search, decrypts
results, and applies release vetting. Users speak plaintext to the vetter
only.
"""

from __future__ import annotations

import logging
import os
import socket
import socketserver
import threading
import time
from datetime import datetime, timezone

from .crypto import ELEMENT_LEN, ENC_ID_LEN, KeySet, load_keys
from .encoding import QueryError, encode_query, parse_query
from .engine import (
    GAMMA_COUNT,
    Policy,
    SearchCore,
    TamperingError,
    TokenRounds,
    decrypt_ids,
    generate_token,
    parse_policy,
    search_init,
    vet_count,
    vet_request,
)
from .index import CorruptIndexError, Egdb, load_egdb
from .wire import (
    COUNT,
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
    read_frame,
    send_frame,
)

log = logging.getLogger("privgendb.services")

_QUICKACK = getattr(socket, "TCP_QUICKACK", None)  # Linux only

# Counters per token frame. Each round sends each frame as soon as its tokens
# are made, so the data server evaluates one frame while the vetter makes the
# next. Smaller frames overlap more, but each is one more write, one more
# read and one more evaluation call at the server: on deploybench's
# phenotype-scan on 2 cores, 8 was faster than 4, 16 and 32.
FRAME_COUNTERS = 8
# Connections each server serves at once, each with its own thread; on the
# data server, each also holds at most one open search (its chain array).
MAX_CONNECTIONS = 256


class ServiceError(Exception):
    """A peer reported an error or broke the protocol."""


def parse_hostport(text: str) -> "tuple[str, int]":
    """``host:port`` or ``[v6 address]:port`` as an address tuple, without
    the brackets; ValueError unless the port is 0-65535."""
    host, sep, port = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {text!r}")
    if not 0 <= (number := int(port)) <= 65535:
        raise ValueError(f"port must be 0-65535, got {port} in {text!r}")
    return host, number


def format_hostport(addr) -> str:
    """An address tuple as ``parse_hostport`` reads it back."""
    host, port = addr[:2]
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


class _BoundedServer(socketserver.ThreadingTCPServer):
    """One thread per connection, at most ``MAX_CONNECTIONS`` at once.

    It binds IPv6 when the host is an IPv6 address, IPv4 otherwise. A
    connection over the cap gets ``MSG_ERROR`` and is closed before any
    thread starts for it.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr, handler):
        self.slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self.address_family = socket.AF_INET6 if ":" in addr[0] else socket.AF_INET
        super().__init__(addr, handler)

    def process_request(self, request, client_address):
        if not self.slots.acquire(blocking=False):
            log.warning("refused a connection: %d already open", MAX_CONNECTIONS)
            try:
                send_frame(request, MSG_ERROR,
                           {"error": f"too many connections (limit {MAX_CONNECTIONS})"})
            except OSError:
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self.slots.release()  # no thread started to release it
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()


# --- data server -----------------------------------------------------------------

class DataServer(_BoundedServer):
    """Serves the encrypted database; holds no keys and sees no plaintext.

    Each connection holds at most one open search.
    """

    def __init__(self, addr, egdb: Egdb):
        self.egdb = egdb
        super().__init__(addr, _DataHandler)


class _DataHandler(socketserver.StreamRequestHandler):
    timeout = 120
    disable_nagle_algorithm = True

    def handle(self):
        core = None  # this connection's open search; it ends with the connection
        while True:
            self._quick_ack()
            try:
                mtype, obj, _ = read_frame(self.rfile)
            except WireError as exc:
                self._error(f"bad frame: {exc}")
                return
            except (TimeoutError, ConnectionError):
                return  # idle past the handler's timeout, or reset by the peer
            if mtype == 0:
                return  # clean disconnect
            try:
                if mtype == MSG_SEARCH_INIT and core is None:
                    core = self._init(obj)
                elif mtype in (MSG_XTOKENS, MSG_XCOLUMN) and core is not None:
                    core = self._tokens(core, obj, mtype == MSG_XCOLUMN)
                elif mtype == MSG_SEARCH_INIT:
                    raise WireError("a search is already open on this connection")
                elif mtype in (MSG_XTOKENS, MSG_XCOLUMN):
                    raise WireError("token frame without an open search")
                else:
                    raise WireError(f"unexpected message type {mtype}")
            except WireError as exc:
                self._error(str(exc))
                return
            except CorruptIndexError as exc:
                self._error(f"index corrupt: {exc}")
                return

    def _quick_ack(self):
        """ACK the next frame as soon as it is read, not on the delayed-ACK timer.

        The vetter streams round two frame by frame. A hop in between that
        leaves Nagle's algorithm on (a TLS terminator, a load balancer)
        holds each frame until the one before is ACKed, and this end would
        otherwise delay that ACK by 40 ms or more. Linux clears the flag
        again as the connection goes on, so it is set before every read.
        """
        if _QUICKACK is not None:
            self.connection.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)

    def _error(self, detail: str):
        log.warning("search protocol error: %s", detail)
        try:
            send_frame(self.connection, MSG_ERROR, {"error": detail})
        except OSError:
            pass

    def _init(self, body: bytes) -> "SearchCore | None":
        """Open a search; returns its core, or None when round one answered it."""
        core = SearchCore(self.server.egdb, body)
        if core.done:
            send_frame(self.connection, MSG_RESULT, core.finish())
            return None
        send_frame(self.connection, MSG_STERM_COUNT, COUNT.pack(len(core.tuples)))
        return core

    def _tokens(self, core: SearchCore, body: bytes, column: bool) -> "SearchCore | None":
        """One row or column frame; returns the core, or None once its result went.

        After a round's last counter it answers the result if every tuple
        is decided, and the undecided counters' bitmap otherwise.
        """
        core.feed(body, column)
        if core.round_open:
            return core
        if core.done:
            send_frame(self.connection, MSG_RESULT, core.finish())
            return None
        send_frame(self.connection, MSG_UNDECIDED, core.next_round())
        return core


# --- vetter-side search client ------------------------------------------------------

def execute_search(server_addr, keys: KeySet, eq, on_frame=None,
                   timeout: float = 60.0, stats: "dict | None" = None) -> bytes:
    """Drive the search protocol against a data server; returns the result body.

    The body is ``SearchCore.finish``'s: one ``wire.COUNT`` for a count, or
    the ciphertexts back to back for ``decrypt_ids``. A body of the wrong
    shape for the query fails with ServiceError.

    Round one carries the result when it already decides the search (no
    cross-terms, or an empty chain); otherwise it carries the chain length,
    and round two runs the rounds ``engine.TokenRounds`` sets: a column
    round as ``MSG_XCOLUMN`` frames, a row round as ``MSG_XTOKENS`` frames,
    ``FRAME_COUNTERS`` of the round's counters to a frame. A frame's body is
    the bytes ``generate_token`` returns for its counters and columns, sent
    as they are; the layout is the engine's alone. Each frame goes out as
    soon as its tokens are made, so the server evaluates one frame while the
    next is being made. After a column round the server answers the result,
    or a ``MSG_UNDECIDED`` bitmap that sets the next round; a bitmap that
    ``TokenRounds.advance`` refuses fails the search with ServiceError.

    Nagle's algorithm is off at both ends and the data server quick-ACKs,
    so no frame waits on a delayed ACK: the server answers only after a
    round's last counter, and such a wait would stall the search. If the
    server refuses a frame and hangs up while later frames are being sent,
    the search fails with the server's reason, not the broken pipe.

    ``timeout`` is a deadline for the whole search, in seconds: it is
    checked before each token frame, every socket operation may take only
    the time left, and once it has passed the search fails with
    ServiceError. So a data server that claims a huge chain in round one
    holds the caller no longer than ``timeout``.

    ``on_frame(direction, msg_type, body_bytes)`` observes every frame; the
    transcript tests use it to audit exactly what a network eavesdropper (or
    the server itself) gets to see. ``stats``, if given, gets ``tokens``,
    the tokens sent, and ``rounds``, the token rounds begun.
    """
    deadline = time.monotonic() + timeout
    late = f"search ran past its {timeout:g} s deadline"
    stats = {} if stats is None else stats
    stats.update(tokens=0, rounds=0)

    def time_left() -> float:
        left = deadline - time.monotonic()
        if left <= 0:
            raise ServiceError(late)
        return left

    with socket.create_connection(server_addr, timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rd = sock.makefile("rb")

        def send(mtype, obj):
            sock.settimeout(time_left())
            try:
                frame = send_frame(sock, mtype, obj)
            except TimeoutError:
                raise ServiceError(late) from None
            if on_frame:
                on_frame("send", mtype, frame[5:])

        def recv():
            sock.settimeout(time_left())
            try:
                mtype, obj, body = read_frame(rd)
            except TimeoutError:
                raise ServiceError(late) from None
            if mtype == 0:
                raise ServiceError("server closed the connection")
            if on_frame:
                on_frame("recv", mtype, body)
            if mtype == MSG_ERROR:
                raise ServiceError(obj.get("error", "server error"))
            return mtype, obj

        send(MSG_SEARCH_INIT, search_init(eq, keys))
        mtype, body = recv()
        if mtype == MSG_STERM_COUNT:
            if len(body) != COUNT.size or (inv_len := COUNT.unpack(body)[0]) < 1:
                raise ServiceError("malformed tuple-count response")
            rounds = TokenRounds(eq, inv_len)
            while True:
                stats["rounds"] += 1
                frame_type = MSG_XCOLUMN if rounds.column else MSG_XTOKENS
                for i in range(0, len(rounds.counters), FRAME_COUNTERS):
                    tokens = generate_token(eq, keys, rounds.counters[i : i + FRAME_COUNTERS],
                                            rounds.col, rounds.ncols)
                    try:
                        send(frame_type, tokens)
                    except ConnectionError:
                        # the server refused an earlier frame and hung up;
                        # its MSG_ERROR is then already on the socket, and
                        # recv raises it as a ServiceError
                        try:
                            recv()
                        except (OSError, WireError):
                            pass
                        raise
                    stats["tokens"] += len(tokens) // ELEMENT_LEN
                mtype, body = recv()
                if mtype != MSG_UNDECIDED:
                    break
                try:
                    rounds.advance(body)
                except ValueError as exc:
                    raise ServiceError(f"malformed undecided bitmap: {exc}") from None
        if mtype != MSG_RESULT:
            raise ServiceError(f"expected result, got message type {mtype}")
        if eq.gamma == GAMMA_COUNT:
            if len(body) != COUNT.size:
                raise ServiceError("malformed count result")
        elif len(body) % ENC_ID_LEN:
            raise ServiceError("malformed id result")
        return body


# --- vetter ---------------------------------------------------------------------------

class Vetter(_BoundedServer):
    """Trusted gatekeeper: holds the keys, enforces policy, vets releases."""

    def __init__(self, addr, keys: KeySet, policy: Policy, server_addr,
                 audit_path=None):
        self.keys = keys
        self.policy = policy
        self.server_addr = server_addr
        self.audit_path = audit_path
        self.audit_lock = threading.Lock()
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
            except (TimeoutError, ConnectionError):
                return  # idle past the handler's timeout, or reset by the peer
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
        stats = {}
        try:
            result = execute_search(srv.server_addr, srv.keys, eq, stats=stats)
            failure = None
        except (OSError, WireError, ServiceError) as exc:
            failure = exc
        ms_upstream = (time.perf_counter() - t_upstream) * 1e3

        def audit(outcome: str) -> None:
            ms_total = (time.perf_counter() - t_request) * 1e3
            srv.audit(user, qtype, where,
                      f"{outcome} tokens={stats['tokens']} rounds={stats['rounds']} "
                      f"ms_total={ms_total:.3f} ms_upstream={ms_upstream:.3f}")

        if failure is not None:
            audit("error:upstream")
            self._send(MSG_ERROR, {"error": f"data server unavailable: {failure}"})
            return
        if eq.gamma == GAMMA_COUNT:
            released = vet_count(COUNT.unpack(result)[0], srv.policy)
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
            ids = decrypt_ids(result, eq.sterm, srv.keys)
        except TamperingError as exc:
            audit("error:tampering")
            self._send(MSG_ERROR, {"error": str(exc)})
            return
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
        if mtype in RAW_TYPES:
            raise ServiceError(f"the vetter sent a data-server frame (type {mtype})")
        return mtype, body


# --- daemon entry points ------------------------------------------------------------------

def serve_data(egdb_path, listen: str) -> None:
    addr = parse_hostport(listen)  # a bad address fails before a long load
    t0 = time.perf_counter()
    egdb = load_egdb(egdb_path)
    load_ms = (time.perf_counter() - t0) * 1e3
    nbytes = os.path.getsize(egdb_path)
    with DataServer(addr, egdb) as srv:
        log.info("data server on %s (%d entries, %d bytes, loaded in %.1f ms)",
                 format_hostport(srv.server_address), egdb.params.n_entries, nbytes, load_ms)
        srv.serve_forever()


def serve_vetter(keys_path, policy_path, server: str, listen: str,
                 audit_path=None) -> None:
    keys = load_keys(keys_path)
    with open(policy_path, "r", encoding="utf-8") as fh:
        policy = parse_policy(fh.read())
    addr = parse_hostport(listen)
    with Vetter(addr, keys, policy, parse_hostport(server), audit_path) as srv:
        log.info("vetter on %s (%d users)", format_hostport(srv.server_address),
                 len(policy.roles))
        srv.serve_forever()
