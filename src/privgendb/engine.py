"""Query execution: trapdoor generation, encrypted search, result vetting.

The anchor keyword's tuple chain drives the search: for the c-th tuple the
server raises each supplied token to that tuple's blinding scalar y and tests
the x-coordinate of the result against the cross-tag filter. Positive tokens
must all be present, negative tokens must all be absent; threshold (match)
queries instead count hits among a single token list and compare against k'.
The server never learns which keywords are behind the tokens, only how many
there are.

This module alone writes and reads the bodies of a search: ``search_init``
packs the init and ``generate_token`` the tokens, and ``SearchCore``, the
only implementation of the server's side, opens from the init, reads the
tokens, writes the undecided bitmaps and finishes into the result body. The
in-process ``run_query`` and the networked data server both go through it,
with the same checks. The core keeps the anchor chain as the one array
``TSet.retrieve`` returns, from the open to the result: a search without
cross-terms takes the row count or the ciphertext column, and a search with
them cuts y out of the array for each tuple it evaluates. It decodes a token
and raises it to y (both inside libcrypto) only when the evaluation actually
reaches that token.

Round two sends tokens on demand. A column round sends one cross-term's
column to every counter still undecided, and the server answers which ones
still are; once fewer than ``COLUMN_MIN`` are, a row round sends them every
column left. ``round_columns`` is the rule, ``TokenRounds`` the vetter's
state, and ``read_undecided`` reads the server's bitmaps; ``run_query`` and
``services.execute_search`` drive the same rounds with them. So the server
receives a token only when its evaluation reaches that column, except in a
row round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crypto import (
    ELEMENT_LEN,
    ENC_ID_LEN,
    ORDER,
    AuthenticationError,
    KeySet,
    base_pow,
    exponent_key,
    keyword_bytes,
    keyword_counter,
    prf_f,
    prf_fp,
    pow_x,
    record_aead,
    sym_decrypt,
)
from .encoding import GAMMA, EncodedQuery, Query, encode_query
from .index import Y_LEN, BloomFilter, Egdb, TSet, check_tuples
from .wire import COUNT, INIT_FIELDS, WireError

GAMMA_BOOLEAN = GAMMA["boolean"]
GAMMA_COUNT = GAMMA["count"]
GAMMA_MATCH = GAMMA["match"]


class TamperingError(Exception):
    """A result ciphertext failed authentication; the server misbehaved."""


def search_init(eq: EncodedQuery, keys: KeySet) -> bytes:
    """The ``MSG_SEARCH_INIT`` body of an encoded query, as ``SearchCore`` reads it.

    The anchor keyword's tuple-set tag, then ``wire.INIT_FIELDS``: gamma, the
    positive and negative cross-term counts, and k' (0 unless a match).
    """
    return TSet.tag(keys.k_t, eq.sterm) + INIT_FIELDS.pack(
        eq.gamma, len(eq.positive_xterms), len(eq.negative_xterms), eq.k_prime or 0)


def generate_token(eq: EncodedQuery, keys: KeySet, counters, col: int = 0,
                   ncols: "int | None" = None) -> bytes:
    """Packed token rows of an encoded query, for ``counters`` and ``ncols``
    columns from column ``col`` (every column from ``col`` on when None).

    The columns are the cross-terms, first the positive then the negative
    ones; column g of counter c holds the 33-byte encoding of the token
    h^(z_c * x_g), where z_c blinds the counter and x_g fingerprints g. The
    rows follow ``counters``' order, each row its columns in order. A row
    round's ``MSG_XTOKENS`` body is such rows, and a column round's
    ``MSG_XCOLUMN`` body is rows of one column; ``SearchCore.feed`` reads
    both. No columns, as for a query without cross-terms, give b"". Raises
    ValueError for a counter below 1 or columns past the cross-terms.
    """
    terms = eq.positive_xterms + eq.negative_xterms
    stop = len(terms) if ncols is None else col + ncols
    if not 0 <= col <= stop <= len(terms):
        raise ValueError(f"bad column range {col}..{stop} of {len(terms)} cross-terms")
    xs = [prf_fp(keys.k_x, keyword_bytes(kw)) for kw in terms[col:stop]]
    if not xs:
        return b""
    tokens = []
    for c in counters:
        if c < 1:
            raise ValueError(f"bad counter {c}")
        z = prf_fp(keys.k_z, keyword_counter(eq.sterm, int(c)))
        tokens += [base_pow(z * x % ORDER).encode() for x in xs]
    return b"".join(tokens)


def evaluate_tuple(bloom: BloomFilter, y: bytes, tokens: bytes, col: int, n_pos: int,
                   width: int, gamma: int, k_prime: int, hits: int = 0):
    """Evaluate one tuple from column ``col`` on, with early exit.

    ``y`` is the tuple's 32-byte big-endian scalar and ``tokens`` its packed
    tokens of columns ``col``, ``col`` + 1, ...: the query has ``width``
    columns, the ``n_pos`` positive ones first. ``hits`` is a match's count
    of hits before ``col``. Returns ``(verdict, hits)``: the verdict is True
    or False once the tuple is decided and None while it waits on a later
    column, and ``hits`` is the match's count after the tokens raised (0 for
    other searches). A count or boolean tuple is undecided while it has
    passed every token so far; a match tuple while hits < k' <= hits plus
    the columns left. The scalar is checked and converted for ``pow_x`` only
    if some token must be raised, and each token is cut out and decoded only
    when the evaluation reaches it. Raises ValueError for a reached token
    that is not a curve point.
    """
    end = len(tokens)
    if gamma == GAMMA_MATCH:
        left = width - col
        if hits + left < k_prime:
            return False, hits
        key = exponent_key(int.from_bytes(y, "big"))
        for i in range(0, end, ELEMENT_LEN):
            left -= 1
            if pow_x(key, tokens[i : i + ELEMENT_LEN]) in bloom:
                hits += 1
                if hits >= k_prime:
                    return True, hits
            elif hits + left < k_prime:
                return False, hits
        return None, hits  # left > 0: a miss with no columns left decides
    key = exponent_key(int.from_bytes(y, "big"))
    split = min(max(n_pos - col, 0) * ELEMENT_LEN, end)
    for i in range(0, split, ELEMENT_LEN):
        if pow_x(key, tokens[i : i + ELEMENT_LEN]) not in bloom:
            return False, 0
    for i in range(split, end, ELEMENT_LEN):
        if pow_x(key, tokens[i : i + ELEMENT_LEN]) in bloom:
            return False, 0
    return (True if col + end // ELEMENT_LEN == width else None), 0


# Counters a round must hold for the vetter to send it one column. A column
# round saves the tokens of the tuples its column decides, but costs a round
# trip; once fewer counters are undecided, a row round sends each of them
# every column left and ends the search. Without the row round, deploybench's
# patient-match matches (one tuple, up to 39 columns) would take 2.7 extra
# round trips on average and up to 10 (simulated, seed 1). On its
# phenotype-scan, a threshold of 1 / 4 / 8 / 16 sends 3.45 / 3.51 / 3.62 /
# 4.03 KB per query to the data server, against 7.80 with rows only, in
# 2.46 / 2.12 / 1.62 / 1.25 extra rounds per query (simulated, seed 1). Run
# there on 2 cores (4 seeds of 10 s each), 4 / 8 / 16 gave a median match_ms
# of 15.6 / 15.6 / 14.7 ms, within the runs' spread (14.6-16.5 at 8), and
# 3.52 / 3.68 / 4.04 KB per query.
COLUMN_MIN = 8


def round_columns(undecided: int, left: int) -> int:
    """The columns a round sends its ``undecided`` counters, ``left`` columns
    being left: one, a column round, while at least ``COLUMN_MIN`` counters
    are undecided and two or more columns are left; otherwise all of them,
    a row round, which decides every tuple."""
    return 1 if undecided >= COLUMN_MIN and left >= 2 else left


def read_undecided(bitmap: bytes, r: int) -> np.ndarray:
    """The undecided mask over a round of ``r`` counters, from its bitmap.

    Raises ValueError for a bitmap that is not ceil(r / 8) bytes, that sets
    a bit past the round, or that sets none: a search with no undecided
    tuple ends with its result.
    """
    if len(bitmap) != (size := -(-r // 8)):
        raise ValueError(f"a bitmap over {r} counters is {size} bytes; got {len(bitmap)}")
    bits = np.unpackbits(np.frombuffer(bitmap, dtype=np.uint8), bitorder="little")
    if bits[r:].any():
        raise ValueError(f"bits set past the round's {r} counters")
    if not bits.any():
        raise ValueError("no counter is undecided")
    return bits[:r].astype(bool)


class TokenRounds:
    """The vetter's side of round two: the tokens each round asks for.

    The first round's ``counters`` are the whole chain, in counter order,
    and ``col`` is a round's first column. ``ncols`` follows from
    ``round_columns``; ``column`` says whether the round is a column round
    (one column, of two or more left). ``advance`` reads the server's
    ``MSG_UNDECIDED`` bitmap after a column round: its set bits pick the
    next round's counters, from the next column. A server that marks every
    counter undecided gets at most one token per counter and column, and
    the search ends within one round per column.
    """

    __slots__ = ("counters", "col", "ncols", "width")

    def __init__(self, eq: EncodedQuery, chain: int):
        self.width = len(eq.xterms)
        self.counters = range(1, chain + 1)  # lazy: round one's count is the server's word
        self.col = 0
        self.ncols = round_columns(chain, self.width)

    @property
    def column(self) -> bool:
        return self.ncols < self.width - self.col

    def advance(self, bitmap: bytes) -> None:
        """Move to the next round; ValueError for a bitmap after a row round
        or one ``read_undecided`` refuses."""
        if not self.column:
            raise ValueError("a row round decides every tuple; got a bitmap after one")
        undecided = read_undecided(bitmap, len(self.counters))
        self.counters = np.asarray(self.counters)[undecided]
        self.col += 1
        self.ncols = round_columns(len(self.counters), self.width - self.col)


class SearchCore:
    """The server's side of one search over one anchor chain.

    It opens from a ``search_init`` body. Before it retrieves anything, it
    refuses as WireError an init that is not a 16- or 32-byte tag and the
    fields, a gamma that is no query type, a match with k' = 0 or negative
    cross-terms, and a k' on any other search. It then retrieves the chain
    as one checked (n, TUPLE_LEN) array, ``tuples``, whose row c - 1 is
    counter c's y scalar and encrypted record id; the array stays as it is
    to the result, and ``taken`` marks the rows the result takes. ``n_pos``
    and ``n_neg`` are the positive and negative cross-term counts, the
    query's columns.

    Round two comes in rounds. A round holds ``counters``, the whole chain
    at first, and starts at column ``col``; ``fed`` of its counters have
    been evaluated, and ``undecided`` marks those still undecided. Its
    frames are all column frames, one token per counter, or all row
    frames, every column left; ``column`` records which. ``hits`` holds
    each tuple's match hits across rounds. Once every counter of a round
    is fed, the search is ``done`` if no tuple is undecided, and ``finish``
    returns the result body; otherwise ``next_round`` returns the
    ``MSG_UNDECIDED`` bitmap and opens the next round.

    A search with no cross-terms is done when it opens: a count or boolean
    takes the whole chain (its row count, or its ciphertext column), a match
    (k' >= 1 hits among no tokens) takes nothing. So is a search over an
    empty chain, and an unknown anchor tag gives one, indistinguishable from
    a keyword with no matches.
    """

    __slots__ = ("bloom", "tuples", "taken", "hits", "gamma", "k_prime", "n_pos", "n_neg",
                 "counters", "col", "fed", "column", "undecided")

    def __init__(self, egdb: Egdb, init: bytes):
        tag_len = len(init) - INIT_FIELDS.size
        if tag_len not in (16, 32):
            raise WireError(f"a search init must be a 16- or 32-byte tag and "
                            f"{INIT_FIELDS.size} bytes of fields; got {len(init)} bytes")
        gamma, n_pos, n_neg, k_prime = INIT_FIELDS.unpack_from(init, tag_len)
        if gamma not in (GAMMA_BOOLEAN, GAMMA_COUNT, GAMMA_MATCH):
            raise WireError(f"bad gamma {gamma}")
        if gamma == GAMMA_MATCH:
            if k_prime < 1:
                raise WireError("match searches need k_prime >= 1")
            if n_neg:
                raise WireError("match searches cannot carry negative tokens")
        elif k_prime:
            raise WireError("k_prime only applies to match searches")
        self.bloom = egdb.xfilter
        self.tuples = check_tuples(egdb.tset.retrieve(init[:tag_len]))
        n = len(self.tuples)
        self.taken = np.zeros(n, dtype=bool)
        self.hits = np.zeros(n, dtype=np.uint32) if gamma == GAMMA_MATCH else None
        self.gamma = gamma
        self.k_prime = k_prime
        self.n_pos = n_pos
        self.n_neg = n_neg
        self.counters = np.arange(1, n + 1)
        self.col = 0
        self.fed = 0
        self.column = None
        if not (n_pos or n_neg):
            self.counters = self.counters[:0]
            self.taken[:] = gamma != GAMMA_MATCH
        self.undecided = np.zeros(len(self.counters), dtype=bool)

    @property
    def round_open(self) -> bool:
        """Whether the round still waits on some of its counters."""
        return self.fed < len(self.counters)

    @property
    def done(self) -> bool:
        """Whether every tuple of the chain is decided."""
        return not self.round_open and not self.undecided.any()

    def feed(self, body: bytes, column: bool = False) -> None:
        """Evaluate the round's next counters from a frame body.

        A row frame (``column`` False) holds whole rows of every column left,
        as ``generate_token`` writes them; a column frame one token per
        counter, of the round's column. Before any row is evaluated,
        WireError refuses, in this order: a frame of the other kind than the
        round's earlier ones; a column frame with fewer than two columns
        left; a body that is not a whole, non-zero number of rows (any body,
        for a search without cross-terms); rows past the round; a token
        whose prefix is not 0x02 or 0x03. A reached token that is not a
        curve point raises WireError too.
        """
        if self.column is not None and column != self.column:
            raise WireError("a round's token frames must all be column frames "
                            "or all row frames")
        left = self.n_pos + self.n_neg - self.col
        if column and left < 2:
            raise WireError(f"a column frame needs two or more columns left; {left} left")
        ncols = 1 if column else left
        row_len = ncols * ELEMENT_LEN
        if not body or not row_len or len(body) % row_len:
            raise WireError(f"a token frame must hold one or more rows of the {ncols} "
                            f"declared tokens, {row_len} bytes each; got {len(body)} bytes")
        first = self.fed
        if (last := first + len(body) // row_len) > len(self.counters):
            raise WireError(
                f"token rows for counters {first + 1}..{last} run past the chain of "
                f"{len(self.counters)}" if self.col == 0 else
                f"token rows {first + 1}..{last} run past the round of "
                f"{len(self.counters)} undecided counters")
        counters = self.counters[first:last].tolist()
        prefixes = body[::ELEMENT_LEN]
        if prefixes.translate(None, b"\x02\x03"):
            i = next(i for i, p in enumerate(prefixes) if p not in (2, 3))
            raise WireError(f"malformed group element at counter {counters[i // ncols]}: "
                            f"prefix 0x{prefixes[i]:02x}, want 0x02 or 0x03")
        self.column = column
        self.fed = last
        bloom, gamma, k_prime, n_pos, col, hits = \
            self.bloom, self.gamma, self.k_prime, self.n_pos, self.col, self.hits
        width = n_pos + self.n_neg
        ys = self.tuples[self.counters[first:last] - 1, :Y_LEN].tobytes()
        for i, c in enumerate(counters):
            try:
                verdict, h = evaluate_tuple(bloom, ys[i * Y_LEN : (i + 1) * Y_LEN],
                                            body[i * row_len : (i + 1) * row_len], col,
                                            n_pos, width, gamma, k_prime,
                                            0 if hits is None else int(hits[c - 1]))
            except ValueError as exc:
                raise WireError(f"malformed group element at counter {c}: {exc}") from None
            if verdict is None:
                self.undecided[first + i] = True
            elif verdict:
                self.taken[c - 1] = True
            if hits is not None:
                hits[c - 1] = h

    def next_round(self) -> bytes:
        """The ``MSG_UNDECIDED`` body after a round with undecided counters:
        bit i (bit i % 8 of byte i // 8) set when the round's i-th counter is
        undecided, ceil(r / 8) bytes, zero-padded. The next round holds those
        counters, from the next column."""
        bitmap = np.packbits(self.undecided, bitorder="little").tobytes()
        self.counters = self.counters[self.undecided]
        self.col += 1
        self.fed = 0
        self.column = None
        self.undecided = np.zeros(len(self.counters), dtype=bool)
        return bitmap

    def finish(self) -> bytes:
        """The ``MSG_RESULT`` body: one ``COUNT``, or the taken rows'
        ciphertexts back to back."""
        if self.gamma == GAMMA_COUNT:
            return COUNT.pack(int(self.taken.sum()))
        return self.tuples[self.taken, Y_LEN:].tobytes()


def decrypt_ids(body: bytes, sterm: str, keys: KeySet) -> list:
    """Recover and sort the record ids behind an id result body.

    The body is ciphertexts back to back, ``ENC_ID_LEN`` bytes each, as
    ``SearchCore.finish`` writes them. Each slice must authenticate under the
    anchor keyword's key, so a cut last ciphertext fails as TamperingError.
    """
    aead = record_aead(prf_f(keys.k_s, keyword_bytes(sterm)))
    ids = set()
    for i in range(0, len(body), ENC_ID_LEN):
        try:
            ids.add(sym_decrypt(aead, body[i : i + ENC_ID_LEN]))
        except AuthenticationError as exc:
            raise TamperingError(f"result ciphertext {i // ENC_ID_LEN} "
                                 f"failed authentication") from exc
    return sorted(ids)


def run_query(keys: KeySet, egdb: Egdb, query: Query, freq: "dict | None" = None):
    """Full in-process pipeline; returns a count or a sorted id list.

    Mirrors the networked flow exactly, through the same bodies and rounds:
    round one opens the search from its init, which already decides it when
    it has no cross-terms or an empty chain; round two then feeds each
    round's tokens, as ``TokenRounds`` asks for them, and reads the core's
    bitmap after each column round.
    """
    eq = encode_query(query, freq)
    core = SearchCore(egdb, search_init(eq, keys))
    if not core.done:
        rounds = TokenRounds(eq, len(core.tuples))
        while True:
            core.feed(generate_token(eq, keys, rounds.counters, rounds.col, rounds.ncols),
                      rounds.column)
            if core.done:
                break
            rounds.advance(core.next_round())
    body = core.finish()
    if eq.gamma == GAMMA_COUNT:
        return COUNT.unpack(body)[0]
    return decrypt_ids(body, eq.sterm, keys)


# --- vetting -----------------------------------------------------------------------

ROLE_PERMISSIONS = {
    "analyst": frozenset({"count"}),
    "clinician": frozenset({"count", "boolean", "match"}),
}


@dataclass(frozen=True, slots=True)
class Policy:
    """Who may run what, plus the minimum count releasable to analysts."""

    roles: dict  # user name -> role
    threshold: int = 1

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        for user, role in self.roles.items():
            if role not in ROLE_PERMISSIONS:
                raise ValueError(f"unknown role {role!r} for user {user!r}")


def parse_policy(text: str) -> Policy:
    """Parse a policy file: `user <name> role <role>` lines plus `threshold <n>`."""
    roles = {}
    threshold = 1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "user" and len(parts) == 4 and parts[2] == "role":
            roles[parts[1]] = parts[3]
        elif parts[0] == "threshold" and len(parts) == 2:
            try:
                threshold = int(parts[1])
            except ValueError:
                raise ValueError(f"policy line {lineno}: bad threshold {parts[1]!r}") from None
        else:
            raise ValueError(f"policy line {lineno}: cannot parse {raw.strip()!r}")
    return Policy(roles, threshold)


def vet_request(user: str, query_type: str, policy: Policy) -> "tuple[bool, str]":
    """Admission check before any token is generated."""
    role = policy.roles.get(user)
    if role is None:
        return False, f"unknown user {user!r}"
    if query_type not in ROLE_PERMISSIONS[role]:
        return False, f"role {role!r} may not run {query_type} queries"
    return True, ""


def vet_count(count: int, policy: Policy) -> "int | None":
    """Release vetting for counts: None (withheld) below the policy threshold."""
    return count if count >= policy.threshold else None
