"""Query execution: trapdoor generation, encrypted search, result vetting.

The anchor keyword's tuple chain drives the search: for the c-th tuple the
server raises each supplied token to that tuple's blinding scalar y and tests
the x-coordinate of the result against the cross-tag filter. Positive tokens
must all be present, negative tokens must all be absent; threshold (match)
queries instead count hits among a single token list and compare against k'.
The server never learns which keywords are behind the tokens, only how many
there are.

This module alone writes and reads the bodies of a search: ``search_init``
packs the init and ``generate_token`` the token rows, and ``SearchCore``,
the only implementation of the server's side, opens from the init, reads the
rows and finishes into the result body. The in-process ``run_query`` and
the networked data server both go through it, with the same checks. The core
keeps the anchor chain as the one array ``TSet.retrieve`` returns, from the
open to the result: a search without cross-terms takes the row count or the
ciphertext column, and a search with them cuts y out of the array for each
tuple it evaluates. It decodes a token and raises it to y (both inside libcrypto) only when the
evaluation actually reaches that token.
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


def generate_token(eq: EncodedQuery, keys: KeySet, last: int, first: int = 1) -> bytes:
    """Packed token rows for counters ``first..last`` of an encoded query.

    A whole chain is ``first=1`` and ``last`` the anchor keyword's tuple
    count as reported by the server in round one. The rows follow one
    another in counter order; the row of counter c holds the 33-byte
    encodings of the tokens h^(z_c * x_g), first for each positive then for
    each negative cross-term g, where z_c blinds the counter and x_g
    fingerprints g. This is the ``MSG_XTOKENS`` body, and ``SearchCore.feed``
    reads it. A query without cross-terms has empty rows and returns b"".
    """
    if first < 1 or last < first - 1:
        raise ValueError(f"bad counter range {first}..{last}")
    xs = [prf_fp(keys.k_x, keyword_bytes(kw))
          for kw in eq.positive_xterms + eq.negative_xterms]
    if not xs:
        return b""
    tokens = []
    for c in range(first, last + 1):
        z = prf_fp(keys.k_z, keyword_counter(eq.sterm, c))
        tokens += [base_pow(z * x % ORDER).encode() for x in xs]
    return b"".join(tokens)


def evaluate_tuple(bloom: BloomFilter, y: bytes, row: bytes, n_pos: int, gamma: int,
                   k_prime: "int | None") -> bool:
    """Decide one tuple: raise tokens to y and test their x in the filter.

    ``y`` is the tuple's 32-byte big-endian scalar and ``row`` its packed
    tokens, the ``n_pos`` positive ones first. The scalar is checked and
    converted for ``pow_x`` only if some token must be raised, and each token
    is cut out and decoded only when the evaluation reaches it, so an early
    exit skips the rest. Raises ValueError for a reached token that is not a
    curve point.
    """
    split = n_pos * ELEMENT_LEN
    if gamma == GAMMA_MATCH:
        left = n_pos
        if left < k_prime:
            return False
        key = exponent_key(int.from_bytes(y, "big"))
        hits = 0
        for i in range(0, split, ELEMENT_LEN):
            left -= 1
            if pow_x(key, row[i : i + ELEMENT_LEN]) in bloom:
                hits += 1
                if hits >= k_prime:
                    return True
            elif hits + left < k_prime:
                return False
        return hits >= k_prime
    key = exponent_key(int.from_bytes(y, "big"))
    for i in range(0, split, ELEMENT_LEN):
        if pow_x(key, row[i : i + ELEMENT_LEN]) not in bloom:
            return False
    for i in range(split, len(row), ELEMENT_LEN):
        if pow_x(key, row[i : i + ELEMENT_LEN]) in bloom:
            return False
    return True


class SearchCore:
    """The server's side of one search over one anchor chain.

    It opens from a ``search_init`` body. Before it retrieves anything, it
    refuses as WireError an init that is not a 16- or 32-byte tag and the
    fields, a gamma that is no query type, a match with k' = 0 or negative
    cross-terms, and a k' on any other search. It then retrieves the chain
    as one checked (n, TUPLE_LEN) array, ``tuples``, whose row c - 1 is
    counter c's y scalar and encrypted record id; the array stays as it is
    to the result, and ``hits`` marks the rows the result takes. ``n_pos``
    and ``n_neg`` are the positive and negative cross-term counts per
    counter. ``feed`` evaluates the next counters from a body of packed
    token rows, and the search is ``done`` once every tuple is decided;
    ``finish`` then returns the result body. A search with no cross-terms is
    done when it opens: a count or boolean takes the whole chain (its row
    count, or its ciphertext column), a match (k' >= 1 hits among no tokens)
    takes nothing. So is a search over an empty chain, and an unknown anchor
    tag gives one, indistinguishable from a keyword with no matches. Rows
    past the end of the chain are a protocol violation.
    """

    __slots__ = ("bloom", "tuples", "hits", "gamma", "k_prime", "n_pos", "n_neg",
                 "next_counter")

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
        self.hits = np.zeros(len(self.tuples), dtype=bool)
        self.gamma = gamma
        self.k_prime = k_prime
        self.n_pos = n_pos
        self.n_neg = n_neg
        self.next_counter = 1
        if not (n_pos or n_neg):
            self.next_counter = len(self.tuples) + 1
            self.hits[:] = gamma != GAMMA_MATCH

    @property
    def done(self) -> bool:
        """Whether every tuple of the chain is decided."""
        return self.next_counter > len(self.tuples)

    def feed(self, body: bytes) -> None:
        """Evaluate counters ``next_counter`` onwards from a packed token body.

        ``body`` holds whole rows as ``generate_token`` writes them. Before
        any row is evaluated, WireError refuses, in this order: a body that
        is not a whole, non-zero number of rows (any body, for a search
        without cross-terms); rows past the chain; a token whose prefix is
        not 0x02 or 0x03. A reached token that is not a curve point raises
        WireError too.
        """
        width = self.n_pos + self.n_neg
        row_len = width * ELEMENT_LEN
        if not body or not row_len or len(body) % row_len:
            raise WireError(f"a token frame must hold one or more rows of the {width} "
                            f"declared tokens, {row_len} bytes each; got {len(body)} bytes")
        first = self.next_counter
        if (last := first + len(body) // row_len - 1) > len(self.tuples):
            raise WireError(f"token rows for counters {first}..{last} "
                            f"run past the chain of {len(self.tuples)}")
        prefixes = body[::ELEMENT_LEN]
        if prefixes.translate(None, b"\x02\x03"):
            i = next(i for i, p in enumerate(prefixes) if p not in (2, 3))
            raise WireError(f"malformed group element at counter {first + i // width}: "
                            f"prefix 0x{prefixes[i]:02x}, want 0x02 or 0x03")
        self.next_counter = last + 1
        bloom, gamma, k_prime, n_pos = self.bloom, self.gamma, self.k_prime, self.n_pos
        ys = self.tuples[first - 1 : last, :Y_LEN].tobytes()
        hits = []
        for i in range(last - first + 1):
            try:
                hits.append(evaluate_tuple(bloom, ys[i * Y_LEN : (i + 1) * Y_LEN],
                                           body[i * row_len : (i + 1) * row_len],
                                           n_pos, gamma, k_prime))
            except ValueError as exc:
                raise WireError(f"malformed group element at counter {first + i}: "
                                f"{exc}") from None
        self.hits[first - 1 : last] = hits

    def finish(self) -> bytes:
        """The ``MSG_RESULT`` body: one ``COUNT``, or the hit rows' ciphertexts
        back to back."""
        if self.gamma == GAMMA_COUNT:
            return COUNT.pack(int(self.hits.sum()))
        return self.tuples[self.hits, Y_LEN:].tobytes()


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

    Mirrors the networked flow exactly, through the same bodies: round one
    opens the search from its init, which already decides it when it has no
    cross-terms or an empty chain; round two generates a token row per tuple
    of the chain and feeds them.
    """
    eq = encode_query(query, freq)
    core = SearchCore(egdb, search_init(eq, keys))
    if not core.done:
        core.feed(generate_token(eq, keys, len(core.tuples)))
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
