"""Searchable symmetric encryption for genomic cohort databases.

An untrusted server stores an encrypted SNP/phenotype index and answers
count, boolean (conjunction with negation), and k'-of-k match queries
without learning keywords, record ids, or query contents beyond the
designed leakage: the query type, the anchor tag (stable per keyword), the
anchor's chain length, the positive and negative cross-term counts (sent in
round one, so learnt even for an empty chain), k', which tuples are still
undecided after each column round (the server's own bitmap), and the
result size. The server
evaluates the search itself. A column round sends a cross-term's tokens
only to the tuples still undecided; a row round, once fewer than
``engine.COLUMN_MIN`` are, sends them every cross-term left, not only those
their early exit reaches. For those tuples the server can raise them all
and learn which of the query's cross-terms hold. This is within OXT's
leakage profile (Cash et al., CRYPTO 2013).
"""

__version__ = "0.1.0"

from .crypto import (
    KeySet,
    SeededRng,
    SystemRng,
    keygen,
    load_keys,
    save_keys,
)
from .encoding import (
    GdbParseError,
    Query,
    QueryError,
    encode_query,
    parse_gdb,
    parse_query,
)
from .engine import (
    Policy,
    TamperingError,
    decrypt_ids,
    generate_token,
    parse_policy,
    run_query,
    vet_count,
    vet_request,
)
from .fixtures import DEMO_COHORT_CSV, load_demo_cohort
from .index import (
    BloomFilter,
    CorruptIndexError,
    Egdb,
    IndexBuildError,
    TSet,
    build_egdb,
    build_inverted_index,
    keyword_frequencies,
    load_egdb,
    serialize_egdb,
)

__all__ = [name for name in dir() if not name.startswith("_")]
