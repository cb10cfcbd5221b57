"""The package's public names, pinned so that every new export is deliberate."""

import privgendb

PUBLIC_NAMES = {
    # keys and randomness
    "KeySet", "SeededRng", "SystemRng",
    "keygen", "load_keys", "save_keys",
    # cohorts and queries
    "GdbParseError", "Query", "QueryError", "encode_query", "keyword_frequencies",
    "parse_gdb", "parse_query",
    # tokens, results and vetting
    "Policy", "TamperingError", "decrypt_ids", "generate_token",
    "parse_policy", "run_query", "vet_count", "vet_request",
    # the demo cohort
    "DEMO_COHORT_CSV", "load_demo_cohort",
    # the encrypted index
    "BloomFilter", "CorruptIndexError", "Egdb", "IndexBuildError",
    "TSet", "build_egdb", "build_inverted_index", "load_egdb", "serialize_egdb",
}

# submodules the package imports, which therefore show up among its names
SUBMODULES = {"crypto", "encoding", "engine", "fixtures", "index", "wire"}


def test_public_api_snapshot():
    assert set(privgendb.__all__) == PUBLIC_NAMES | SUBMODULES
