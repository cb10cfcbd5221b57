"""Evaluation tools: a plaintext oracle, synthetic cohorts, and a benchmark.

The oracle answers queries directly over parsed records and is the ground
truth the encrypted pipeline is differenced against. Synthetic cohorts are
seed-deterministic with exact phenotype counts and per-column genotype
frequencies, which makes scaling experiments repeatable.
"""

from __future__ import annotations

import io
import random
import time
from dataclasses import dataclass

from .crypto import SeededRng, keygen
from .encoding import (
    Gdb,
    GdbRecord,
    Predicate,
    Query,
    QueryError,
    parse_gdb,
    select_sterm,
)
from .engine import generate_token, search
from .index import TSet, build_egdb, build_inverted_index, egdb_to_bytes


# --- plaintext oracle ---------------------------------------------------------------

def predicate_matches(rec: GdbRecord, pred: Predicate) -> bool:
    """Ground truth for a single predicate, negation applied.

    Metadata predicates match on value anywhere in the record's metadata,
    mirroring the keyword space (values are indexed without column names).
    """
    if pred.kind == "snp":
        base = 0 < pred.snp <= len(rec.genotypes) and rec.genotypes[pred.snp - 1] == pred.value
    elif pred.kind == "phenotype":
        base = rec.phenotype == pred.value
    elif pred.kind == "id":
        base = rec.id == int(pred.value)
    else:  # gender / ethnicity
        base = any(v == pred.value for _, v in rec.metadata)
    return not base if pred.negated else base


def evaluate_plain(gdb: Gdb, query: Query, freq: "dict | None" = None):
    """Answer a query directly over plaintext records.

    Returns a count for count queries, else a sorted id list. Match queries
    anchor on the same predicate the encrypted pipeline would pick and
    require at least k' of the remaining predicates.
    """
    if query.query_type == "match":
        anchor = select_sterm(query.predicates, freq)
        rest = [p for i, p in enumerate(query.predicates) if i != anchor]
        need = query.k_prime
        ids = [
            rec.id
            for rec in gdb.records
            if predicate_matches(rec, query.predicates[anchor])
            and sum(predicate_matches(rec, p) for p in rest) >= need
        ]
        return sorted(ids)
    ids = [
        rec.id
        for rec in gdb.records
        if all(predicate_matches(rec, p) for p in query.predicates)
    ]
    if query.query_type == "count":
        return len(ids)
    return sorted(ids)


# --- synthetic cohorts -----------------------------------------------------------------

_GENOTYPE_POOL = ("AA", "AG", "GG", "CC", "CT", "TT", "AC", "AT", "CG", "GT")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic cohort.

    ``phenotypes`` maps label -> exact record count (must sum to r);
    ``genotypes_per_snp[i]`` lists (genotype, weight) choices for column i+1.
    """

    r: int
    snp_count: int
    phenotypes: tuple  # ((label, count), ...)
    genotypes_per_snp: tuple  # (((genotype, weight), ...), ...)
    seed: int = 0

    def __post_init__(self):
        if self.r < 0 or self.snp_count < 1:
            raise ValueError("need r >= 0 and at least one SNP column")
        if sum(c for _, c in self.phenotypes) != self.r:
            raise ValueError("phenotype counts must sum to r")
        if any(c < 0 for _, c in self.phenotypes):
            raise ValueError("phenotype counts must be non-negative")
        if len(self.genotypes_per_snp) != self.snp_count:
            raise ValueError("need one genotype model per SNP column")
        for col in self.genotypes_per_snp:
            if not (1 <= len(col) <= 3):
                raise ValueError("each SNP column takes 1-3 genotypes")
            if any(w <= 0 for _, w in col):
                raise ValueError("genotype weights must be positive")

    @classmethod
    def uniform(cls, r: int, snp_count: int, phenotypes, seed: int = 0,
                genotypes_per_col: int = 3) -> "SyntheticSpec":
        """Random-but-seeded genotype model with roughly uniform frequencies."""
        rng = random.Random(seed ^ 0x5EED)
        cols = tuple(
            tuple((g, 1.0) for g in rng.sample(_GENOTYPE_POOL, genotypes_per_col))
            for _ in range(snp_count)
        )
        return cls(r, snp_count, tuple(phenotypes), cols, seed)


def gen_synthetic(spec: SyntheticSpec) -> str:
    """Render the cohort as CSV text; same spec -> same bytes."""
    rng = random.Random(spec.seed)
    labels = []
    for label, count in spec.phenotypes:
        labels.extend([label] * count)
    rng.shuffle(labels)
    columns = []
    for col in spec.genotypes_per_snp:
        genos = [g for g, _ in col]
        weights = [w for _, w in col]
        columns.append(rng.choices(genos, weights=weights, k=spec.r))
    out = io.StringIO()
    out.write("ID," + ",".join(f"SNP_{i + 1}" for i in range(spec.snp_count)) + ",Phenotype\n")
    for i in range(spec.r):
        out.write(f"{i + 1},")
        out.write(",".join(columns[s][i] for s in range(spec.snp_count)))
        out.write(f",{labels[i]}\n")
    return out.getvalue()


# --- benchmark harness ---------------------------------------------------------------------

@dataclass(frozen=True)
class BenchCase:
    """One grid point: cohort shape plus query shape."""

    r: int
    snp_count: int
    alpha: int  # records carrying the anchor phenotype
    n_terms: int  # total predicates including the anchor
    query_type: str
    seed: int = 0
    p_fp: float = 1e-6
    k_prime: "int | None" = None  # match only; defaults to half the cross-terms

    def resolved_k_prime(self) -> "int | None":
        if self.query_type != "match":
            return None
        if self.k_prime is not None:
            return self.k_prime
        return max(1, (self.n_terms - 1) // 2)


@dataclass
class BenchReport:
    case: BenchCase
    build_ms: float
    tokgen_ms: float
    search_ms: float
    egdb_bytes: int
    answer_size: int = 0
    runs: int = 0


def _median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def build_case_query(case: BenchCase, gdb: Gdb) -> Query:
    """Anchor on the target phenotype plus SNP terms from its first record."""
    target = next(rec for rec in gdb.records if rec.phenotype == "Cohort")
    preds = [Predicate("phenotype", "Cohort")]
    if case.n_terms - 1 > case.snp_count:
        raise QueryError("n_terms exceeds available SNP columns")
    for s in range(case.n_terms - 1):
        preds.append(Predicate("snp", target.genotypes[s], snp=s + 1))
    return Query(tuple(preds), case.query_type, case.resolved_k_prime())


def run_case(case: BenchCase, runs: int = 5) -> BenchReport:
    """Build, query, and time one grid point; timings are medians."""
    if case.alpha > case.r:
        raise ValueError("alpha cannot exceed r")
    spec = SyntheticSpec.uniform(
        case.r, case.snp_count,
        [("Cohort", case.alpha), ("Background", case.r - case.alpha)],
        seed=case.seed,
    )
    gdb = parse_gdb(gen_synthetic(spec))
    keys = keygen(rng=SeededRng(case.seed + 1))

    t0 = time.perf_counter()
    iinx = build_inverted_index(gdb)
    egdb = build_egdb(keys, iinx, SeededRng(case.seed + 2), p_fp=case.p_fp)
    build_ms = (time.perf_counter() - t0) * 1e3

    query = build_case_query(case, gdb)
    from .encoding import encode_query

    eq = encode_query(query)
    inv_len = len(egdb.tset.retrieve(TSet.tag(keys.k_t, eq.sterm)))
    tok_times, search_times = [], []
    token = None
    result = None
    for _ in range(runs):
        t0 = time.perf_counter()
        token = generate_token(eq, keys, inv_len)
        tok_times.append((time.perf_counter() - t0) * 1e3)
        t0 = time.perf_counter()
        result = search(token, egdb)
        search_times.append((time.perf_counter() - t0) * 1e3)
    size = result.count if result.count is not None else len(result.enc_ids)
    return BenchReport(
        case,
        build_ms=build_ms,
        tokgen_ms=_median(tok_times),
        search_ms=_median(search_times),
        egdb_bytes=len(egdb_to_bytes(egdb)),
        answer_size=size,
        runs=runs,
    )


REPORT_COLUMNS = ("r", "l", "alpha", "n", "gamma", "build_ms", "tokgen_ms",
                  "search_ms", "egdb_bytes")


def write_report_csv(reports, fh) -> None:
    from .encoding import GAMMA

    fh.write(",".join(REPORT_COLUMNS) + "\n")
    for rep in reports:
        c = rep.case
        fh.write(
            f"{c.r},{c.snp_count},{c.alpha},{c.n_terms},{GAMMA[c.query_type]},"
            f"{rep.build_ms:.3f},{rep.tokgen_ms:.3f},{rep.search_ms:.3f},{rep.egdb_bytes}\n"
        )


def run_grid(cases, runs: int = 5, progress=None) -> list:
    reports = []
    for case in cases:
        rep = run_case(case, runs)
        reports.append(rep)
        if progress:
            progress(rep)
    return reports
