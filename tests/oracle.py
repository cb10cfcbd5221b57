"""Plaintext oracle and synthetic cohorts for the test suite.

The oracle answers queries directly over parsed records and is the ground
truth the encrypted pipeline is differenced against. Synthetic cohorts are
seed-deterministic with exact phenotype counts and per-column genotype
frequencies, which makes scaling experiments repeatable.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass

from privgendb.encoding import Gdb, GdbRecord, Predicate, Query, select_sterm


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
