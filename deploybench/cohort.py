"""Seeded cohorts, query rounds and the plaintext oracle of the benchmark.

Nothing here imports the system under test: the oracle answers from the
generated rows, so a fault in the program's own parser or plaintext evaluator
cannot hide a wrong encrypted answer.

Cohorts are stratified: inside every phenotype group each SNP column holds its
three genotypes in fixed shares (50% major homozygote, 35% heterozygote, 15%
minor homozygote) and Gender and Ethnicity hold fixed shares too. Only which
record gets which value depends on the seed, so the work a query shape causes
barely moves between seeds while the data and the queries change.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

GENOTYPE_SHARES = (0.50, 0.35, 0.15)  # major, heterozygote, minor
GENDERS = (("Female", 0.5), ("Male", 0.5))
ETHNICITIES = (("European", 0.40), ("Asian", 0.25), ("African", 0.15),
               ("Hispanic", 0.12), ("Other", 0.08))
ALLELE_PAIRS = ("AG", "CT", "AC", "GT", "AT", "CG")

ANALYST, CLINICIAN = "analyst", "clinician"
THRESHOLD = 5
POLICY_TEXT = (
    f"user {ANALYST} role analyst\n"
    f"user {CLINICIAN} role clinician\n"
    f"threshold {THRESHOLD}\n"
)


@dataclass(frozen=True)
class Row:
    id: int
    genotypes: tuple  # one two-letter genotype per SNP column
    phenotype: str
    demographics: tuple  # values of the demographic columns, in column order


@dataclass(frozen=True)
class Cohort:
    rows: tuple
    snp_count: int
    demographic_columns: tuple
    column_genotypes: tuple  # per column: (major, heterozygote, minor)

    def csv_text(self) -> str:
        out = io.StringIO()
        header = (["ID"] + [f"SNP_{i + 1}" for i in range(self.snp_count)]
                  + ["Phenotype"] + list(self.demographic_columns))
        out.write(",".join(header) + "\n")
        for r in self.rows:
            out.write(",".join([str(r.id), *r.genotypes, r.phenotype, *r.demographics]) + "\n")
        return out.getvalue()

    def entry_count(self) -> int:
        """(keyword, record) pairs: genotype-at-column, phenotype, demographics, id."""
        total = 0
        for r in self.rows:
            kws = {f"{i + 1}{g}" for i, g in enumerate(r.genotypes)}
            kws.add(r.phenotype)
            kws.update(r.demographics)
            kws.add(f"ID:{r.id}")
            total += len(kws)
        return total


@dataclass(frozen=True)
class Pred:
    kind: str  # "snp" | "phenotype" | "gender" | "ethnicity" | "id"
    value: str
    col: int = 0  # 1-based SNP column
    negated: bool = False

    def text(self) -> str:
        op = "!=" if self.negated else "="
        field = f"SNP{self.col}" if self.kind == "snp" else self.kind
        return f"{field}{op}{self.value}"

    def holds(self, row: Row) -> bool:
        if self.kind == "snp":
            hit = row.genotypes[self.col - 1] == self.value
        elif self.kind == "phenotype":
            hit = row.phenotype == self.value
        elif self.kind == "id":
            hit = row.id == int(self.value)
        else:  # demographic values match in any demographic column
            hit = self.value in row.demographics
        return hit != self.negated


@dataclass(frozen=True)
class Query:
    qtype: str  # "count" | "boolean" | "match"
    user: str
    preds: tuple
    k_prime: "int | None" = None

    @property
    def where(self) -> str:
        return ", ".join(p.text() for p in self.preds)


def answer(rows, q: Query):
    """The oracle: a count for count queries, else the sorted matching ids.

    Match queries follow the documented anchor rule: an id predicate anchors
    if there is one, else the phenotype predicate. The anchor must hold and at
    least k' of the other predicates must hold. Queries with any other shape
    would depend on the program's anchor choice, so the benchmark never
    issues them.
    """
    if q.qtype == "match":
        ids = [p for p in q.preds if p.kind == "id"]
        phen = [p for p in q.preds if p.kind == "phenotype"]
        if len(ids) > 1 or (not ids and len(phen) != 1):
            raise ValueError(f"match query without a fixed anchor: {q.where}")
        anchor = ids[0] if ids else phen[0]
        rest = [p for p in q.preds if p is not anchor]
        hits = [r.id for r in rows
                if anchor.holds(r) and sum(p.holds(r) for p in rest) >= q.k_prime]
        return sorted(hits)
    hits = [r.id for r in rows if all(p.holds(r) for p in q.preds)]
    return len(hits) if q.qtype == "count" else sorted(hits)


def expected_reply(rows, q: Query) -> "tuple[str, object]":
    """What the vetter must send: ("answer", value) or ("denied", "threshold")."""
    value = answer(rows, q)
    if q.qtype == "count" and value < THRESHOLD:
        return "denied", "threshold"
    return "answer", value


def rows_from_csv(text: str) -> tuple:
    """Rows of a cohort CSV, for the oracle self-test on the bundled fixture."""
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader)]
    n_snp = sum(1 for h in header if h.upper().startswith("SNP"))
    rows = []
    for rec in reader:
        if rec:
            rows.append(Row(int(rec[0]), tuple(rec[1:1 + n_snp]), rec[1 + n_snp],
                            tuple(rec[2 + n_snp:])))
    return tuple(rows)


def oracle_self_test(demo_csv: str) -> bool:
    """The four golden answers of the bundled 7-record fixture."""
    rows = rows_from_csv(demo_csv)
    b, cc, ct, ag = (Pred("phenotype", "Cancer B"), Pred("snp", "CC", 2),
                     Pred("snp", "CT", 3), Pred("snp", "AG", 4))
    got = [
        answer(rows, Query("count", CLINICIAN, (b, cc, ag))),
        answer(rows, Query("count", CLINICIAN, (b, Pred("snp", "CC", 2, True), ag))),
        answer(rows, Query("match", CLINICIAN, (b, cc, ag), 1)),
        answer(rows, Query("match", CLINICIAN, (Pred("id", "7"), cc, ct, ag), 2)),
    ]
    return got == [2, 1, [2, 5, 7], [7]]


# --- cohorts ---------------------------------------------------------------------

def _shares(n: int, shares) -> list:
    """Exact integer split of n by the given shares (largest remainder)."""
    raw = [n * s for s in shares]
    counts = [int(x) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return counts


def _stratified(rng, n: int, values, shares) -> list:
    out = []
    for v, c in zip(values, _shares(n, shares)):
        out.extend([v] * c)
    rng.shuffle(out)
    return out


def make_cohort(rng: random.Random, groups: dict, snp_count: int) -> Cohort:
    n = sum(groups.values())
    col_genos = []
    for _ in range(snp_count):
        a, b = rng.choice(ALLELE_PAIRS)
        if rng.random() < 0.5:
            a, b = b, a
        col_genos.append((a + a, min(a + b, b + a), b + b))
    ids = rng.sample(range(1, 10 * n + 1), n)
    rows = []
    for label, size in groups.items():
        cols = [_stratified(rng, size, g, GENOTYPE_SHARES) for g in col_genos]
        gender = _stratified(rng, size, [g for g, _ in GENDERS], [s for _, s in GENDERS])
        ethnic = _stratified(rng, size, [e for e, _ in ETHNICITIES],
                             [s for _, s in ETHNICITIES])
        for j in range(size):
            rows.append(Row(ids[len(rows)], tuple(c[j] for c in cols), label,
                            (gender[j], ethnic[j])))
    rng.shuffle(rows)
    return Cohort(tuple(rows), snp_count, ("Gender", "Ethnicity"), tuple(col_genos))


# --- workloads -------------------------------------------------------------------
#
# A workload is a cohort plus one round of query shapes. The shapes are fixed;
# the seed picks the cohort, the columns, the records and the values.
#
# The machine's speed can jump between a fast and a slow state that differ by
# about 40% and last seconds. A per-type median over a few widely spaced
# shapes would then flip between the two states from run to run. So each
# type has seven shapes whose costs lie 5-15% apart plus one costly shape on
# the largest phenotype; the pooled median then moves smoothly with the share
# of time spent slow. The types alternate within a round, so every type's
# samples spread over the whole round.

SCAN_GROUPS = {"Asthma": 30, "Diabetes": 80, "Glaucoma": 150, "Control": 740}

# (phenotype, cross-terms in order, k'). A cross-term is a positive SNP of
# the column's "major", "het" or "minor" genotype, "~minor" (the SNP is not
# the minor genotype), "gender", or "eth<rank>" (the rank-th most common
# ethnicity). A leading rare cross-term such as "eth4" (8%) stops most tuples
# at the first exponentiation, so the cross-terms after it add mostly tokens.
_M3, _M5 = ("major",) * 3, ("major",) * 5
_SCAN_COUNT = (
    ("Asthma", ("het", "gender", *_M5, "~minor", "~minor"), None),
    ("Asthma", ("major", "eth0", *_M3, "major", "~minor", "~minor"), None),
    ("Diabetes", ("gender",), None),
    ("Diabetes", ("eth4", "major"), None),
    ("Diabetes", ("eth4", "major", "~minor"), None),
    ("Diabetes", ("eth4", "gender", "major", "~minor"), None),
    ("Diabetes", ("eth4", *_M3, "~minor"), None),
    ("Glaucoma", ("eth4", "major"), None),
)
_SCAN_BOOLEAN = (
    ("Asthma", ("major", "gender", *_M3, "~minor"), None),
    ("Asthma", ("het", "eth0", *_M5, "~minor", "~minor"), None),
    ("Diabetes", ("eth0",), None),
    ("Diabetes", ("eth4", "gender"), None),
    ("Diabetes", ("eth4", "major", "major"), None),
    ("Diabetes", ("eth4", "gender", "~minor", "~minor"), None),
    ("Diabetes", ("eth3", "major", "major", "~minor"), None),
    ("Glaucoma", ("eth4", "major", "~minor"), None),
)
_SCAN_MATCH = (
    ("Asthma", (*_M5, "major", "major", "eth1"), 1),
    ("Asthma", ("het", "het", "eth2"), 2),
    ("Asthma", ("het",) * 5 + ("eth2",), 1),
    ("Asthma", ("minor",) * 3 + ("eth0",), 1),
    ("Asthma", ("minor",) * 3 + ("eth0",), 2),
    ("Asthma", ("minor",) * 4 + ("eth1",), 3),
    ("Diabetes", ("gender", "het"), 1),
    ("Glaucoma", ("eth4", "gender"), 2),
)
_GENOTYPE_RANK = {"major": 0, "het": 1, "minor": 2}

MATCH_GROUPS = {"Asthma": 300, "Diabetes": 450, "Glaucoma": 650, "Arthritis": 800,
                "Migraine": 1000, "Control": 1800}

# Id-anchored match: (SNPs k, k', SNPs the patient really has).
PATIENT_MATCH_SHAPES = ((10, 1, 5), (16, 15, 10), (12, 3, 9), (20, 4, 16), (18, 17, 15),
                        (30, 29, 25), (39, 38, 30))
# Id-anchored boolean: (positive SNPs, first false one (0-based) or None,
# negated SNPs, how many of those the patient violates).
PATIENT_BOOLEAN_SHAPES = ((2, None, 0, 0), (8, 2, 1, 0), (4, None, 1, 0), (5, None, 1, 0),
                          (6, None, 2, 1), (7, None, 2, 0), (10, None, 2, 1))
# Single-predicate counts: kind and which value.
PATIENT_COUNT_SHAPES = (("phenotype", "Asthma"), ("phenotype", "Glaucoma"),
                        ("phenotype", "Migraine"), ("snp", 0), ("snp", 1), ("snp", 2),
                        ("gender", None), ("ethnicity", 0), ("ethnicity", 1))


def _interleave(*lists) -> list:
    out = []
    for i in range(max(map(len, lists))):
        out += [lst[i] for lst in lists if i < len(lst)]
    return out


def _spread(k: int, t: int) -> list:
    """Which of k positions are true when t are: evenly spread, seed-free."""
    return [((i + 1) * t) // k > (i * t) // k for i in range(k)]


def _snp(cohort: Cohort, col: int, rank: int, negated: bool = False) -> Pred:
    return Pred("snp", cohort.column_genotypes[col - 1][rank], col, negated)


def _other_genotype(rng, cohort: Cohort, row: Row, col: int) -> str:
    have = row.genotypes[col - 1]
    return rng.choice([g for g in cohort.column_genotypes[col - 1] if g != have])


def _cross_term(rng, cohort: Cohort, spec: str, cols) -> Pred:
    if spec in _GENOTYPE_RANK:
        return _snp(cohort, next(cols), _GENOTYPE_RANK[spec])
    if spec == "~minor":
        return _snp(cohort, next(cols), 2, negated=True)
    if spec == "gender":
        return Pred("gender", rng.choice(GENDERS)[0])
    return Pred("ethnicity", ETHNICITIES[int(spec[3:])][0])


def scan_workload(rng: random.Random):
    cohort = make_cohort(rng, SCAN_GROUPS, 20)
    typed = [[(qtype, *shape) for shape in shapes] for qtype, shapes in
             (("count", _SCAN_COUNT), ("boolean", _SCAN_BOOLEAN), ("match", _SCAN_MATCH))]
    queries = []
    for qtype, phen, xterms, k_prime in _interleave(*typed):
        n_snp = sum(x in _GENOTYPE_RANK or x == "~minor" for x in xterms)
        cols = iter(rng.sample(range(1, cohort.snp_count + 1), n_snp))
        preds = [Pred("phenotype", phen)] + [_cross_term(rng, cohort, x, cols) for x in xterms]
        user = ANALYST if qtype == "count" else CLINICIAN
        queries.append(Query(qtype, user, tuple(preds), k_prime))
    return cohort, queries


def match_workload(rng: random.Random):
    cohort = make_cohort(rng, MATCH_GROUPS, 40)
    matches, booleans, counts = [], [], []
    for k, k_prime, truths in PATIENT_MATCH_SHAPES:
        row = rng.choice(cohort.rows)
        preds = [Pred("id", str(row.id))]
        for col, true in zip(rng.sample(range(1, 41), k), _spread(k, truths)):
            value = row.genotypes[col - 1] if true else _other_genotype(rng, cohort, row, col)
            preds.append(Pred("snp", value, col))
        matches.append(Query("match", CLINICIAN, tuple(preds), k_prime))
    for n_pos, first_false, n_neg, violated in PATIENT_BOOLEAN_SHAPES:
        row = rng.choice(cohort.rows)
        cols = rng.sample(range(1, 41), n_pos + n_neg)
        preds = [Pred("id", str(row.id))]
        for i, col in enumerate(cols[:n_pos]):
            value = (_other_genotype(rng, cohort, row, col) if i == first_false
                     else row.genotypes[col - 1])
            preds.append(Pred("snp", value, col))
        for i, col in enumerate(cols[n_pos:]):
            value = (row.genotypes[col - 1] if i < violated
                     else _other_genotype(rng, cohort, row, col))
            preds.append(Pred("snp", value, col, negated=True))
        booleans.append(Query("boolean", CLINICIAN, tuple(preds)))
    for kind, which in PATIENT_COUNT_SHAPES:
        if kind == "phenotype":
            pred = Pred("phenotype", which)
        elif kind == "snp":
            pred = _snp(cohort, rng.randint(1, 40), which)
        elif kind == "gender":
            pred = Pred("gender", rng.choice(GENDERS)[0])
        else:
            pred = Pred("ethnicity", ETHNICITIES[which][0])
        counts.append(Query("count", ANALYST, (pred,)))
    return cohort, _interleave(matches, booleans, counts)


WORKLOADS = {"phenotype-scan": scan_workload, "patient-match": match_workload}


def workload(name: str, seed: int):
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
