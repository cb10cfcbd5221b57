"""Plaintext-side encodings: cohort CSV parsing, keyword mapping, query grammar.

A cohort table becomes a flat keyword space: SNP genotypes prefix their
column index ("2CC" = column 2, genotype CC), phenotype and metadata values
are used verbatim, and every record also carries an "ID:<n>" keyword so a
single patient can be targeted directly. Queries are conjunctions of
(field, value, negated?) predicates; encoding picks one non-negated
predicate as the anchor term (sterm) and maps the rest to keywords.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field

QUERY_TYPES = ("count", "boolean", "match")
GAMMA = {"boolean": 1, "count": 2, "match": 3}

_VALID_GENOTYPES = frozenset(a + b for a in "ACGT" for b in "ACGT")
# a CSV column or query field; at most 9 significant digits, so that int()
# never meets a number past its 4,300-digit limit
_SNP_NAME = re.compile(r"^snp_?0*([0-9]{1,9})$", re.IGNORECASE)
_TERM = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(!=|=)\s*(.*?)\s*$")

ID_KEYWORD_PREFIX = "ID:"


class GdbParseError(ValueError):
    """Malformed cohort CSV; message carries the 1-based line number."""


class QueryError(ValueError):
    """Malformed or inconsistent query."""


@dataclass(frozen=True, slots=True)
class GdbRecord:
    id: int
    genotypes: tuple  # one two-letter genotype per SNP column
    phenotype: str
    metadata: tuple = ()  # ((column, value), ...)


@dataclass(frozen=True, slots=True)
class Gdb:
    records: tuple
    snp_count: int
    metadata_columns: tuple = ()

    def __len__(self):
        return len(self.records)


@dataclass(frozen=True, slots=True)
class Predicate:
    kind: str  # "snp" | "phenotype" | "gender" | "ethnicity" | "id"
    value: str
    snp: int = 0  # 1-based column, kind == "snp" only
    negated: bool = False


@dataclass(frozen=True, slots=True)
class Query:
    predicates: tuple
    query_type: str
    k_prime: "int | None" = None
    user: str = ""


@dataclass(frozen=True, slots=True)
class EncodedQuery:
    sterm: str
    xterms: tuple  # ((keyword, negated), ...) in predicate order
    query_type: str
    k_prime: "int | None" = None

    @property
    def gamma(self) -> int:
        return GAMMA[self.query_type]

    @property
    def positive_xterms(self) -> tuple:
        return tuple(kw for kw, neg in self.xterms if not neg)

    @property
    def negative_xterms(self) -> tuple:
        return tuple(kw for kw, neg in self.xterms if neg)


# --- cohort CSV ---------------------------------------------------------------

def _read_text(source) -> str:
    """The text of a str, bytes or readable cohort source; bytes must be UTF-8."""
    try:
        data = source.read() if hasattr(source, "read") else source
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GdbParseError(f"input is not UTF-8 text: {exc}") from None
    if not isinstance(data, str):
        raise TypeError(f"cannot parse cohort data from {type(source).__name__}")
    return data


def _csv_rows(text: str):
    """The CSV rows of text; raises GdbParseError where the CSV reader fails."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise GdbParseError(f"line {reader.line_num}: {exc}") from None


def parse_gdb(source) -> Gdb:
    """Parse a cohort CSV: header ID, SNP_1..SNP_l, Phenotype[, metadata...].

    Raises GdbParseError naming the offending line for ragged rows, bad
    genotypes, duplicate or non-positive IDs, and empty phenotype/metadata
    values. An empty data section is a valid zero-record cohort.
    """
    reader = _csv_rows(_read_text(source))
    try:
        header = next(reader)
    except StopIteration:
        raise GdbParseError("line 1: empty input, header row required") from None
    header = [h.strip() for h in header]
    if len(header) < 3 or header[0].upper() != "ID":
        raise GdbParseError("line 1: header must start with ID, SNP columns, Phenotype")
    snp_count = 0
    col = 1
    while col < len(header):
        m = _SNP_NAME.match(header[col])
        if not m:
            break
        if int(m.group(1)) != snp_count + 1:
            raise GdbParseError(
                f"line 1: SNP columns must be consecutive, got {header[col]!r} "
                f"where SNP_{snp_count + 1} was expected"
            )
        snp_count += 1
        col += 1
    if snp_count == 0:
        raise GdbParseError("line 1: at least one SNP column required")
    if col >= len(header) or header[col].lower() != "phenotype":
        raise GdbParseError("line 1: Phenotype column must follow the SNP columns")
    meta_cols = tuple(header[col + 1 :])
    for name in meta_cols:
        if not name:
            raise GdbParseError("line 1: empty metadata column name")

    records = []
    seen_ids = set()
    geno_cache = {}
    width = len(header)
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore blank lines
        if len(row) != width:
            raise GdbParseError(f"line {lineno}: expected {width} fields, got {len(row)}")
        raw_id = row[0].strip()
        try:
            rid = int(raw_id)
        except ValueError:
            raise GdbParseError(f"line {lineno}: record ID {raw_id!r} is not an integer") from None
        if rid <= 0:
            raise GdbParseError(f"line {lineno}: record ID must be positive, got {rid}")
        if rid in seen_ids:
            raise GdbParseError(f"line {lineno}: duplicate record ID {rid}")
        seen_ids.add(rid)
        genos = []
        for s in range(snp_count):
            g = row[1 + s].strip().upper()
            cached = geno_cache.get(g)
            if cached is None:
                if g not in _VALID_GENOTYPES:
                    raise GdbParseError(
                        f"line {lineno}: bad genotype {row[1 + s]!r} in SNP_{s + 1}"
                    )
                cached = geno_cache.setdefault(g, g)
            genos.append(cached)
        phenotype = row[1 + snp_count].strip()
        if not phenotype:
            raise GdbParseError(f"line {lineno}: empty phenotype")
        meta = []
        for j, name in enumerate(meta_cols):
            v = row[2 + snp_count + j].strip()
            if not v:
                raise GdbParseError(f"line {lineno}: empty {name} value")
            meta.append((name, v))
        records.append(GdbRecord(rid, tuple(genos), phenotype, tuple(meta)))
    return Gdb(tuple(records), snp_count, meta_cols)


def record_keywords(rec: GdbRecord) -> set:
    """Every keyword the record is indexed under."""
    kws = {f"{i + 1}{g}" for i, g in enumerate(rec.genotypes)}
    kws.add(rec.phenotype)
    kws.update(v for _, v in rec.metadata)
    kws.add(f"{ID_KEYWORD_PREFIX}{rec.id}")
    return kws


# --- query grammar --------------------------------------------------------------

def parse_query(where: str, query_type: str, k_prime: "int | None" = None,
                user: str = "") -> Query:
    """Parse a comma-separated predicate list like "phenotype=Cancer B,SNP2!=CC".

    Fields: SNP<k>, phenotype, gender, ethnicity, id (case-insensitive).
    ``k_prime`` is meaningful (and required) only for match queries, where it
    must satisfy 1 <= k' <= #predicates - 1 and negation is not allowed.
    """
    if query_type not in QUERY_TYPES:
        raise QueryError(f"unknown query type {query_type!r}")
    if not where or not where.strip():
        raise QueryError("empty predicate expression")
    try:
        where.encode("utf-8")  # as every keyword must be, for the PRFs
    except UnicodeEncodeError as exc:
        raise QueryError(f"query text has an unencodable character at {exc.start}") from None
    preds = []
    for raw in where.split(","):
        m = _TERM.match(raw)
        if not m:
            raise QueryError(f"cannot parse predicate {raw.strip()!r}")
        name, op, value = m.group(1), m.group(2), m.group(3)
        negated = op == "!="
        snp_m = _SNP_NAME.match(name)
        if snp_m:
            idx = int(snp_m.group(1))
            if idx <= 0:
                raise QueryError(f"SNP column index must be positive in {raw.strip()!r}")
            value = value.upper()
            if value not in _VALID_GENOTYPES:
                raise QueryError(f"bad genotype literal {m.group(3)!r} in {raw.strip()!r}")
            preds.append(Predicate("snp", value, snp=idx, negated=negated))
            continue
        kind = name.lower()
        if kind == "id":
            try:
                rid = int(value)
            except ValueError:
                raise QueryError(f"id value must be an integer in {raw.strip()!r}") from None
            if rid <= 0:
                raise QueryError(f"id value must be positive in {raw.strip()!r}")
            preds.append(Predicate("id", str(rid), negated=negated))
        elif kind in ("phenotype", "gender", "ethnicity"):
            if not value:
                raise QueryError(f"empty value in {raw.strip()!r}")
            preds.append(Predicate(kind, value, negated=negated))
        else:
            raise QueryError(f"unknown field {name!r}")
    if query_type == "match":
        if any(p.negated for p in preds):
            raise QueryError("negated predicates are not allowed in match queries")
        if k_prime is None:
            raise QueryError("match queries require k_prime")
        if not isinstance(k_prime, int) or isinstance(k_prime, bool):
            raise QueryError(f"k_prime must be an integer, got {k_prime!r}")
        if not (1 <= k_prime <= len(preds) - 1):
            raise QueryError(
                f"k_prime must be in [1, {len(preds) - 1}] for {len(preds)} predicates"
            )
    elif k_prime is not None:
        raise QueryError(f"k_prime only applies to match queries, not {query_type}")
    return Query(tuple(preds), query_type, k_prime, user)


def keyword_for_predicate(pred: Predicate) -> str:
    if pred.kind == "snp":
        return f"{pred.snp}{pred.value}"
    if pred.kind == "id":
        return f"{ID_KEYWORD_PREFIX}{pred.value}"
    return pred.value


_STERM_PRIORITY = {"id": 0, "phenotype": 1}


def select_sterm(predicates, freq: "dict | None" = None) -> int:
    """Index of the predicate to anchor the search on.

    Preference: an ID predicate (singleton list), then a phenotype predicate,
    then the least frequent keyword per the owner's hint, ties broken
    lexicographically. Negated predicates can never anchor.
    """
    freq = freq or {}
    best = None
    best_key = None
    for i, p in enumerate(predicates):
        if p.negated:
            continue
        kw = keyword_for_predicate(p)
        key = (_STERM_PRIORITY.get(p.kind, 2), freq.get(kw, 0), kw)
        if best is None or key < best_key:
            best, best_key = i, key
    if best is None:
        raise QueryError("at least one non-negated predicate is required")
    return best


def encode_query(query: Query, freq: "dict | None" = None) -> EncodedQuery:
    """Map predicates to keywords and split off the anchor term."""
    anchor = select_sterm(query.predicates, freq)
    sterm = keyword_for_predicate(query.predicates[anchor])
    xterms = tuple(
        (keyword_for_predicate(p), p.negated)
        for i, p in enumerate(query.predicates)
        if i != anchor
    )
    if query.query_type == "match" and any(neg for _, neg in xterms):
        raise QueryError("negated predicates are not allowed in match queries")
    return EncodedQuery(sterm, xterms, query.query_type, query.k_prime)
