"""Cohort parsing, keyword mapping, and the query grammar."""

import random
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from privgendb.crypto import keyword_bytes
from privgendb.encoding import (
    GdbParseError,
    QueryError,
    encode_query,
    keyword_for_predicate,
    parse_gdb,
    parse_query,
    record_keywords,
    select_sterm,
)
from privgendb.fixtures import DEMO_COHORT_CSV
from privgendb.index import keyword_frequencies

from conftest import random_cohort


@dataclass(frozen=True, slots=True)
class KeywordUniverse:
    """Distinct keywords per column, in keyword space (so "2CC", not "CC")."""

    snp: tuple  # snp[i] = frozenset of keywords for column i+1
    phenotypes: frozenset
    metadata: dict  # column name -> frozenset of value keywords

    def all_keywords(self) -> set:
        out = set(self.phenotypes)
        for s in self.snp:
            out |= s
        for vals in self.metadata.values():
            out |= vals
        return out


def keyword_universe(gdb) -> KeywordUniverse:
    """Distinct keyword sets per column (ID keywords are structural, excluded)."""
    snp_sets = [set() for _ in range(gdb.snp_count)]
    phenos = set()
    meta = {name: set() for name in gdb.metadata_columns}
    for rec in gdb.records:
        for i, g in enumerate(rec.genotypes):
            snp_sets[i].add(f"{i + 1}{g}")
        phenos.add(rec.phenotype)
        for name, v in rec.metadata:
            meta[name].add(v)
    return KeywordUniverse(
        tuple(frozenset(s) for s in snp_sets),
        frozenset(phenos),
        {k: frozenset(v) for k, v in meta.items()},
    )


def test_demo_parse_shape(demo_gdb):
    assert len(demo_gdb.records) == 7
    assert demo_gdb.snp_count == 4
    assert demo_gdb.metadata_columns == ()
    rec2 = next(r for r in demo_gdb.records if r.id == 2)
    assert rec2.genotypes == ("AA", "CC", "CT", "AG")
    assert rec2.phenotype == "Cancer B"


def test_demo_keyword_universe(demo_gdb):
    u = keyword_universe(demo_gdb)
    assert u.snp[0] == frozenset({"1AG", "1AA"})
    assert u.snp[1] == frozenset({"2CC", "2CT"})
    assert u.snp[2] == frozenset({"3TT", "3CT", "3CC"})
    assert u.snp[3] == frozenset({"4AG", "4AA", "4GG"})
    assert u.phenotypes == frozenset({"Cancer A", "Cancer B", "Cancer C"})
    assert u.metadata == {}
    assert len(u.all_keywords()) == 13


def test_demo_record_keywords(demo_gdb):
    rec2 = next(r for r in demo_gdb.records if r.id == 2)
    assert record_keywords(rec2) == {"1AA", "2CC", "3CT", "4AG", "Cancer B", "ID:2"}


def test_demo_frequencies(demo_gdb):
    freq = keyword_frequencies(demo_gdb)
    assert freq["Cancer B"] == 3
    assert freq["2CC"] == 5
    assert freq["4GG"] == 1
    assert freq["ID:7"] == 1
    assert sum(freq.values()) == 42


def test_parse_accepts_metadata_and_flexible_headers():
    csv_text = (
        "id,snp1,SNP_2,Phenotype,Gender,Ethnicity\n"
        "1,AG,CC,Cancer A,Male,European\n"
        "2,aa,ct,Cancer B,Female,East Asian\n"
    )
    gdb = parse_gdb(csv_text)
    assert gdb.snp_count == 2
    assert gdb.metadata_columns == ("Gender", "Ethnicity")
    assert gdb.records[1].genotypes == ("AA", "CT")  # genotypes normalize upper
    assert gdb.records[0].metadata == (("Gender", "Male"), ("Ethnicity", "European"))
    u = keyword_universe(gdb)
    assert u.metadata["Gender"] == frozenset({"Male", "Female"})


def test_parse_empty_data_section():
    gdb = parse_gdb("ID,SNP_1,Phenotype\n")
    assert len(gdb.records) == 0 and gdb.snp_count == 1


def test_parse_errors_carry_line_numbers():
    base = "ID,SNP_1,SNP_2,Phenotype\n"
    cases = [
        (base + "1,AG,CC,Cancer A\n1,AA,CT,Cancer B\n", "line 3", "duplicate"),
        (base + "1,AG,XX,Cancer A\n", "line 2", "genotype"),
        (base + "1,AG,CC\n", "line 2", "fields"),
        (base + "0,AG,CC,Cancer A\n", "line 2", "positive"),
        (base + "x,AG,CC,Cancer A\n", "line 2", "integer"),
        (base + "1,AG,CC,\n", "line 2", "phenotype"),
    ]
    for text, want_line, want_word in cases:
        with pytest.raises(GdbParseError) as exc:
            parse_gdb(text)
        assert want_line in str(exc.value) and want_word in str(exc.value)


def test_parse_header_errors():
    for text in (
        "",
        "SNP_1,ID,Phenotype\n",
        "ID,SNP_2,SNP_1,Phenotype\n",  # out of order
        "ID,SNP_1,SNP_3,Phenotype\n",  # gap
        "ID,Phenotype\n",  # no SNP columns
        "ID,SNP_1\n",  # no phenotype
    ):
        with pytest.raises(GdbParseError):
            parse_gdb(text)


def test_parse_query_grammar():
    q = parse_query("phenotype=Cancer B, SNP2 != CC ,SNP4=ag", "count")
    assert len(q.predicates) == 3
    p1, p2, p3 = q.predicates
    assert p1.kind == "phenotype" and p1.value == "Cancer B" and not p1.negated
    assert p2.kind == "snp" and p2.snp == 2 and p2.value == "CC" and p2.negated
    assert p3.kind == "snp" and p3.snp == 4 and p3.value == "AG"
    q = parse_query("id=7,SNP2=CC", "match", k_prime=1)
    assert q.predicates[0].kind == "id" and q.predicates[0].value == "7"
    q = parse_query("gender=Male,ethnicity=European", "boolean")
    assert {p.kind for p in q.predicates} == {"gender", "ethnicity"}


def test_parse_query_errors():
    with pytest.raises(QueryError):
        parse_query("", "count")
    with pytest.raises(QueryError):
        parse_query("phenotype=X", "sum")
    with pytest.raises(QueryError):
        parse_query("nonsense", "count")
    with pytest.raises(QueryError):
        parse_query("SNP2=ZZ", "count")  # bad genotype literal
    with pytest.raises(QueryError):
        parse_query("unknown=Y", "count")
    with pytest.raises(QueryError):
        parse_query("id=abc", "count")
    with pytest.raises(QueryError):
        parse_query("id=-3", "count")
    with pytest.raises(QueryError):
        parse_query("phenotype=X,SNP1=CC", "count", k_prime=1)  # k' outside match


def test_match_query_constraints():
    with pytest.raises(QueryError):
        parse_query("phenotype=X,SNP1=CC", "match")  # k' missing
    with pytest.raises(QueryError):
        parse_query("phenotype=X,SNP1=CC", "match", k_prime=2)  # k' > n-1
    with pytest.raises(QueryError):
        parse_query("phenotype=X,SNP1=CC", "match", k_prime=0)
    with pytest.raises(QueryError):
        parse_query("phenotype=X,SNP1!=CC", "match", k_prime=1)  # negation
    q = parse_query("phenotype=X,SNP1=CC,SNP2=TT", "match", k_prime=2)
    assert q.k_prime == 2


def test_keyword_for_predicate():
    q = parse_query("SNP12=CT,phenotype=Flu,id=9,gender=Male", "count")
    assert [keyword_for_predicate(p) for p in q.predicates] == [
        "12CT", "Flu", "ID:9", "Male",
    ]


def test_sterm_selection_priorities():
    # id beats phenotype beats frequency
    q = parse_query("SNP1=AG,phenotype=Flu,id=3", "count")
    assert select_sterm(q.predicates) == 2
    q = parse_query("SNP1=AG,phenotype=Flu", "count")
    assert select_sterm(q.predicates) == 1
    # least frequent keyword wins among plain terms
    q = parse_query("SNP1=AG,SNP2=CC", "count")
    assert select_sterm(q.predicates, {"1AG": 50, "2CC": 3}) == 1
    assert select_sterm(q.predicates, {"1AG": 2, "2CC": 3}) == 0
    # lexicographic tie-break, and negated predicates never anchor
    q = parse_query("SNP2=CC,SNP1!=AG", "count")
    assert select_sterm(q.predicates, {}) == 0
    with pytest.raises(QueryError):
        select_sterm(parse_query("SNP1!=AG,SNP2!=CC", "count").predicates)


def test_encode_query_splits_terms(demo_freq):
    q = parse_query("phenotype=Cancer B,SNP2!=CC,SNP4=AG", "count")
    eq = encode_query(q, demo_freq)
    assert eq.sterm == "Cancer B"
    assert eq.xterms == (("2CC", True), ("4AG", False))
    assert eq.positive_xterms == ("4AG",)
    assert eq.negative_xterms == ("2CC",)
    assert eq.gamma == 2


def test_encode_query_match(demo_freq):
    q = parse_query("id=7,SNP2=CC,SNP3=CT,SNP4=AG", "match", k_prime=2)
    eq = encode_query(q, demo_freq)
    assert eq.sterm == "ID:7"
    assert eq.xterms == (("2CC", False), ("3CT", False), ("4AG", False))
    assert eq.gamma == 3 and eq.k_prime == 2


def test_encode_all_negated_rejected():
    q = parse_query("SNP1!=AG,SNP2!=CC", "boolean")
    with pytest.raises(QueryError):
        encode_query(q)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_cohort_roundtrip(seed):
    rng = random.Random(seed)
    gdb = random_cohort(rng, rng.randint(0, 12), rng.randint(1, 5),
                        with_metadata=rng.random() < 0.5)
    # every record's keywords appear in the universe (ids aside)
    u = keyword_universe(gdb)
    all_kws = u.all_keywords()
    for rec in gdb.records:
        for kw in record_keywords(rec):
            assert kw in all_kws or kw.startswith("ID:")


def test_demo_csv_is_stable():
    # guard against accidental fixture edits: exact bytes matter for goldens
    assert DEMO_COHORT_CSV.count("\n") == 8
    assert parse_gdb(DEMO_COHORT_CSV).records[6].genotypes == ("AG", "CT", "CT", "AG")


# --- fuzzing the plaintext parsers -------------------------------------------------

_LONG_DIGITS = "1" * 5000  # past int()'s 4,300-digit limit
_CSV_CHARS = "ID,SNP_1PhenotypeACGTacgt0-9 \t\r\n\"'#é\x00"
_CSV_CELLS = ["ID", "id", "SNP_1", "SNP1", "snp_2", "SNP_3", "SNP_0", "SNP_" + _LONG_DIGITS,
              "Phenotype", "Gender", "", " ", "1", "2", "-3", "0", _LONG_DIGITS, "AA", "ct",
              "XY", "A", "Cancer A", '"q,uoted"', '"open', "\r", "é"]


def _mutated(text: str):
    """``text`` with one span deleted, replaced or inserted at a drawn place."""
    return st.builds(lambda at, cut, put: text[:at] + put + text[at + cut:],
                     st.integers(0, len(text)), st.integers(0, 8),
                     st.text(alphabet=_CSV_CHARS, max_size=8))


_CSV_TABLES = st.lists(st.lists(st.sampled_from(_CSV_CELLS), max_size=6), max_size=6).map(
    lambda rows: "\n".join(",".join(row) for row in rows))
_COHORT_INPUTS = st.one_of(
    st.text(max_size=200),
    st.text(alphabet=_CSV_CHARS, max_size=200),
    _CSV_TABLES,
    _mutated(DEMO_COHORT_CSV),
    st.binary(max_size=200),
    _mutated(DEMO_COHORT_CSV).map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.builds(lambda t, at: t[:at] + b"\xff" + t[at:],
              st.just(DEMO_COHORT_CSV.encode()), st.integers(0, len(DEMO_COHORT_CSV))),
)


def _within_seconds(fn, seconds: float = 2.0):
    t0 = time.perf_counter()
    try:
        return fn()
    finally:
        assert time.perf_counter() - t0 < seconds


@settings(max_examples=500, deadline=None)
@given(_COHORT_INPUTS)
def test_parse_gdb_fuzz(source):
    """A cohort CSV, as text or as bytes, parses or raises GdbParseError, and
    nothing else, in bounded time."""
    try:
        gdb = _within_seconds(lambda: parse_gdb(source))
    except GdbParseError:
        return
    for rec in gdb.records:
        assert len(rec.genotypes) == gdb.snp_count and rec.phenotype


def test_parse_gdb_refuses_what_the_csv_reader_cannot_read():
    header = "ID,SNP_1,Phenotype\n"
    for text, error in ((header + "1,AA," + "x" * 200_000 + "\n", "field larger"),
                        ("ID,SNP_1,Phenotype\r1,AA,x\r\n2,AA,y\n", "new-line character"),
                        (header.encode() + b"1,AA,\xff\n", "not UTF-8")):
        with pytest.raises(GdbParseError, match=error):
            parse_gdb(text)


_QUERY_FIELDS = ["SNP2", "snp_3", "SNP_0", "SNP" + _LONG_DIGITS, "SNP", "phenotype", "Phenotype",
                 "gender", "ethnicity", "id", "ID", "bogus", "", "2SNP"]
_QUERY_VALUES = ["AA", "cc", "XY", "A", "5", "-1", "0", _LONG_DIGITS, "", " Cancer B ",
                 "\ud800", "é", "=", ","]
_PREDICATES = st.builds(lambda f, op, v: f + op + v, st.sampled_from(_QUERY_FIELDS),
                        st.sampled_from(["=", "!=", "==", "", " = "]),
                        st.sampled_from(_QUERY_VALUES))
_WHERES = st.one_of(
    st.text(max_size=80),
    st.lists(_PREDICATES, max_size=5).map(",".join),
    st.lists(_PREDICATES, min_size=1, max_size=3).map(", ".join).flatmap(_mutated),
)


@settings(max_examples=500, deadline=None)
@given(_WHERES, st.sampled_from(["count", "boolean", "match", "Count", ""]),
       st.one_of(st.none(), st.integers(-2, 6), st.booleans(), st.just("2"), st.just(2.0)))
def test_parse_query_fuzz(where, query_type, k_prime):
    """A query parses or raises QueryError, and nothing else, in bounded
    time; a parsed query's keywords encode to bytes for the PRFs."""
    try:
        query = _within_seconds(lambda: parse_query(where, query_type, k_prime))
        eq = encode_query(query)
    except QueryError:
        return
    for kw in (eq.sterm, *(kw for kw, _ in eq.xterms)):
        keyword_bytes(kw)
