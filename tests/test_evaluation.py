"""Plaintext oracle and synthetic cohort generator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from privgendb.encoding import (
    Predicate,
    parse_gdb,
    parse_query,
    record_keywords,
)
from privgendb.engine import run_query

from conftest import random_cohort
from oracle import SyntheticSpec, evaluate_plain, gen_synthetic, predicate_matches


# --- oracle ---------------------------------------------------------------------

def test_predicate_matches_basics(demo_gdb):
    rec = demo_gdb.records[1]  # id 2: AA,CC,CT,AG / Cancer B
    assert predicate_matches(rec, Predicate("snp", "CC", snp=2))
    assert not predicate_matches(rec, Predicate("snp", "CC", snp=1))
    assert predicate_matches(rec, Predicate("snp", "CC", snp=1, negated=True))
    assert not predicate_matches(rec, Predicate("snp", "AA", snp=9))  # out of range
    assert predicate_matches(rec, Predicate("phenotype", "Cancer B"))
    assert predicate_matches(rec, Predicate("id", "2"))
    assert not predicate_matches(rec, Predicate("id", "3"))


def test_predicate_matches_metadata_any_column():
    gdb = parse_gdb(
        "ID,SNP_1,Phenotype,Gender,Ethnicity\n"
        "1,AG,Cancer A,female,groupX\n"
        "2,AA,Cancer B,male,groupY\n"
    )
    rec = gdb.records[0]
    # metadata predicates match the value anywhere in the metadata columns,
    # exactly as the keyword index stores them
    assert predicate_matches(rec, Predicate("gender", "female"))
    assert predicate_matches(rec, Predicate("ethnicity", "female"))
    assert predicate_matches(rec, Predicate("gender", "groupX"))
    assert not predicate_matches(rec, Predicate("gender", "male"))


def test_oracle_golden_answers(demo_gdb, demo_freq):
    q = parse_query("phenotype=Cancer B, SNP2=CC, SNP4=AG", "count")
    assert evaluate_plain(demo_gdb, q, demo_freq) == 2
    q = parse_query("phenotype=Cancer B, SNP2!=CC, SNP4=AG", "count")
    assert evaluate_plain(demo_gdb, q, demo_freq) == 1
    q = parse_query("phenotype=Cancer B, SNP2=CC, SNP4=AG", "match", 1)
    assert evaluate_plain(demo_gdb, q, demo_freq) == [2, 5, 7]


def test_oracle_match_anchor_not_counted_toward_threshold(demo_gdb):
    # anchor must hold outright; k' applies to the remaining predicates only
    q = parse_query("phenotype=Cancer B, SNP1=ZZ".replace("ZZ", "TT"), "match", 1)
    # no Cancer B record has SNP1=TT; every Cancer B record matches the anchor
    assert evaluate_plain(demo_gdb, q) == []


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_keyword_space_mirrors_predicates(seed):
    """g in record_keywords(rec) <=> the corresponding predicate matches rec."""
    rng = random.Random(seed)
    gdb = random_cohort(rng, rng.randint(1, 12), rng.randint(1, 4),
                        with_metadata=rng.random() < 0.5)
    for rec in gdb.records:
        kws = record_keywords(rec)
        for s, geno in enumerate(rec.genotypes, 1):
            assert (f"{s}{geno}" in kws) == predicate_matches(
                rec, Predicate("snp", geno, snp=s))
        assert rec.phenotype in kws
        assert predicate_matches(rec, Predicate("phenotype", rec.phenotype))
        for _, val in rec.metadata:
            assert val in kws
            assert predicate_matches(rec, Predicate("gender", val))
        assert f"ID:{rec.id}" in kws


# --- synthetic cohorts --------------------------------------------------------------

def test_synthetic_exact_phenotype_counts():
    spec = SyntheticSpec.uniform(100, 5, [("Cohort", 37), ("Background", 63)], seed=7)
    gdb = parse_gdb(gen_synthetic(spec))
    assert len(gdb.records) == 100
    assert sum(r.phenotype == "Cohort" for r in gdb.records) == 37
    assert all(len(r.genotypes) == 5 for r in gdb.records)
    assert [r.id for r in gdb.records] == list(range(1, 101))


def test_synthetic_deterministic():
    spec = SyntheticSpec.uniform(50, 3, [("A", 20), ("B", 30)], seed=123)
    assert gen_synthetic(spec) == gen_synthetic(spec)
    other = SyntheticSpec.uniform(50, 3, [("A", 20), ("B", 30)], seed=124)
    assert gen_synthetic(spec) != gen_synthetic(other)


def test_synthetic_genotypes_come_from_model():
    spec = SyntheticSpec(6, 2, (("P", 6),),
                         ((("AA", 1.0),), (("CC", 3.0), ("CT", 1.0))), seed=5)
    gdb = parse_gdb(gen_synthetic(spec))
    assert {r.genotypes[0] for r in gdb.records} == {"AA"}
    assert {r.genotypes[1] for r in gdb.records} <= {"CC", "CT"}


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(10, 1, (("A", 5),), ((("AA", 1.0),),))  # counts don't sum
    with pytest.raises(ValueError):
        SyntheticSpec(5, 2, (("A", 5),), ((("AA", 1.0),),))  # missing column model
    with pytest.raises(ValueError):
        SyntheticSpec(5, 1, (("A", 5),), ((("AA", -1.0),),))  # bad weight
    with pytest.raises(ValueError):
        SyntheticSpec(5, 0, (("A", 5),), ())


def test_sanity_check_pipeline(demo_gdb, demo_keys, demo_egdb, demo_freq):
    q = parse_query("phenotype=Cancer B, SNP2=CC", "boolean")
    assert run_query(demo_keys, demo_egdb, q, demo_freq) == evaluate_plain(demo_gdb, q, demo_freq)
