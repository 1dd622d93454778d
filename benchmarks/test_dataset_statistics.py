"""E4 — §IV dataset description.

Regenerates the paper's dataset statistics paragraph as a table and
checks the synthetic log against every published number:

    "the examination log data of 6,380 patients (age range 4-95 years)
    with overt diabetes, covering the time period of one year, for a
    total of 95,788 records. ... 159 different types of examinations
    are present ... this dataset, albeit small, is characterized by an
    inherently sparse distribution"
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DiabeticExamLogGenerator
from repro.preprocess import characterize_log

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper

PAPER = {
    "n_patients": 6380,
    "n_records": 95788,
    "n_exam_types": 159,
    "age_min": 4,
    "age_max": 95,
    "days": 365,
}


def test_dataset_statistics(paper_log, benchmark):
    benchmark.pedantic(
        lambda: DiabeticExamLogGenerator(seed=BENCH_SEED).generate(),
        rounds=1,
        iterations=1,
    )
    summary = paper_log.summary()
    profile = characterize_log(paper_log)
    frequency = np.sort(paper_log.exam_frequency())[::-1]
    total = frequency.sum()

    print()
    print("SSIV dataset statistics (measured vs paper)")
    rows = [
        ("patients", summary["n_patients"], PAPER["n_patients"]),
        ("records", summary["n_records"], PAPER["n_records"]),
        ("exam types", summary["n_exam_types"], PAPER["n_exam_types"]),
        ("min age", summary["age_min"], PAPER["age_min"]),
        ("max age", summary["age_max"], PAPER["age_max"]),
        ("days spanned", summary["days_spanned"], PAPER["days"]),
    ]
    for name, measured, paper in rows:
        print(f"  {name:<14} {measured:>8}   (paper: {paper})")
    print(f"  {'sparsity':<14} {profile.sparsity:>8.3f}   (paper: 'inherently sparse')")
    print(
        f"  top 20% of types -> {frequency[:32].sum() / total:.1%} of rows"
        f" (paper: 70%)"
    )
    print(
        f"  top 40% of types -> {frequency[:64].sum() / total:.1%} of rows"
        f" (paper: 85%)"
    )
    benchmark.extra_info["summary"] = {
        k: (int(v) if v is not None else None) for k, v in summary.items()
    }


def test_patient_count_exact(paper_log):
    assert paper_log.n_patients == PAPER["n_patients"]


def test_record_count_within_one_percent(paper_log):
    measured = paper_log.n_records
    assert abs(measured - PAPER["n_records"]) / PAPER["n_records"] < 0.01


def test_exam_type_count_exact(paper_log):
    assert paper_log.n_exam_types == PAPER["n_exam_types"]


def test_age_range_within_paper_bounds(paper_log):
    ages = paper_log.ages()
    assert min(ages) >= PAPER["age_min"]
    assert max(ages) <= PAPER["age_max"]
    # And the extremes are actually reached (range 4-95, not a subset).
    assert min(ages) <= 10
    assert max(ages) >= 90


def test_one_year_horizon(paper_log):
    assert paper_log.summary()["days_spanned"] <= PAPER["days"]


def test_sparse_distribution(paper_log):
    profile = characterize_log(paper_log)
    assert profile.is_sparse
    assert profile.sparsity > 0.7
