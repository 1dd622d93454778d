"""E7 — ablation: pattern-based discovery (paper ref [2], MeTA-style).

Exercises the second exploratory algorithm family on the full dataset:
Apriori vs FP-growth runtime and equivalence across a support sweep,
association-rule generation, and generalised itemsets at the taxonomy's
abstraction levels ("Characterization of Medical Treatments at
Different Abstraction Levels").
"""

from __future__ import annotations

import time

import pytest

from repro.mining import (
    apriori,
    fpgrowth,
    generate_rules,
    level_summary,
    mine_generalized_itemsets,
)

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper

SUPPORTS = (0.4, 0.3, 0.2, 0.15)


@pytest.fixture(scope="module")
def transactions(paper_log):
    return paper_log.transactions(by="patient")


def test_pattern_mining_sweep(transactions, benchmark):
    rows = []
    for min_support in SUPPORTS:
        start = time.perf_counter()
        via_fp = fpgrowth(transactions, min_support)
        fp_seconds = time.perf_counter() - start
        start = time.perf_counter()
        via_apriori = apriori(transactions, min_support)
        apriori_seconds = time.perf_counter() - start
        assert {s.items: s.count for s in via_fp} == {
            s.items: s.count for s in via_apriori
        }
        rows.append(
            (min_support, len(via_fp), fp_seconds, apriori_seconds)
        )

    benchmark.pedantic(
        lambda: fpgrowth(transactions, SUPPORTS[-1]),
        rounds=1,
        iterations=1,
    )
    print()
    print("E7 — frequent co-prescription mining, 6,380 patient baskets")
    print(f"{'support':>8} {'#itemsets':>10} {'fpgrowth(s)':>12}"
          f" {'apriori(s)':>11}")
    for min_support, count, fp_s, ap_s in rows:
        print(
            f"{min_support:>8.2f} {count:>10} {fp_s:>12.3f} {ap_s:>11.3f}"
        )
    benchmark.extra_info["rows"] = rows


def test_itemset_count_grows_as_support_drops(transactions):
    counts = [len(fpgrowth(transactions, s)) for s in SUPPORTS]
    assert counts == sorted(counts)


def test_rules_from_cooccurring_panels(transactions):
    """Routine-care panels co-occur: strong rules must exist."""
    itemsets = fpgrowth(transactions, 0.3)
    rules = generate_rules(itemsets, min_confidence=0.8)
    print()
    print(f"association rules (support >= 0.3, confidence >= 0.8):"
          f" {len(rules)}")
    for rule in rules[:5]:
        print(f"  {rule}")
    assert rules
    assert all(rule.confidence >= 0.8 for rule in rules)


def test_generalized_patterns_surface_category_knowledge(paper_log,
                                                         transactions):
    """Category-level patterns exist that no leaf-level pattern shows:
    complication exams are individually rare but frequent as a group."""
    generalized = mine_generalized_itemsets(
        transactions,
        paper_log.taxonomy.parent_map(),
        min_support=0.10,
        max_length=3,
    )
    summary = level_summary(generalized)
    print()
    print(f"generalized itemsets by abstraction level: {summary}")
    assert summary["category"] > 0
    # A complication category is frequent at category level even though
    # every individual complication exam is below the support threshold.
    leaf_items = {
        item
        for g in generalized
        if g.level == "leaf"
        for item in g.items
    }
    category_only = [
        g
        for g in generalized
        if g.level == "category" and len(g.items) == 1
    ]
    complication = [
        g
        for g in category_only
        if next(iter(g.items))
        in ("cardiovascular", "ophthalmic", "renal", "neurological")
    ]
    assert complication, "complication categories should be frequent"
    complication_exams = {
        exam.name
        for exam in paper_log.taxonomy
        if exam.category in ("cardiovascular", "ophthalmic", "renal")
    }
    assert not (complication_exams & leaf_items)
