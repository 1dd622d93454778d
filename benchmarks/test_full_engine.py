"""E11 — end-to-end: the full engine on the paper-scale dataset.

The headline demonstration: one `analyze()` call on the 6,380-patient
log drives every architecture component — characterisation, end-goal
selection, partial mining, the K optimiser, all seven goal pipelines,
interestingness scoring, ranking and K-DB persistence — and returns a
manageable ranked knowledge set, "with minimal user intervention".
"""

from __future__ import annotations

import pytest

from repro.core import ADAHealth, EngineConfig

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper


def test_full_engine_paper_scale(paper_log, benchmark):
    def run():
        engine = ADAHealth(
            config=EngineConfig(k_values=(6, 8, 10), n_folds=5),
            seed=BENCH_SEED,
        )
        return engine, engine.analyze(
            paper_log, name="paper-scale", user="bench"
        )

    engine, result = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print("E11 — full automated analysis, 6,380 patients")
    print(result.summary())
    print()
    counts = engine.kdb.counts()
    print(f"K-DB: {counts}")
    stats = engine.kdb.statistics()
    print("items by kind:")
    for row in stats["items_by_kind"]:
        print(
            f"  {row['_id']:<18} {row['count']:>4}"
            f"  mean score {row['mean_score']:.3f}"
        )

    # Every viable goal ran; a manageable, fully-annotated item set.
    ran = {run_.goal.name for run_ in result.runs}
    viable = {a.goal.name for a in result.assessments if a.viable}
    assert ran == viable
    assert len(ran) == 7
    assert 10 <= len(result.items) <= 200
    assert all(item.degree is not None for item in result.items)
    assert counts["discovered_knowledge"] == len(result.items)
    benchmark.extra_info["n_items"] = len(result.items)
    benchmark.extra_info["goals"] = sorted(ran)
