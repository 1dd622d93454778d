"""Cross-implementation and cross-backend equivalence checks.

The perf work (integer-encoded miners, process-parallel sweeps, the
analysis cache) must never change results. This module pins that down:

* the bitset Apriori and integer FP-growth against a brute-force
  reference miner;
* every execution backend against the serial baseline, for the K sweep,
  cross-validation and the whole engine;
* cached re-runs against their cold originals.

The backend sweeps double as tier-1 smoke coverage for the benchmark
configurations (marker: ``bench_smoke``), at tiny sizes.
"""

import functools
from itertools import combinations
from math import ceil

import numpy as np
import pytest

from repro.cloud import ProcessPoolExecutorBackend, SerialExecutor
from repro.core import ADAHealth, AnalysisCache, EngineConfig, KMeansOptimizer
from repro.data.synthetic import small_dataset
from repro.mining.decision_tree import DecisionTreeClassifier
from repro.mining.itemsets import apriori, fpgrowth
from repro.mining.validation import cross_validate


# ----------------------------------------------------------------------
# miners vs a brute-force reference
# ----------------------------------------------------------------------
def _reference_frequent(transactions, min_support):
    """Exhaustive frequent-itemset miner (exponential; tiny inputs only)."""
    n = len(transactions)
    min_count = max(1, ceil(min_support * n))
    sets = [set(t) for t in transactions]
    universe = sorted({item for t in sets for item in t})
    frequent = {}
    for size in range(1, len(universe) + 1):
        found = False
        for combo in combinations(universe, size):
            count = sum(1 for t in sets if t.issuperset(combo))
            if count >= min_count:
                frequent[frozenset(combo)] = count
                found = True
        if not found:  # downward closure: no larger set can be frequent
            break
    return frequent


def _random_transactions(n=40, n_items=8, seed=0):
    rng = np.random.default_rng(seed)
    pool = [f"exam-{index}" for index in range(n_items)]
    transactions = []
    for __ in range(n):
        size = int(rng.integers(1, n_items))
        picks = rng.choice(n_items, size=size, replace=False)
        transactions.append([pool[p] for p in sorted(picks)])
    return transactions


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("min_support", [0.1, 0.25, 0.5])
def test_miners_match_brute_force_reference(seed, min_support):
    transactions = _random_transactions(seed=seed)
    expected = _reference_frequent(transactions, min_support)
    for miner in (apriori, fpgrowth):
        mined = miner(transactions, min_support)
        assert {s.items: s.count for s in mined} == expected
        n = len(transactions)
        for itemset in mined:
            assert itemset.support == itemset.count / n


# ----------------------------------------------------------------------
# execution backends vs the serial baseline
# ----------------------------------------------------------------------
BACKENDS = [
    pytest.param(lambda: SerialExecutor(), id="serial"),
    pytest.param(lambda: ProcessPoolExecutorBackend(workers=2), id="process"),
]


@pytest.fixture(scope="module")
def blob_matrix():
    rng = np.random.default_rng(9)
    return np.vstack(
        [
            rng.normal(0.0, 0.4, size=(40, 5)),
            rng.normal(4.0, 0.4, size=(40, 5)),
            rng.normal(-4.0, 0.4, size=(40, 5)),
        ]
    )


def _sweep(matrix, executor):
    return KMeansOptimizer(
        k_values=(2, 3, 4), n_folds=3, seed=1, executor=executor
    ).optimize(matrix)


@pytest.mark.bench_smoke
@pytest.mark.parametrize("make_backend", BACKENDS)
def test_optimizer_identical_across_backends(blob_matrix, make_backend):
    baseline = _sweep(blob_matrix, SerialExecutor())
    report = _sweep(blob_matrix, make_backend())
    assert report.best_k == baseline.best_k
    assert report.sse_plateau == baseline.sse_plateau
    assert len(report.rows) == len(baseline.rows)
    for row, expected in zip(report.rows, baseline.rows):
        assert row.k == expected.k
        assert row.sse == expected.sse
        assert row.accuracy == expected.accuracy
        assert row.avg_precision == expected.avg_precision
        assert row.avg_recall == expected.avg_recall
        np.testing.assert_array_equal(row.labels, expected.labels)
        np.testing.assert_array_equal(row.centers, expected.centers)


@pytest.mark.bench_smoke
@pytest.mark.parametrize("make_backend", BACKENDS)
def test_cross_validate_identical_across_backends(blob_matrix, make_backend):
    labels = (np.arange(blob_matrix.shape[0]) // 40).astype(int)
    # functools.partial over a module-level class pickles, so the same
    # factory serves the process backend too.
    factory = functools.partial(DecisionTreeClassifier, max_depth=5, seed=0)
    baseline = cross_validate(factory, blob_matrix, labels, n_splits=3)
    scores = cross_validate(
        factory, blob_matrix, labels, n_splits=3, executor=make_backend()
    )
    assert scores == baseline


def test_cross_validate_executor_propagates_failure(blob_matrix):
    labels = (np.arange(blob_matrix.shape[0]) // 40).astype(int)

    def broken_factory():
        raise RuntimeError("cannot build model")

    with pytest.raises(RuntimeError):
        cross_validate(
            broken_factory,
            blob_matrix,
            labels,
            n_splits=3,
            executor=SerialExecutor(),
        )


# ----------------------------------------------------------------------
# the whole engine across execution modes and the cache
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine_log():
    return small_dataset(n_patients=60, seed=4)


def _items_signature(result):
    return [
        (item.kind, item.end_goal, item.title, item.score, item.degree)
        for item in result.items
    ]


def _run_engine(log, **config_kwargs):
    engine = ADAHealth(seed=3, config=EngineConfig(**config_kwargs))
    return engine.analyze(log, name="equivalence")


@pytest.mark.bench_smoke
@pytest.mark.parametrize("executor", ["process"])
def test_engine_parallel_matches_serial(engine_log, executor):
    baseline = _run_engine(engine_log)
    result = _run_engine(
        engine_log, executor=executor, executor_workers=2
    )
    assert _items_signature(result) == _items_signature(baseline)
    assert [run.goal.name for run in result.runs] == [
        run.goal.name for run in baseline.runs
    ]


@pytest.mark.bench_smoke
def test_engine_warm_cache_matches_cold(engine_log):
    baseline = _run_engine(engine_log)
    engine = ADAHealth(seed=3, config=EngineConfig(use_cache=True))
    cold = engine.analyze(engine_log, name="cold")
    warm = engine.analyze(engine_log, name="warm")
    assert _items_signature(cold) == _items_signature(baseline)
    assert _items_signature(warm) == _items_signature(baseline)
    # Every goal of the warm run was served from the cache.
    assert engine.cache is not None
    assert engine.cache.hits >= len(warm.runs)
    # The deferred transformation write still happens once per analyze.
    n_rows = len(engine.kdb.store["transformed_datasets"])
    assert n_rows == sum(
        1 for r in (cold, warm) for run in r.runs
        if "transformation" in run.notes
    )


def test_engine_cache_misses_on_changed_log(engine_log):
    engine = ADAHealth(seed=3, config=EngineConfig(use_cache=True))
    first = engine.analyze(engine_log, name="first")
    hits_before = engine.cache.hits
    other = small_dataset(n_patients=61, seed=4)
    second = engine.analyze(other, name="second")
    # A different log shares no dataset fingerprint: no hits, and one
    # fresh goal-level entry per goal of the second run.
    goal_entries = engine.cache.collection.find(
        {"algorithm": "engine-goal-run"}
    ).to_list()
    assert engine.cache.hits == hits_before
    assert len(goal_entries) == len(first.runs) + len(second.runs)
