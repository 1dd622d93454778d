"""E6 — ablation: Kanungo kd-tree filtering K-means vs Lloyd's.

The paper's preliminary implementation cites Kanungo et al. (TPAMI
2002) — the kd-tree *filtering* algorithm — as its K-means engine. This
benchmark (i) verifies our two engines produce identical SSE and
assignments, and (ii) quantifies the filtering algorithm's pruning
power: the fraction of points assigned in bulk at kd-tree internal
nodes and the point-centre distance evaluations saved versus Lloyd's
``n x K`` per pass.

Honest wall-clock note: in this pure-Python/numpy implementation the
vectorised Lloyd pass is faster in wall-clock time — BLAS evaluates all
``n x K`` distances faster than Python-level tree traversal prunes
them. The table therefore reports *distance evaluations* (the metric
Kanungo et al. optimise, and the one that matters when a distance is
expensive) alongside wall-clock for transparency.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.mining import KMeans, adjusted_rand_index
from repro.mining.kmeans import filtering_stats

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper


def make_blobs(n, dims, k, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10, 10, size=(k, dims))
    return np.vstack(
        [
            rng.normal(center, 0.8, size=(n // k, dims))
            for center in centers
        ]
    )


SHAPES = (
    (6000, 2, 8),
    (6000, 4, 8),
    (6000, 16, 8),
)


def run_engine(data, k, algorithm):
    start = time.perf_counter()
    model = KMeans(
        k, algorithm=algorithm, seed=BENCH_SEED, n_init=1, max_iter=50
    ).fit(data)
    return model, time.perf_counter() - start


def test_filtering_ablation(benchmark):
    rows = []
    for n, dims, k in SHAPES:
        data = make_blobs(n, dims, k, seed=BENCH_SEED)
        lloyd, lloyd_s = run_engine(data, k, "lloyd")
        filtering, filtering_s = run_engine(data, k, "filtering")
        assert lloyd.inertia_ == pytest.approx(
            filtering.inertia_, rel=1e-6
        )
        stats = filtering_stats(data, lloyd.cluster_centers_)
        rows.append((n, dims, k, lloyd_s, filtering_s, stats))

    data = make_blobs(*SHAPES[0], seed=BENCH_SEED)
    benchmark.pedantic(
        lambda: KMeans(
            SHAPES[0][2], algorithm="filtering", seed=BENCH_SEED,
            n_init=1,
        ).fit(data),
        rounds=1,
        iterations=1,
    )

    print()
    print("E6 — Lloyd vs kd-tree filtering (identical SSE verified)")
    print(
        f"{'n':>6} {'dims':>5} {'K':>3} {'lloyd(s)':>9}"
        f" {'filter(s)':>10} {'bulk-assigned':>14}"
        f" {'dist evals saved':>17}"
    )
    for n, dims, k, lloyd_s, filtering_s, stats in rows:
        saved = 1.0 - (
            stats["distance_evaluations"]
            / stats["lloyd_distance_evaluations"]
        )
        print(
            f"{n:>6} {dims:>5} {k:>3} {lloyd_s:>9.3f}"
            f" {filtering_s:>10.3f} {stats['bulk_fraction']:>13.1%}"
            f" {saved:>16.1%}"
        )
        # Low-dimensional clustered data: most points assigned in bulk.
        if dims <= 4:
            assert stats["bulk_fraction"] > 0.5
            assert saved > 0.5
    benchmark.extra_info["rows"] = [
        (n, dims, k, lloyd_s, filtering_s, stats["bulk_fraction"])
        for n, dims, k, lloyd_s, filtering_s, stats in rows
    ]


def test_engines_agree_on_vsm(paper_matrix):
    """On the real (high-dimensional) VSM both engines coincide too."""
    sample = paper_matrix[:1500]
    lloyd = KMeans(6, algorithm="lloyd", seed=1, n_init=1).fit(sample)
    filtering = KMeans(6, algorithm="filtering", seed=1, n_init=1).fit(
        sample
    )
    assert lloyd.inertia_ == pytest.approx(filtering.inertia_, rel=1e-9)
    assert adjusted_rand_index(
        lloyd.labels_, filtering.labels_
    ) == pytest.approx(1.0)


def test_pruning_degrades_with_dimension():
    """On *unclustered* data the kd-tree filtering loses pruning power
    as dimension grows (cells stop being dominated by one centre) — the
    reason ADA-HEALTH keeps the vectorised Lloyd engine for wide VSMs.
    With well-separated blobs pruning stays strong in any dimension."""
    rng = np.random.default_rng(3)
    fractions = []
    for dims in (2, 8, 32):
        data = rng.uniform(0.0, 1.0, size=(3000, dims))
        model = KMeans(6, seed=3, n_init=1).fit(data)
        stats = filtering_stats(data, model.cluster_centers_)
        fractions.append(stats["bulk_fraction"])
    assert fractions[0] > fractions[-1]
