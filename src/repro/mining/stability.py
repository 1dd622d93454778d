"""Bootstrap stability assessment for clusterings.

The paper's optimiser assesses cluster "robustness" with a classifier;
this module provides the complementary *resampling* view: cluster
bootstrap replicates of the data and measure how consistently pairs of
points stay together (mean adjusted Rand index between replicate
clusterings, evaluated on the overlap). Stable structure survives
resampling; structure fitted to noise does not. Used by the ablation
benchmarks to corroborate the K chosen by Table I's combined rule.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MiningError
from repro.mining.distance import as_matrix
from repro.mining.kmeans import KMeans
from repro.mining.metrics import adjusted_rand_index


def bootstrap_stability(
    data,
    n_clusters: int,
    n_replicates: int = 10,
    sample_fraction: float = 0.8,
    seed: int = 0,
) -> float:
    """Mean pairwise ARI of K-means clusterings over bootstrap subsamples.

    Parameters
    ----------
    data:
        The matrix to cluster.
    n_clusters:
        K used for every replicate.
    n_replicates:
        Number of subsample clusterings; all pairs are compared on the
        intersection of their samples.
    sample_fraction:
        Fraction of rows drawn (without replacement) per replicate.

    Returns
    -------
    Mean ARI in ``[-1, 1]``; close to 1 = highly stable.
    """
    data = as_matrix(data)
    n = data.shape[0]
    if n_replicates < 2:
        raise MiningError("need at least 2 replicates")
    if not 0.1 <= sample_fraction <= 1.0:
        raise MiningError("sample_fraction must be in [0.1, 1.0]")
    take = max(n_clusters + 1, int(round(sample_fraction * n)))
    if take > n:
        raise MiningError("sample larger than the dataset")
    rng = np.random.default_rng(seed)

    samples = []
    labelings = []
    for replicate in range(n_replicates):
        rows = np.sort(rng.choice(n, size=take, replace=False))
        model = KMeans(n_clusters, seed=seed + replicate, n_init=2)
        labels = model.fit_predict(data[rows])
        samples.append(rows)
        labelings.append(np.asarray(labels))

    scores = []
    for i in range(n_replicates):
        for j in range(i + 1, n_replicates):
            common, in_i, in_j = np.intersect1d(
                samples[i], samples[j], return_indices=True
            )
            if len(common) < 2:
                continue
            scores.append(
                adjusted_rand_index(
                    labelings[i][in_i], labelings[j][in_j]
                )
            )
    if not scores:
        raise MiningError("no overlapping samples to compare")
    return float(np.mean(scores))


def stability_profile(
    data,
    k_values,
    n_replicates: int = 8,
    seed: int = 0,
) -> dict:
    """``K -> bootstrap stability`` over a sweep of K values."""
    return {
        int(k): bootstrap_stability(
            data, int(k), n_replicates=n_replicates, seed=seed
        )
        for k in k_values
    }
