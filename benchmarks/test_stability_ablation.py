"""E10 — ablation: bootstrap stability corroborates the selected K.

The Table I machinery picks K by classifier robustness. An independent
check of the same question: how *stable* is each K's clustering under
resampling? This benchmark computes the bootstrap-stability profile
over the Table I K band on the paper-scale VSM and verifies the K the
optimiser selects sits in a stable region (no cherry-picking — stability
is computed with a completely different mechanism than the selection).
"""

from __future__ import annotations

import pytest

from repro.mining import stability_profile

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper

K_VALUES = (6, 8, 10, 15, 20)


@pytest.fixture(scope="module")
def profile(paper_matrix):
    sample = paper_matrix[::4]  # 1,595 patients keep replicates cheap
    return stability_profile(
        sample, K_VALUES, n_replicates=6, seed=BENCH_SEED
    )


def test_stability_profile(profile, benchmark, paper_matrix):
    from repro.mining import bootstrap_stability

    sample = paper_matrix[::4]
    benchmark.pedantic(
        lambda: bootstrap_stability(
            sample, 8, n_replicates=4, seed=BENCH_SEED
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print("E10 — bootstrap stability by K (mean pairwise ARI,"
          " 6 replicates, 80% subsamples)")
    print(f"{'K':>4} {'stability':>10}")
    for k, score in profile.items():
        print(f"{k:>4} {score:>10.3f}")
    benchmark.extra_info["profile"] = profile

    # The small-K band the optimiser selects from must be at least as
    # stable as the large-K tail it rejects.
    small_band = max(profile[k] for k in (6, 8, 10))
    assert small_band >= profile[20] - 0.02


def test_all_stabilities_valid(profile):
    assert all(-1.0 <= value <= 1.0 for value in profile.values())
    # The structure is real: stability well above the noise floor.
    assert max(profile.values()) > 0.3
