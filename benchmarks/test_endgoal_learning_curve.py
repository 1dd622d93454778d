"""E5 — ablation: end-goal interest prediction vs. interaction count.

The paper claims (SSIII, "Identification of viable end-goals"):

    "The larger the number of previous user interactions, the more
    accurate the classification model will be."

This benchmark measures that learning curve directly: a simulated
expert with a fixed latent preference over end-goals supplies
interactions; after every batch the interest model's accuracy is
evaluated on held-out (goal, dataset) pairs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DEFAULT_END_GOALS,
    EndGoalInterestModel,
    ViableEndGoalFinder,
)
from repro.data import small_dataset
from repro.preprocess import characterize_log

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper

#: The simulated user's fixed latent preference.
PREFERRED = {"patient-segmentation", "care-pathway-rules"}

BATCHES = (2, 5, 10, 20, 40, 80)


@pytest.fixture(scope="module")
def profiles():
    """Dataset profiles of several differently-sized cohorts."""
    datasets = [
        small_dataset(
            n_patients=n, n_exam_types=40, target_records=15 * n,
            seed=BENCH_SEED + i,
        )
        for i, n in enumerate((200, 300, 400, 500))
    ]
    return [characterize_log(log) for log in datasets]


def learning_curve(profiles, noise, seed):
    rng = np.random.default_rng(seed)
    finder = ViableEndGoalFinder()
    goals = list(DEFAULT_END_GOALS)
    model = EndGoalInterestModel([g.name for g in goals], seed=seed)
    holdout = [
        (goal, profile, goal.name in PREFERRED)
        for goal in goals
        for profile in profiles
    ]
    curve = []
    recorded = 0
    for target in BATCHES:
        while recorded < target:
            goal = goals[int(rng.integers(len(goals)))]
            profile = profiles[int(rng.integers(len(profiles)))]
            interested = goal.name in PREFERRED
            if rng.random() < noise:
                interested = not interested
            model.record_interaction(goal, profile, interested)
            recorded += 1
        curve.append((target, model.accuracy_on(holdout)))
    return curve


def test_endgoal_learning_curve(profiles, benchmark):
    curve = benchmark.pedantic(
        lambda: learning_curve(profiles, noise=0.1, seed=BENCH_SEED),
        rounds=1,
        iterations=1,
    )
    print()
    print("E5 — interest-prediction accuracy vs #interactions"
          " (10% label noise)")
    print(f"{'interactions':>13} {'accuracy':>9}")
    for n, accuracy in curve:
        print(f"{n:>13} {accuracy:>9.3f}")
    print("paper claim: accuracy grows with the number of interactions")
    benchmark.extra_info["curve"] = curve


def test_accuracy_grows_with_interactions(profiles):
    """Late-curve accuracy beats early-curve accuracy (3-seed average)."""
    early, late = [], []
    for seed in (0, 1, 2):
        curve = dict(learning_curve(profiles, noise=0.1, seed=seed))
        early.append(curve[BATCHES[0]])
        late.append(curve[BATCHES[-1]])
    assert np.mean(late) > np.mean(early)
    assert np.mean(late) > 0.85


def test_noise_free_expert_is_learned_perfectly(profiles):
    curve = dict(learning_curve(profiles, noise=0.0, seed=3))
    assert curve[BATCHES[-1]] == pytest.approx(1.0)
