"""The outlier goal's fused distance pass on the paper-scale cohort.

A cold ``ADAHealth.analyze`` runs the outlier goal (paper §IV) as one
``DBSCAN(n_neighbors=5)`` fit over the L2-normalised 6,380 × 159 VSM:
one blocked distance pass gives the radius neighbourhoods and every
patient's 5th-neighbour distance. Before, the goal ran DBSCAN and
``knn_outlier_scores`` as two passes over the same matrix, and DBSCAN
grew its clusters over a CSR of the neighbourhoods
(``tests/outlier_reference.py``). On the paper cohort the pass must
give labels identical to the CSR reference, kNN scores bitwise equal to
the two-pass reference, and the same 20 ``most_atypical`` entries. The
whole goal runs in one ~16 MB distance buffer plus the stored
neighbour blocks: its traced peak stays below 40 MiB (54.4 MiB with
two buffers, the CSR and the raw VSM held alongside). Run from the
repository root::

    PYTHONPATH=src python -m pytest -q -m paper --benchmark-disable \\
        benchmarks/test_outlier_pass.py
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.core import DEFAULT_END_GOALS, ADAHealth, EngineConfig
from repro.core.engine import GoalContext, _run_outliers
from repro.mining import DBSCAN
from repro.obs import NULL_TRACER, Metrics
from repro.preprocess import VSMBuilder
from tests.outlier_reference import assert_same_outlier_pass

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper


@pytest.fixture(scope="module")
def outlier_goal(paper_log):
    """The matrix and radius of the session's DBSCAN fit, and the
    outlier item the session produced."""
    fits = []
    fit = DBSCAN.fit

    def record(self, data):
        fits.append((np.array(data), self.eps, self.n_neighbors))
        return fit(self, data)

    with mock.patch.object(DBSCAN, "fit", record):
        result = ADAHealth(seed=BENCH_SEED).analyze(paper_log)
    (item,) = [item for item in result.items if item.kind == "outlier_set"]
    (captured,) = fits
    return captured, item


def test_paper_outlier_pass_matches_the_two_pass_reference(
    paper_log, outlier_goal
):
    (matrix, eps, n_neighbors), item = outlier_goal
    assert matrix.shape == (6380, 159) and n_neighbors == 5
    model, reference = assert_same_outlier_pass(matrix, eps, n_neighbors)
    assert model.knn_distances_.tobytes() == reference.tobytes()
    vsm = VSMBuilder(EngineConfig().weighting).build(paper_log)
    order = np.argsort(-reference, kind="stable")[:20]
    expected = [
        {
            "patient_id": int(vsm.patient_ids[index]),
            "score": float(reference[index]),
        }
        for index in order
    ]
    assert item.payload["most_atypical"] == expected


def test_paper_outlier_goal_peak_memory(paper_log):
    (goal,) = [g for g in DEFAULT_END_GOALS if g.name == "outlier-screening"]
    context = GoalContext(goal, EngineConfig(), BENCH_SEED, "paper", paper_log)
    tracemalloc.start()
    try:
        run = _run_outliers(context, paper_log, NULL_TRACER, Metrics())
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.items[0].payload["most_atypical"]
    assert peak < 40 * 2**20
