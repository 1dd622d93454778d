"""The prepared Lloyd step and k-means++ draw against the per-call ones.

``KMeans`` prepares its data once per fit (row norms, row-major nonzero
layout, gather positions) and reuses it in every step, draw and
re-seed; ``tests/kmeans_reference.py`` keeps the version that computed
everything per call. Every fit, step and draw must agree bit for bit:
labels, centres, ``inertia_`` and ``n_iter_``.
"""

from __future__ import annotations

from typing import List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.core import ADAHealth
from repro.data import paper_dataset
from repro.mining import KMeans
from repro.mining.kmeans import _Prepared, kmeans_plus_plus
from tests.kmeans_reference import (
    ReferenceKMeans,
    assert_same_fit,
    reference_kmeans_plus_plus,
    reference_lloyd_step,
)

#: Cell values: exact zeros of both signs, small integers (duplicate
#: distances and ties) and arbitrary floats of either sign.
CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def datasets(draw) -> np.ndarray:
    """A matrix whose rows are drawn, with repeats, from a few distinct
    rows, and whose cells are zeroed with a drawn density (dense to
    almost all zero)."""
    n_distinct = draw(st.integers(1, 12))
    dims = draw(st.integers(1, 7))
    distinct = draw(
        npst.arrays(np.float64, (n_distinct, dims), elements=CELLS)
    )
    density = draw(st.sampled_from([1.0, 0.5, 0.1]))
    keep = draw(
        npst.arrays(
            np.float64,
            (n_distinct, dims),
            elements=st.floats(0.0, 1.0, allow_nan=False),
        )
    )
    distinct = np.where(keep < density, distinct, 0.0)
    n = draw(st.integers(n_distinct, 30))
    picks = draw(
        npst.arrays(np.int64, n, elements=st.integers(0, n_distinct - 1))
    )
    picks[:n_distinct] = np.arange(n_distinct)
    return distinct[picks]


FIT_PARAMS = st.fixed_dictionaries(
    {
        "init": st.sampled_from(["k-means++", "random"]),
        "n_init": st.integers(1, 3),
        "max_iter": st.sampled_from([1, 2, 5, 100]),
        "tol": st.sampled_from([0.0, 1e-6]),
        "seed": st.integers(0, 2**16),
    }
)


def _fit_both(data, n_clusters, params) -> Tuple[KMeans, ReferenceKMeans]:
    mine = KMeans(n_clusters, **params).fit(data)
    reference = ReferenceKMeans(n_clusters, **params).fit(data)
    return mine, reference


@settings(max_examples=200, deadline=None)
@given(data=datasets(), k_seed=st.integers(0, 2**16), params=FIT_PARAMS)
@example(
    # one distinct row, k = 3: every step re-seeds two empty clusters
    data=np.full((5, 3), -0.0),
    k_seed=2,
    params={
        "init": "random",
        "n_init": 2,
        "max_iter": 5,
        "tol": 0.0,
        "seed": 0,
    },
)
def test_fit_matches_reference(data, k_seed, params):
    n_clusters = 1 + k_seed % data.shape[0]
    mine, reference = _fit_both(data, n_clusters, params)
    assert_same_fit(mine, reference)


@settings(max_examples=100, deadline=None)
@given(data=datasets(), seed=st.integers(0, 2**16), data2=st.data())
def test_step_and_draw_match_reference(data, seed, data2):
    k = data2.draw(st.integers(1, data.shape[0]), label="k")
    centers = data2.draw(
        npst.arrays(np.float64, (k, data.shape[1]), elements=CELLS),
        label="centers",
    )
    prepared = _Prepared(data)
    for mine, theirs in zip(
        prepared.lloyd_step(centers), reference_lloyd_step(data, centers)
    ):
        assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes()
    drawn = kmeans_plus_plus(data, k, np.random.default_rng(seed))
    expected = reference_kmeans_plus_plus(
        data, k, np.random.default_rng(seed)
    )
    assert drawn.tobytes() == expected.tobytes()


def test_reseeds_and_unconverged_runs_match_reference():
    """The property's edge cases really occur: empty clusters are
    re-seeded, and fits stop at ``max_iter`` without converging."""
    rng = np.random.default_rng(7)
    data = np.repeat(rng.normal(size=(3, 4)), 4, axis=0)
    reseeds = []
    original = np.argmax

    def counting_argmax(*args, **kwargs):
        reseeds.append(1)
        return original(*args, **kwargs)

    params = {"init": "random", "n_init": 2, "max_iter": 3, "tol": 0.0}
    with mock.patch.object(np, "argmax", counting_argmax):
        mine, reference = _fit_both(data, 5, dict(params, seed=1))
    assert reseeds
    assert_same_fit(mine, reference)

    blobs = rng.normal(size=(60, 3))
    mine, reference = _fit_both(
        blobs, 6, {"n_init": 3, "max_iter": 2, "tol": 0.0, "seed": 3}
    )
    assert mine.n_iter_ == 2
    assert_same_fit(mine, reference)


# ----------------------------------------------------------------------
# The K-sweep of one paper-cohort cold session
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def session_fits() -> List[Tuple[np.ndarray, dict]]:
    """The data and parameters of every ``KMeans.fit`` that one cold
    ``analyze`` of the paper cohort runs."""
    captured: List[Tuple[np.ndarray, dict]] = []
    fit = KMeans.fit

    def record(model, data, resume=None):
        params = {
            name: getattr(model, name)
            for name in ("init", "n_init", "max_iter", "tol", "seed")
        }
        captured.append(
            (np.array(data), dict(params, n_clusters=model.n_clusters))
        )
        return fit(model, data, resume)

    with mock.patch.object(KMeans, "fit", record):
        ADAHealth(seed=0).analyze(paper_dataset(0), name="cohort")
    return captured


@pytest.mark.bench_smoke
def test_paper_session_fits_match_reference(session_fits):
    assert len(session_fits) == 10
    for data, params in session_fits:
        mine = KMeans(**params).fit(data)
        reference = ReferenceKMeans(**params).fit(data)
        assert_same_fit(mine, reference)
