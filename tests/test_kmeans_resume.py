"""A K-means fit resumed from a checkpoint is a full fit, bit for bit.

:meth:`KMeans.checkpoint` keeps where a fit stopped: its best restart
and the generator state its restarts left. A fit with more restarts on
the same data and settings takes it as ``resume`` and runs only the
remaining restarts. The paper's K sweep uses this to continue the
partial miner's fits on the selected subset instead of repeating them.
Every mismatch of data or settings falls back to a full fit.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from typing import Iterator, List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DEFAULT_END_GOALS, ADAHealth, EngineConfig
from repro.core.engine import GoalContext, _run_segmentation
from repro.core.optimizer import KMeansOptimizer
from repro.core.partial import HorizontalPartialMiner
from repro.data import paper_dataset
from repro.exceptions import NotFittedError
from repro.mining import KMeans
from repro.obs import NULL_TRACER, Metrics
from repro.preprocess import L2Normalizer, VSMBuilder
from tests.kmeans_reference import assert_same_fit
from tests.test_kmeans_prepared import FIT_PARAMS, datasets


@contextmanager
def counted_restarts() -> Iterator[List[int]]:
    """Record the K of every K-means restart run inside the block."""
    calls: List[int] = []
    run = KMeans._run

    def counted(model, *args):
        calls.append(model.n_clusters)
        return run(model, *args)

    with mock.patch.object(KMeans, "_run", counted):
        yield calls


def _resume_matches_full(data, k, params, prior_n_init, n_init) -> None:
    """Fit ``prior_n_init`` restarts, resume to ``n_init``; the result
    equals a full ``n_init`` fit and runs only the missing restarts."""
    prior = KMeans(k, n_init=prior_n_init, **params).fit(data)
    checkpoint = prior.checkpoint(data)
    with counted_restarts() as restarts:
        resumed = KMeans(k, n_init=n_init, **params).fit(
            data, resume=checkpoint
        )
    full = KMeans(k, n_init=n_init, **params).fit(data)
    assert_same_fit(resumed, full)
    assert len(restarts) == n_init - prior_n_init


def _blobs(order: str) -> np.ndarray:
    rng = np.random.default_rng(5)
    centres = rng.normal(scale=4.0, size=(5, 6))
    data = centres[rng.integers(0, 5, size=240)] + rng.normal(
        size=(240, 6)
    )
    return np.asarray(data, order=order)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("algorithm", ["lloyd", "filtering"])
def test_resumed_fit_equals_full_fit(order, algorithm):
    data = _blobs(order)
    params = {"seed": 3, "algorithm": algorithm}
    for prior_n_init, n_init in [(1, 3), (2, 3), (2, 5), (3, 3)]:
        _resume_matches_full(data, 5, params, prior_n_init, n_init)


def test_resumed_fit_equals_full_fit_through_reseeds():
    """Empty clusters are re-seeded in the prior's and in the resumed
    restarts alike."""
    rng = np.random.default_rng(7)
    data = np.repeat(rng.normal(size=(3, 4)), 4, axis=0)
    reseeds = []
    original = np.argmax

    def counting_argmax(*args, **kwargs):
        reseeds.append(1)
        return original(*args, **kwargs)

    params = {"init": "random", "max_iter": 3, "tol": 0.0, "seed": 1}
    with mock.patch.object(np, "argmax", counting_argmax):
        _resume_matches_full(data, 5, params, 2, 4)
    assert reseeds


@settings(max_examples=100, deadline=None)
@given(data=datasets(), k_seed=st.integers(0, 2**16), params=FIT_PARAMS)
def test_resume_property(data, k_seed, params):
    n_clusters = 1 + k_seed % data.shape[0]
    n_init = params.pop("n_init") + 1
    _resume_matches_full(data, n_clusters, params, n_init - 1, n_init)


# ----------------------------------------------------------------------
# Every mismatch falls back to a full fit
# ----------------------------------------------------------------------
_PRIOR = {"n_clusters": 4, "seed": 3, "n_init": 2}


def _mismatches():
    data = _blobs("C")
    changed = data.copy()
    changed[17, 2] += 1.0
    return [
        ("shape", data[:-1], {}),
        ("dtype", data.astype(np.float32), {}),
        ("bytes", changed, {}),
        ("n_clusters", data, {"n_clusters": 5}),
        ("seed", data, {"seed": 4}),
        ("init", data, {"init": "random"}),
        ("algorithm", data, {"algorithm": "filtering"}),
        ("max_iter", data, {"max_iter": 99}),
        ("tol", data, {"tol": 1e-5}),
        ("restarts", data, {"n_init": 1}),
    ]


@pytest.mark.parametrize(
    "what, data, changes",
    _mismatches(),
    ids=[case[0] for case in _mismatches()],
)
def test_a_mismatch_falls_back_to_a_full_fit(what, data, changes):
    prior_data = _blobs("C")
    checkpoint = KMeans(**_PRIOR).fit(prior_data).checkpoint(prior_data)
    params = dict(_PRIOR, n_init=3)
    params.update(changes)
    model = KMeans(**params)
    assert not checkpoint.continues(model, data)
    with counted_restarts() as restarts:
        resumed = model.fit(data, resume=checkpoint)
    full = KMeans(**params).fit(data)
    assert_same_fit(resumed, full)
    assert len(restarts) == params["n_init"]


def test_matching_copies_continue():
    """Equal data in a different array, and settings passed again,
    still match: the key is the content, not the object."""
    data = _blobs("C")
    checkpoint = KMeans(**_PRIOR).fit(data).checkpoint(data)
    assert checkpoint.continues(KMeans(**dict(_PRIOR, n_init=3)), data.copy())


def _layouts(data: np.ndarray):
    """C-ordered, F-ordered and strided arrays of the values of ``data``."""
    return [
        ("C", np.ascontiguousarray(data)),
        ("memory order", np.asfortranarray(data)),
        ("strided", np.repeat(data, 2, axis=0)[::2]),
    ]


@pytest.mark.parametrize(
    "layout", ["memory order", "strided"], ids=["memory order", "strided"]
)
def test_a_checkpoint_continues_in_any_layout(layout):
    """The key is the values: a C-ordered fit's checkpoint continues on
    an F-ordered or strided array of the same values."""
    prior_data = _blobs("C")
    checkpoint = KMeans(**_PRIOR).fit(prior_data).checkpoint(prior_data)
    data = dict(_layouts(prior_data))[layout]
    model = KMeans(**dict(_PRIOR, n_init=3))
    assert checkpoint.continues(model, data)
    with counted_restarts() as restarts:
        resumed = model.fit(data, resume=checkpoint)
    assert_same_fit(resumed, KMeans(**dict(_PRIOR, n_init=3)).fit(prior_data))
    assert len(restarts) == 1


def _assert_same_checkpoint(mine, reference) -> None:
    assert mine.settings == reference.settings
    assert mine.data_key == reference.data_key
    assert mine.n_restarts == reference.n_restarts
    assert mine.rng_state == reference.rng_state
    assert np.float64(mine.inertia).tobytes() == (
        np.float64(reference.inertia).tobytes()
    )
    assert mine.centers.tobytes() == reference.centers.tobytes()
    assert np.array_equal(mine.labels, reference.labels)
    assert mine.n_iter == reference.n_iter


@st.composite
def sparse_matrices(draw) -> np.ndarray:
    """A seeded random matrix with a drawn shape and share of zeros,
    shaped like a small VSM."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(8, 200))
    dims = draw(st.integers(2, 24))
    density = draw(st.sampled_from([1.0, 0.3, 0.1]))
    return rng.random((n, dims)) * (rng.random((n, dims)) < density)


@settings(max_examples=60, deadline=None)
@given(
    data=sparse_matrices(),
    k_seed=st.integers(0, 2**16),
    params=FIT_PARAMS,
    algorithm=st.sampled_from(["lloyd", "filtering"]),
)
def test_a_fit_depends_only_on_the_values(data, k_seed, params, algorithm):
    """C-ordered, F-ordered and strided arrays of equal values give
    bit-identical labels, centres, inertia and checkpoints."""
    n_clusters = 1 + k_seed % min(8, data.shape[0])
    params = dict(params, algorithm=algorithm)
    fits = []
    for __, array in _layouts(data):
        model = KMeans(n_clusters, **params).fit(array)
        fits.append((model, model.checkpoint(array)))
    (reference, reference_checkpoint), *others = fits
    for model, checkpoint in others:
        assert_same_fit(model, reference)
        _assert_same_checkpoint(checkpoint, reference_checkpoint)


def test_checkpoint_needs_a_fit():
    with pytest.raises(NotFittedError):
        KMeans(3).checkpoint(np.zeros((4, 2)))


def test_a_resumed_model_does_not_share_arrays_with_the_checkpoint():
    data = _blobs("C")
    checkpoint = KMeans(**_PRIOR).fit(data).checkpoint(data)
    kept = checkpoint.labels.copy()
    resumed = KMeans(**_PRIOR).fit(data, resume=checkpoint)
    resumed.labels_[:] = -1
    assert np.array_equal(checkpoint.labels, kept)


# ----------------------------------------------------------------------
# The paper cohort: partial mining -> K sweep
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def paper_log():
    return paper_dataset(0)


@pytest.fixture(scope="module")
def paper_miner(paper_log):
    config = EngineConfig()
    miner = HorizontalPartialMiner(
        fractions=config.partial_fractions,
        k_values=config.partial_k_values,
        tolerance=config.partial_tolerance,
        weighting=config.weighting,
        seed=0,
    )
    result = miner.mine(paper_log)
    return miner, result


def _rebuilt_matrix(log, codes, weighting) -> np.ndarray:
    vsm = VSMBuilder(weighting, exam_codes=codes).build(log)
    return L2Normalizer().transform(vsm.matrix)


def test_the_miner_keeps_the_selected_subset_and_its_fits(
    paper_log, paper_miner
):
    miner, result = paper_miner
    rebuilt = _rebuilt_matrix(
        paper_log, result.selected_codes, miner.weighting
    )
    assert miner.selected_matrix.tobytes() == rebuilt.tobytes()
    assert sorted(miner.checkpoints) == sorted(miner.k_values)
    # The state stays on the miner: the result document carries none.
    assert set(result.to_document()) == {
        "runs",
        "selected_fraction",
        "selected_codes",
        "tolerance",
    }


def test_sweep_fits_resume_the_paper_subset_bit_for_bit(paper_miner):
    miner, __ = paper_miner
    matrix = miner.selected_matrix
    for k, checkpoint in miner.checkpoints.items():
        assert checkpoint.n_restarts == 2
        with counted_restarts() as restarts:
            resumed = KMeans(k, seed=0, n_init=3).fit(
                matrix, resume=checkpoint
            )
        assert restarts == [k]
        assert_same_fit(resumed, KMeans(k, seed=0, n_init=3).fit(matrix))


def test_cold_paper_segmentation_runs_20_restarts_with_identical_rows(
    paper_log,
):
    """Partial mining runs 3 subsets x 2 K x 2 restarts, the sweep 4 K x
    3 restarts, of which the 2 x 2 shared with partial mining are
    resumed: 20 restarts in 10 ``KMeans.fit`` calls, not 24."""
    fits = []
    fit = KMeans.fit

    def counted_fit(model, data, resume=None):
        fits.append(model.n_clusters)
        return fit(model, data, resume)

    engine = ADAHealth(seed=0)
    with counted_restarts() as restarts, mock.patch.object(
        KMeans, "fit", counted_fit
    ):
        result = engine.analyze(
            paper_log, name="paper", goals=["patient-segmentation"]
        )
    assert len(fits) == 10
    assert len(restarts) == 20
    run = result.run_for("patient-segmentation")
    config = engine.config
    expected = KMeansOptimizer(
        k_values=config.k_values, n_folds=config.n_folds, seed=0
    ).optimize(
        _rebuilt_matrix(
            paper_log, run.partial.selected_codes, config.weighting
        )
    )
    assert run.optimization.best_k == expected.best_k
    for row, want in zip(run.optimization.rows, expected.rows):
        assert row.to_document() == want.to_document()


@pytest.mark.bench_smoke
def test_paper_segmentation_goal_peak_memory(paper_log):
    """The segmentation goal's traced peak: ~32 MiB since it keeps the
    complete matrix's unit rows instead of the matrix and stops
    rebuilding the selected subset's VSM (~37 MiB before)."""
    (goal,) = [
        g for g in DEFAULT_END_GOALS if g.name == "patient-segmentation"
    ]
    context = GoalContext(goal, EngineConfig(), 0, "paper", paper_log)
    tracemalloc.start()
    try:
        run = _run_segmentation(context, paper_log, NULL_TRACER, Metrics())
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.items
    assert peak < 34 * 2**20
