"""Tests for dataset characterisation (statistical descriptors)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PreprocessError
from repro.preprocess import (
    characterize_log,
    characterize_matrix,
    feature_profiles,
)
from repro.preprocess.characterization import _standardized_moment


def test_basic_dimensions(small_log):
    profile = characterize_log(small_log)
    assert profile.n_rows == small_log.n_patients
    assert profile.n_features == small_log.n_exam_types
    assert profile.density == pytest.approx(1.0 - profile.sparsity)


def test_sparsity_hand_computed():
    matrix = np.array([[1.0, 0.0], [0.0, 0.0]])
    profile = characterize_matrix(matrix)
    assert profile.sparsity == pytest.approx(0.75)
    assert profile.mean_row_nonzeros == pytest.approx(0.5)


def test_uniform_distribution_extremes():
    matrix = np.ones((10, 8))
    profile = characterize_matrix(matrix)
    assert profile.gini == pytest.approx(0.0, abs=1e-9)
    assert profile.normalized_entropy == pytest.approx(1.0)
    assert profile.hhi == pytest.approx(1 / 8)
    assert not profile.is_skewed
    assert not profile.is_sparse


def test_concentrated_distribution_extremes():
    matrix = np.zeros((10, 8))
    matrix[:, 0] = 100.0
    profile = characterize_matrix(matrix)
    assert profile.gini > 0.8
    assert profile.hhi == pytest.approx(1.0)
    assert profile.normalized_entropy == pytest.approx(0.0)
    assert profile.is_skewed


def test_top_share_curve_monotone(small_log):
    profile = characterize_log(small_log)
    shares = [profile.top_share[key] for key in ("10", "20", "40", "60", "80")]
    assert all(a <= b + 1e-12 for a, b in zip(shares, shares[1:]))
    assert shares[-1] <= 1.0


def test_paper_like_log_is_sparse_and_skewed(small_log):
    profile = characterize_log(small_log)
    assert profile.is_sparse
    assert profile.gini > 0.4
    assert profile.top_share["20"] > 0.55


def test_skewness_sign():
    rng = np.random.default_rng(0)
    right_skewed = rng.exponential(size=(50, 4)) + 0.01
    profile = characterize_matrix(right_skewed)
    assert profile.skewness > 0


def test_to_document_roundtrippable(small_log):
    import json

    profile = characterize_log(small_log)
    document = profile.to_document()
    assert json.loads(json.dumps(document)) == document
    assert document["n_rows"] == small_log.n_patients


def test_invalid_inputs_raise():
    with pytest.raises(PreprocessError):
        characterize_matrix(np.zeros(5))
    with pytest.raises(PreprocessError):
        characterize_matrix(np.empty((0, 0)))
    with pytest.raises(PreprocessError):
        characterize_matrix(np.array([[-1.0]]))


def test_feature_profiles_sorted_by_frequency(small_log):
    profiles = feature_profiles(small_log)
    assert len(profiles) == small_log.n_exam_types
    frequencies = [p.frequency for p in profiles]
    assert frequencies == sorted(frequencies, reverse=True)
    top = profiles[0]
    assert 0.0 <= top.patient_coverage <= 1.0
    assert top.maximum >= top.mean


def test_feature_profiles_match_matrix(handmade_log):
    profiles = feature_profiles(handmade_log)
    by_index = {p.index: p for p in profiles}
    assert by_index[2].frequency == 3
    assert by_index[0].frequency == 2
    assert by_index[2].patient_coverage == pytest.approx(1 / 3)


def direct_moment(values: np.ndarray, order: int) -> float:
    """The standardised moment as one power per element."""
    centered = values - values.mean()
    return float((centered**order).mean() / values.std() ** order)


moment_inputs = st.one_of(
    # Exam counts: few distinct integral values.
    st.lists(st.integers(1, 12), min_size=1, max_size=300),
    # Weighted or normalised values: mostly distinct.
    st.lists(
        st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=300,
    ),
    # Constant input: the standard deviation is 0.
    st.tuples(st.floats(0.0, 1e3), st.integers(1, 50)).map(
        lambda pair: [pair[0]] * pair[1]
    ),
)


@given(values=moment_inputs, order=st.sampled_from([3, 4]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_standardized_moment_is_bit_equal_to_the_direct_form(values, order):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = direct_moment(values, order)
        got = _standardized_moment(values, order)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
