"""Tests for dataset characterisation (statistical descriptors)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import ExamLog, paper_dataset
from repro.data.taxonomy import build_default_taxonomy
from repro.exceptions import PreprocessError
from repro.preprocess import (
    DatasetProfile,
    characterize_log,
    characterize_matrix,
    feature_profiles,
)
from repro.preprocess.characterization import _standardized_moments


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


@given(values=moment_inputs, orders=st.sampled_from([(3,), (4,), (3, 4)]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_standardized_moment_is_bit_equal_to_the_direct_form(values, orders):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = [direct_moment(values, order) for order in orders]
        got = _standardized_moments(values, orders)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


# ----------------------------------------------------------------------
# whole profiles: the moments against the direct form, document round trip
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def paper_log():
    return paper_dataset(0)


@st.composite
def exam_logs(draw):
    """A random log: up to 200 records over 30 patients, 8-12 types."""
    n_types = draw(st.integers(8, 12))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 30),
                st.integers(0, 50),
                st.integers(0, n_types - 1),
            ),
            min_size=1,
            max_size=200,
        )
    )
    return ExamLog.from_rows(
        np.array(rows, dtype=np.int64),
        taxonomy=build_default_taxonomy(n_types),
    )


def assert_moments_match_the_direct_form(log):
    """The profile document equals one whose skewness and kurtosis are
    taken with one power per nonzero count, bit for bit."""
    document = characterize_log(log).to_document()
    matrix, __ = log.count_matrix()
    values = matrix[matrix > 0]
    expected = dict(document)
    if values.size >= 2 and values.std() > 0:
        expected["skewness"] = direct_moment(values, 3)
        expected["kurtosis"] = direct_moment(values, 4) - 3.0
    else:
        expected["skewness"] = expected["kurtosis"] = 0.0
    assert json.dumps(document) == json.dumps(expected)


def test_profile_moments_match_the_direct_form_on_the_cohorts(
    paper_log, small_log
):
    for log in (paper_log, small_log):
        assert_moments_match_the_direct_form(log)


@given(log=exam_logs())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_profile_moments_match_the_direct_form_on_random_logs(log):
    assert_moments_match_the_direct_form(log)


def test_from_document_inverts_to_document_on_the_cohorts(
    paper_log, small_log
):
    for log in (paper_log, small_log):
        profile = characterize_log(log)
        document = profile.to_document()
        assert DatasetProfile.from_document(document) == profile
        # and after the JSON round trip a stored entry goes through
        stored = json.loads(json.dumps(document))
        assert DatasetProfile.from_document(stored) == profile


@given(log=exam_logs())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_from_document_inverts_to_document_on_random_logs(log):
    profile = characterize_log(log)
    restored = DatasetProfile.from_document(
        json.loads(json.dumps(profile.to_document()))
    )
    assert restored == profile
    assert restored.to_document() == profile.to_document()


def test_from_document_copies_the_top_share_curve(small_log):
    document = characterize_log(small_log).to_document()
    profile = DatasetProfile.from_document(document)
    document["top_share"]["10"] = -1.0
    assert profile.top_share["10"] != -1.0


#: Marks a field the damaged document leaves out.
_DROP = object()


def _damaged(document, field, value):
    damaged = dict(document)
    if value is _DROP:
        del damaged[field]
    else:
        damaged[field] = value
    return damaged


@pytest.mark.parametrize(
    "field, value",
    [
        ("gini", _DROP),
        ("top_share", _DROP),
        ("extra", 1.0),
        ("n_rows", 300.0),
        ("n_rows", True),
        ("n_features", "40"),
        ("sparsity", 1),
        ("skewness", None),
        ("hhi", [0.1]),
        ("top_share", [0.5]),
        ("top_share", {"10": 1}),
        ("top_share", {10: 0.5}),
    ],
)
def test_from_document_rejects_a_missing_or_mistyped_field(
    small_log, field, value
):
    document = characterize_log(small_log).to_document()
    with pytest.raises(PreprocessError):
        DatasetProfile.from_document(_damaged(document, field, value))


@pytest.mark.parametrize("document", [None, [], "profile", 3])
def test_from_document_rejects_a_non_dict(document):
    with pytest.raises(PreprocessError):
        DatasetProfile.from_document(document)
