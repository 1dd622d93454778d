"""Tests for the CART decision tree and the majority baseline."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MiningError, NotFittedError
from repro.mining import DecisionTreeClassifier, MajorityClassifier
from repro.mining import decision_tree
from repro.mining.decision_tree import entropy_impurity, gini_impurity
from tests.cart_reference import ReferenceDecisionTree, tree_nodes


@pytest.fixture(scope="module")
def xor_data():
    """XOR: requires depth >= 2, impossible for a depth-1 stump."""
    rng = np.random.default_rng(0)
    data = rng.uniform(-1, 1, size=(400, 2))
    labels = ((data[:, 0] > 0) ^ (data[:, 1] > 0)).astype(int)
    return data, labels


def test_perfect_fit_on_separable(blobs):
    data, truth = blobs
    tree = DecisionTreeClassifier().fit(data, truth)
    assert tree.score(data, truth) == 1.0


def test_xor_needs_depth_two(xor_data):
    data, labels = xor_data
    stump = DecisionTreeClassifier(max_depth=1).fit(data, labels)
    deep = DecisionTreeClassifier(max_depth=4).fit(data, labels)
    assert stump.score(data, labels) < 0.75
    assert deep.score(data, labels) > 0.95


def test_entropy_criterion(xor_data):
    data, labels = xor_data
    tree = DecisionTreeClassifier(criterion="entropy", max_depth=4).fit(
        data, labels
    )
    assert tree.score(data, labels) > 0.95


def test_max_depth_respected(xor_data):
    data, labels = xor_data
    for depth in (0, 1, 2, 3):
        tree = DecisionTreeClassifier(max_depth=depth).fit(data, labels)
        assert tree.depth() <= depth


def test_min_samples_leaf_respected(blobs):
    data, truth = blobs
    tree = DecisionTreeClassifier(min_samples_leaf=20).fit(data, truth)

    def leaves(node):
        if node.is_leaf:
            return [node]
        return leaves(node.left) + leaves(node.right)

    assert all(leaf.n_samples >= 20 for leaf in leaves(tree.root_))


def test_predict_proba_rows_sum_to_one(blobs):
    data, truth = blobs
    tree = DecisionTreeClassifier(max_depth=3).fit(data, truth)
    probabilities = tree.predict_proba(data)
    assert probabilities.shape == (data.shape[0], 3)
    assert np.allclose(probabilities.sum(axis=1), 1.0)


def test_string_labels_supported(blobs):
    data, truth = blobs
    names = np.array(["alpha", "beta", "gamma"])[truth]
    tree = DecisionTreeClassifier(max_depth=4).fit(data, names)
    predictions = tree.predict(data)
    assert set(predictions) <= {"alpha", "beta", "gamma"}
    assert (predictions == names).mean() == 1.0


def test_feature_importances_sum_to_one(blobs):
    data, truth = blobs
    tree = DecisionTreeClassifier(max_depth=4).fit(data, truth)
    assert tree.feature_importances_.shape == (data.shape[1],)
    assert tree.feature_importances_.sum() == pytest.approx(1.0)


def test_useless_feature_has_zero_importance():
    rng = np.random.default_rng(3)
    informative = rng.normal(size=(200, 1))
    constant = np.zeros((200, 1))
    data = np.hstack([informative, constant])
    labels = (informative[:, 0] > 0).astype(int)
    tree = DecisionTreeClassifier(max_depth=3).fit(data, labels)
    assert tree.feature_importances_[1] == 0.0


def test_single_class_single_leaf():
    data = np.random.default_rng(0).normal(size=(30, 3))
    labels = np.zeros(30, dtype=int)
    tree = DecisionTreeClassifier().fit(data, labels)
    assert tree.n_leaves() == 1
    assert (tree.predict(data) == 0).all()


def test_export_text_mentions_features(blobs):
    data, truth = blobs
    tree = DecisionTreeClassifier(max_depth=2).fit(data, truth)
    text = tree.export_text(feature_names=[f"f{i}" for i in range(5)])
    assert "if f" in text
    assert "predict" in text


def test_min_impurity_decrease_prunes(xor_data):
    data, labels = xor_data
    tree = DecisionTreeClassifier(
        max_depth=8, min_impurity_decrease=0.49
    ).fit(data, labels)
    # XOR's first split yields ~0 impurity decrease -> no split at all.
    assert tree.n_leaves() == 1


def test_max_features_subsampling(blobs):
    data, truth = blobs
    tree = DecisionTreeClassifier(max_features=2, seed=1).fit(data, truth)
    assert tree.score(data, truth) > 0.9


def test_reduced_error_pruning_shrinks_tree():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(300, 4))
    labels = (data[:, 0] > 0).astype(int)
    noisy = labels.copy()
    flip = rng.random(300) < 0.2
    noisy[flip] = 1 - noisy[flip]
    tree = DecisionTreeClassifier().fit(data[:200], noisy[:200])
    before = tree.n_leaves()
    tree.prune(data[200:], labels[200:])
    assert tree.n_leaves() <= before
    assert tree.score(data[200:], labels[200:]) > 0.7


def test_parameter_validation():
    with pytest.raises(MiningError):
        DecisionTreeClassifier(criterion="chi2")
    with pytest.raises(MiningError):
        DecisionTreeClassifier(max_depth=-1)
    with pytest.raises(MiningError):
        DecisionTreeClassifier(min_samples_split=1)
    with pytest.raises(MiningError):
        DecisionTreeClassifier(min_samples_leaf=0)


def test_unfitted_raises(blobs):
    data, __ = blobs
    tree = DecisionTreeClassifier()
    with pytest.raises(NotFittedError):
        tree.predict(data)
    with pytest.raises(NotFittedError):
        tree.depth()
    with pytest.raises(NotFittedError):
        tree.export_text()


def test_feature_count_mismatch_raises(blobs):
    data, truth = blobs
    tree = DecisionTreeClassifier(max_depth=2).fit(data, truth)
    with pytest.raises(MiningError):
        tree.predict(data[:, :3])


def test_impurity_functions():
    pure = np.array([10.0, 0.0])
    mixed = np.array([5.0, 5.0])
    assert gini_impurity(pure) == 0.0
    assert gini_impurity(mixed) == pytest.approx(0.5)
    assert entropy_impurity(pure) == 0.0
    assert entropy_impurity(mixed) == pytest.approx(np.log(2))
    assert gini_impurity(np.array([0.0, 0.0])) == 0.0


def test_majority_classifier(blobs):
    data, __ = blobs
    labels = np.array([0] * 100 + [1] * 80)
    model = MajorityClassifier().fit(data[:180], labels)
    assert (model.predict(data[:10]) == 0).all()
    with pytest.raises(NotFittedError):
        MajorityClassifier().predict(data)
    with pytest.raises(MiningError):
        MajorityClassifier().fit(data[:0], labels[:0])


# ----------------------------------------------------------------------
# Coded split search == the per-feature sort-and-cumsum reference
# ----------------------------------------------------------------------
def assert_same_tree(tree, reference):
    assert tree_nodes(tree.root_) == tree_nodes(reference.root_)


FEW_VALUES = [-2.5, -1.0, -0.0, 0.0, 0.5, 3.0]


@st.composite
def cart_cases(draw):
    n = draw(st.integers(2, 70))
    n_features = draw(st.integers(1, 5))
    columns = []
    for __ in range(n_features):
        kind = draw(st.sampled_from(["few", "continuous", "signed-zero"]))
        if kind == "few":
            element = st.sampled_from(FEW_VALUES)
        elif kind == "continuous":
            element = st.floats(
                -1e6, 1e6, allow_nan=False, allow_infinity=False
            )
        else:
            element = st.sampled_from([-0.0, 0.0, 1.0])
        columns.append(draw(st.lists(element, min_size=n, max_size=n)))
    data = np.array(columns, dtype=np.float64).T
    n_classes = draw(st.integers(1, 12))
    labels = np.array(
        draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    )
    holdout = np.array(
        draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    )
    if draw(st.booleans()):
        names = np.array([f"class-{i:02d}" for i in range(12)])
        labels, holdout = names[labels], names[holdout]
    # Prune only against labels the tree has seen.
    holdout = np.where(np.isin(holdout, labels), holdout, labels)
    params = dict(
        criterion=draw(st.sampled_from(["gini", "entropy"])),
        max_depth=draw(st.sampled_from([None, 1, 3, 6])),
        min_samples_split=draw(st.integers(2, 6)),
        min_samples_leaf=draw(st.integers(1, 5)),
        min_impurity_decrease=draw(st.sampled_from([0.0, 0.005, 0.05])),
        max_features=draw(
            st.one_of(st.none(), st.integers(1, n_features))
        ),
        seed=draw(st.integers(0, 3)),
    )
    return data, labels, holdout, params


@given(case=cart_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_coded_split_matches_reference_tree(case):
    data, labels, holdout, params = case
    tree = DecisionTreeClassifier(**params).fit(data, labels)
    reference = ReferenceDecisionTree(**params).fit(data, labels)
    assert_same_tree(tree, reference)
    assert np.array_equal(tree.classes_, reference.classes_)
    assert np.array_equal(
        tree.feature_importances_, reference.feature_importances_
    )
    shifted = data[::-1] * 0.5
    for probe in (data, shifted):
        assert np.array_equal(
            tree.predict_proba(probe), reference.predict_proba(probe)
        )
        assert np.array_equal(tree.predict(probe), reference.predict(probe))
    tree.prune(shifted, holdout)
    reference.prune(shifted, holdout)
    assert_same_tree(tree, reference)
    assert np.array_equal(
        tree.predict_proba(data), reference.predict_proba(data)
    )


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("max_features", [None, 3])
def test_coded_split_matches_reference_on_a_deep_continuous_tree(
    criterion, max_features
):
    """Hundreds of rows of distinct values: deep nodes re-code their
    rows, and 12 classes make entropy's row sums pairwise."""
    rng = np.random.default_rng(7)
    data = rng.normal(size=(600, 6))
    data[:, 5] = np.round(data[:, 5], 1)
    labels = (data[:, :4] @ rng.normal(size=(4, 12))).argmax(axis=1)
    params = dict(
        criterion=criterion, max_features=max_features, seed=2,
        min_samples_leaf=2,
    )
    with mock.patch.object(
        decision_tree, "_compact", wraps=decision_tree._compact
    ) as compact:
        tree = DecisionTreeClassifier(**params).fit(data, labels)
    reference = ReferenceDecisionTree(**params).fit(data, labels)
    assert compact.called
    assert tree.depth() > 6
    assert_same_tree(tree, reference)
    assert np.array_equal(
        tree.feature_importances_, reference.feature_importances_
    )
    assert np.array_equal(
        tree.predict_proba(data), reference.predict_proba(data)
    )


def test_predict_proba_walks_a_pruned_tree_afresh(xor_data):
    """The flattened walk is rebuilt per call: pruning between two
    predictions changes the second."""
    data, labels = xor_data
    tree = DecisionTreeClassifier(max_depth=4).fit(data, labels)
    before = tree.predict_proba(data)
    tree.prune(data, np.full_like(labels, tree.root_.prediction))
    assert tree.n_leaves() == 1
    after = tree.predict_proba(data)
    assert not np.array_equal(before, after)
    assert np.all(after == after[0])
