"""CART split search: the optimiser's cross-validation, coded vs reference.

The optimiser scores every K by k-fold cross-validating a decision tree
on the cluster labels (paper §IV, Table I). This benchmark times one
``cross_validate`` per input with two trees:

* ``reference``: the per-feature sort-and-cumsum split scan
  (``tests/cart_reference.py``), which copies each node's rows;
* ``coded``: :class:`repro.mining.DecisionTreeClassifier`, with one
  class histogram per node over bin-coded columns and an array-walk
  ``predict``.

It does so on two inputs:

* ``segmentation``: the four matrices and label vectors that one cold
  ``ADAHealth.analyze`` of the paper-scale cohort hands to
  ``cross_validate`` (K = 4/6/8/10, 5 folds);
* ``table1``: the Table I matrix (``paper_matrix``) clustered with
  K = 8, 10 folds.

Both trees must give the same fold metrics and, fitted on the whole
input, the same tree node for node. The seconds, the speedup, the
identity verdict and the host are written to
``benchmarks/BENCH_cart.json``. Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/test_cart_split.py -s
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple
from unittest import mock

import numpy as np
import pytest

import repro.core.optimizer as optimizer_module
from repro.core import ADAHealth, KMeansOptimizer
from repro.mining import DecisionTreeClassifier, KMeans
from repro.mining.validation import cross_validate
from tests.cart_reference import ReferenceDecisionTree, tree_nodes

from conftest import BENCH_SEED, host_facts

RESULT_PATH = Path(__file__).resolve().parent / "BENCH_cart.json"

#: Timed repeats per (tree, input); the median is recorded.
ROUNDS = 3

CvInput = Tuple[np.ndarray, np.ndarray, Dict]


@pytest.fixture(scope="module")
def segmentation_inputs(paper_log) -> List[CvInput]:
    """What one cold ``analyze`` passes to the optimiser's CV."""
    captured: List[CvInput] = []

    def record(factory, data, labels, **kwargs):
        captured.append((np.array(data), np.array(labels), kwargs))
        return cross_validate(factory, data, labels, **kwargs)

    with mock.patch.object(optimizer_module, "cross_validate", record):
        ADAHealth(seed=BENCH_SEED).analyze(
            paper_log, name="cart-bench", user="bench"
        )
    return captured


@pytest.fixture(scope="module")
def table1_inputs(paper_matrix) -> List[CvInput]:
    optimizer = KMeansOptimizer(k_values=(8,), n_folds=10, seed=BENCH_SEED)
    labels = KMeans(
        8, seed=BENCH_SEED, **optimizer.kmeans_params
    ).fit(paper_matrix).labels_
    return [
        (paper_matrix, labels, {"n_splits": 10, "seed": BENCH_SEED})
    ]


def _factory(tree_class):
    defaults = KMeansOptimizer(k_values=(2,), seed=BENCH_SEED)
    return functools.partial(
        tree_class, seed=BENCH_SEED, **defaults.tree_params
    )


def _run_cv(tree_class, inputs: List[CvInput]) -> List[Dict[str, float]]:
    factory = _factory(tree_class)
    return [
        cross_validate(factory, data, labels, **kwargs)
        for data, labels, kwargs in inputs
    ]


def _time_cv(tree_class, inputs: List[CvInput]):
    """Median seconds per ``cross_validate`` call, and the metrics."""
    seconds = []
    for __ in range(ROUNDS):
        start = time.perf_counter()
        metrics = _run_cv(tree_class, inputs)
        seconds.append((time.perf_counter() - start) / len(inputs))
    return statistics.median(seconds), metrics


def _same_trees(inputs: List[CvInput]) -> bool:
    coded, reference = _factory(DecisionTreeClassifier), _factory(
        ReferenceDecisionTree
    )
    for data, labels, __ in inputs:
        mine = coded().fit(data, labels)
        theirs = reference().fit(data, labels)
        if tree_nodes(mine.root_) != tree_nodes(theirs.root_):
            return False
        if not np.array_equal(
            mine.feature_importances_, theirs.feature_importances_
        ) or not np.array_equal(
            mine.predict_proba(data), theirs.predict_proba(data)
        ):
            return False
    return True


def _record(name: str, inputs: List[CvInput]) -> Dict:
    reference_s, reference_metrics = _time_cv(ReferenceDecisionTree, inputs)
    coded_s, coded_metrics = _time_cv(DecisionTreeClassifier, inputs)
    identical = coded_metrics == reference_metrics and _same_trees(inputs)
    entry = {
        "shape": list(inputs[0][0].shape),
        "k_values": [len(np.unique(labels)) for __, labels, __ in inputs],
        "n_folds": inputs[0][2]["n_splits"],
        "reference_s_per_cv": reference_s,
        "coded_s_per_cv": coded_s,
        "speedup": reference_s / coded_s,
        "rounds": ROUNDS,
        "identical": identical,
    }
    data = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    data[name] = entry
    data["host"] = host_facts()
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print()
    print(
        f"CART CV on {name} {tuple(entry['shape'])}:"
        f" reference {reference_s:.3f} s, coded {coded_s:.3f} s"
        f" per cross_validate ({entry['speedup']:.1f}x),"
        f" identical={identical}"
    )
    return entry


def test_segmentation_cv(segmentation_inputs, benchmark):
    assert len(segmentation_inputs) == 4
    entry = _record("segmentation", segmentation_inputs)
    benchmark.pedantic(
        lambda: _run_cv(DecisionTreeClassifier, segmentation_inputs),
        rounds=1,
        iterations=1,
    )
    assert entry["identical"]


def test_table1_cv(table1_inputs, benchmark):
    entry = _record("table1", table1_inputs)
    benchmark.pedantic(
        lambda: _run_cv(DecisionTreeClassifier, table1_inputs),
        rounds=1,
        iterations=1,
    )
    assert entry["identical"]
