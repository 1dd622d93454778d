"""K-means Lloyd fits of the K-sweep: prepared data vs per-call passes.

One cold ``ADAHealth.analyze`` of the paper-scale cohort runs ten
``KMeans.fit`` calls (the K-sweep of paper §IV, Table I, over the
partial miner's matrices). This benchmark captures their data and
parameters and times each fit with two implementations:

* ``reference``: every distance pass recomputes the data's row norms
  and the cluster sums are one strided ``bincount`` per column
  (``tests/kmeans_reference.py``);
* ``prepared``: :class:`repro.mining.KMeans`, which prepares the row
  norms, the nonzero layout and the gather positions once per fit and
  sums clusters with one ``bincount`` over the nonzeros.

Both must give the same labels, centres, ``inertia_`` and ``n_iter_``,
bit for bit. In the session, the sweep's fits at the K values partial
mining shares resume its checkpoints; here every fit is replayed in
full, so both implementations run the same restarts. The median seconds
per fit, the speedup, the identity verdict and the host are written to
``benchmarks/BENCH_kmeans.json``.
Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/test_kmeans_lloyd.py -s
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple
from unittest import mock

import numpy as np
import pytest

from repro.core import ADAHealth
from repro.mining import KMeans
from tests.kmeans_reference import ReferenceKMeans, assert_same_fit

from conftest import BENCH_SEED, host_facts

RESULT_PATH = Path(__file__).resolve().parent / "BENCH_kmeans.json"

#: Timed repeats per (implementation, fit); the median is recorded.
ROUNDS = 5

Fit = Tuple[np.ndarray, Dict]


@pytest.fixture(scope="module")
def session_fits(paper_log) -> List[Fit]:
    """What one cold ``analyze`` passes to ``KMeans.fit``."""
    captured: List[Fit] = []
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
        ADAHealth(seed=BENCH_SEED).analyze(
            paper_log, name="kmeans-bench", user="bench"
        )
    return captured


def _median_fit(model_class, data: np.ndarray, params: Dict):
    seconds = []
    for __ in range(ROUNDS):
        start = time.perf_counter()
        model = model_class(**params).fit(data)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), model


def _identical(mine: KMeans, reference: KMeans) -> bool:
    try:
        assert_same_fit(mine, reference)
    except AssertionError:
        return False
    return True


def test_session_fits(session_fits, benchmark):
    assert len(session_fits) == 10
    entries = []
    for data, params in session_fits:
        reference_s, reference = _median_fit(ReferenceKMeans, data, params)
        prepared_s, mine = _median_fit(KMeans, data, params)
        entries.append(
            {
                "shape": list(data.shape),
                "nonzeros": int(np.count_nonzero(data)),
                "k": params["n_clusters"],
                "n_init": params["n_init"],
                "n_iter": int(mine.n_iter_),
                "reference_s": reference_s,
                "prepared_s": prepared_s,
                "speedup": reference_s / prepared_s,
                "identical": _identical(mine, reference),
            }
        )
    reference_total = sum(entry["reference_s"] for entry in entries)
    prepared_total = sum(entry["prepared_s"] for entry in entries)
    result = {
        "fits": entries,
        "total": {
            "reference_s": reference_total,
            "prepared_s": prepared_total,
            "speedup": reference_total / prepared_total,
        },
        "rounds": ROUNDS,
        "host": host_facts(),
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print()
    for entry in entries:
        print(
            f"KMeans k={entry['k']} on {tuple(entry['shape'])}:"
            f" reference {entry['reference_s'] * 1e3:.1f} ms,"
            f" prepared {entry['prepared_s'] * 1e3:.1f} ms"
            f" ({entry['speedup']:.2f}x), identical={entry['identical']}"
        )
    print(
        f"10 session fits: reference {reference_total:.3f} s,"
        f" prepared {prepared_total:.3f} s"
        f" ({result['total']['speedup']:.2f}x)"
    )
    data, params = session_fits[1]
    benchmark.pedantic(
        lambda: KMeans(**params).fit(data), rounds=1, iterations=1
    )
    assert all(entry["identical"] for entry in entries)
