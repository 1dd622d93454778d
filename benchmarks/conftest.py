"""Shared fixtures for the reproduction benchmarks.

Every benchmark runs on the full-size synthetic dataset calibrated to
the paper's §IV statistics (6,380 patients, 159 exam types, ~95,788
records over one year). The dataset is generated once per session.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict

import numpy as np
import pytest

from repro.data import paper_dataset
from repro.preprocess import L2Normalizer, VSMBuilder

#: One fixed seed for the whole benchmark session: every table in
#: EXPERIMENTS.md was produced with this seed.
BENCH_SEED = 0

#: Environment variables that cap BLAS/OpenMP threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def host_facts() -> Dict[str, Any]:
    """The host a ``BENCH_*.json`` number was taken on: core counts,
    CPU model, Python, numpy, BLAS and its thread settings."""
    facts: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "usable_cpus": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "machine": platform.machine(),
        "cpu": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        facts["blas"] = "unknown"
    facts.update({var: os.environ.get(var) for var in THREAD_VARS})
    return facts


@pytest.fixture(scope="session")
def paper_log():
    """The full-size calibrated diabetic examination log."""
    return paper_dataset(seed=BENCH_SEED)


@pytest.fixture(scope="session")
def paper_matrix(paper_log):
    """Presence-weighted, L2-normalised VSM over the 40 % exam-type
    subset ADA-HEALTH's partial miner selects (the analogue of the
    paper's '85 % of the original row data')."""
    from repro.core import HorizontalPartialMiner

    miner = HorizontalPartialMiner(seed=BENCH_SEED)
    codes = miner.subset_codes(paper_log, 0.4)
    vsm = VSMBuilder("binary", exam_codes=codes).build(paper_log)
    return L2Normalizer().transform(vsm.matrix)
