"""The session benchmark's ledger hooks still name real engine callables.

``sessionbench/ledger.py`` traces a session by wrapping engine
callables it names as ``module:attribute`` strings. Renaming one of
them inside ``src/`` breaks the benchmark, yet nothing in ``src/``
refers back to the ledger. These tests resolve every target with the
ledger's own resolver, without running a workload.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.cloud.executor import SweepResult

LEDGER_PATH = Path(__file__).resolve().parents[1] / "sessionbench" / "ledger.py"


def _load_ledger():
    spec = importlib.util.spec_from_file_location(
        "sessionbench_ledger", LEDGER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ledger = _load_ledger()

TARGETS = sorted(
    {target for targets in ledger.BOUNDARIES.values() for target in targets}
    | set(ledger.COUNTED.values())
)


@pytest.mark.parametrize("target", TARGETS)
def test_ledger_target_resolves(target):
    owner, attr = ledger._resolve(target)
    # The ledger patches a method in its class's own ``__dict__``, so an
    # inherited method would not be wrapped where the engine calls it.
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr
    )
    assert callable(getattr(owner, attr)), raw


def test_executor_span_reads_sweep_task_seconds():
    # The ``executor.run`` span sums ``result.task_seconds``.
    assert "task_seconds" in {
        field.name for field in dataclasses.fields(SweepResult)
    }
