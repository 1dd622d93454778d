"""Every name a ``repro`` module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import repro

#: Modules not imported here: ``repro.__main__`` runs the CLI on import.
SKIPPED = {"repro.__main__"}

MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name not in SKIPPED
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [
        exported
        for exported in getattr(module, "__all__", ())
        if not hasattr(module, exported)
    ]
    assert missing == [], f"{name}.__all__ lists undefined names: {missing}"
