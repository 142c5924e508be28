"""Each module's ``__all__`` names only what the module defines or imports."""

import importlib
import pkgutil

import pytest

import phaselab

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(phaselab.__path__, prefix="phaselab.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
