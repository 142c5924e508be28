"""Each module's ``__all__`` names only what the module defines or imports,
and every error type is raised somewhere in the library."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import phaselab
from phaselab import errors

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


def test_every_error_type_is_raised():
    source = "\n".join(path.read_text() for path in Path(phaselab.__file__).parent.glob("*.py"))
    types = [cls for cls in vars(errors).values()
             if inspect.isclass(cls) and cls.__module__ == errors.__name__]
    assert types
    unraised = [cls.__name__ for cls in types if not re.search(rf"raise {cls.__name__}\(", source)]
    assert unraised == []
