"""Each module's ``__all__`` names only what the module defines or imports,
the package exports the union of the library modules' ``__all__``, every
error type is raised somewhere in the library, and the library's input
checks raise their messages."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
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


def test_the_package_exports_each_library_modules_all():
    # every module but the CLI front end is re-exported, name for name
    library = [importlib.import_module(name) for name in MODULES if name != "phaselab.cli"]
    assert len(set(phaselab.__all__)) == len(phaselab.__all__), "a name is exported twice"
    assert set(phaselab.__all__) == {attr for module in library for attr in module.__all__}
    rebound = [attr for module in library for attr in module.__all__
             if getattr(phaselab, attr) is not getattr(module, attr)]
    assert rebound == []


def test_every_error_type_is_raised():
    source = "\n".join(path.read_text() for path in Path(phaselab.__file__).parent.glob("*.py"))
    types = [cls for cls in vars(errors).values()
             if inspect.isclass(cls) and cls.__module__ == errors.__name__]
    assert types
    unraised = [cls.__name__ for cls in types if not re.search(rf"raise {cls.__name__}\(", source)]
    assert unraised == []


def edited_field(tmp_path):
    """Read back a written field whose first mode cell was edited."""
    path = tmp_path / "field.csv"
    phaselab.write_field_csv(phaselab.random_field(phaselab.make_grid(1, 2, 1), 0), path)
    header, first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, "-2.5" + first[first.index(","):], *rest]) + "\n")
    return phaselab.read_field_csv(path)


FIELD_1D = phaselab.random_field(phaselab.make_grid(1, 2, 1), 0)


@pytest.mark.parametrize("call, error, message", [
    (lambda _: phaselab.evaluate_shifted(FIELD_1D, phaselab.power_law(0.5), 1e-10,
                                         phaselab.ShiftSpec(-40.0, [1.0]), 0.1),
     errors.ParameterError, "t**beta overflows at t=1e-10 for beta=-40.0"),
    (lambda _: phaselab.synthesize(FIELD_1D, np.zeros(2)),
     errors.ParameterError, "point has shape (2,), expected (1,)"),
    (lambda _: phaselab.TimeSequence("weird"), errors.ParameterError, "unknown sequence kind 'weird'"),
    (lambda _: phaselab.TimeSequence.power(2).terms(0), errors.ParameterError,
     "k_max must be positive, got 0"),
    (edited_field, errors.GridMismatchError, "mode columns in {path} do not match the sidecar grid"),
], ids=["drift-overflow", "point-shape", "sequence-kind", "k-max", "mode-columns"])
def test_input_check_raises(call, error, message, tmp_path):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert str(info.value) == message.format(path=tmp_path / "field.csv")
