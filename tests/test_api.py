"""The package's error surface and its top-level export list."""

import importlib
import inspect
import pkgutil

import finprint as fp
from finprint import errors


def submodules():
    names = [info.name for info in pkgutil.iter_modules(fp.__path__)]
    return [importlib.import_module(f"finprint.{name}") for name in names]


def test_every_error_and_warning_lives_in_errors():
    defined = {
        (name, obj.__module__)
        for module in submodules()
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and issubclass(obj, (fp.FinprintError, Warning))
        and obj.__module__.startswith("finprint")
    }
    assert defined
    assert {module for _, module in defined} == {"finprint.errors"}
    assert {name for name, _ in defined} <= set(errors.__all__)


def test_errors_defines_exactly_the_documented_classes():
    classes = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == "finprint.errors"
    }
    assert classes == set(errors.__all__) == {
        "FinprintError",
        "InputError",
        "SchemaError",
        "NonFinite",
        "DimensionMismatch",
        "OutOfDomain",
        "NotPSD",
        "EigenFailure",
        "NoFeasiblePoint",
        "VerticalSolution",
        "NearDegenerateWarning",
    }


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from finprint import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(fp.__all__)
    assert len(fp.__all__) == len(set(fp.__all__)) == 40
    assert all(namespace[name] is getattr(fp, name) for name in fp.__all__)
