"""The package's error surface, its top-level export list and its import structure."""

import ast
import dataclasses
import graphlib
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import finprint as fp
from finprint import errors, spectral, variance
from finprint.cli import build_parser


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
    }


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from finprint import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(fp.__all__)
    assert len(fp.__all__) == len(set(fp.__all__)) == 38
    assert all(namespace[name] is getattr(fp, name) for name in fp.__all__)


def test_errors_are_the_only_failure_channel():
    # A failure is raised or returned as data, never warned: no module
    # imports ``warnings``, and every concrete error class is raised (called)
    # somewhere in the package.
    trees = [ast.parse(f.read_text()) for f in sorted(Path(fp.__file__).parent.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    imported = {alias.name.split(".")[0] for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in nodes if isinstance(node, ast.ImportFrom) and node.module}
    assert "warnings" not in imported
    called = {node.func.id for node in nodes if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert sorted(set(errors.__all__) - {"FinprintError", "InputError"} - called) == []


def module_level_imports(tree):
    """The module's top-level imports, with those under a top-level ``if TYPE_CHECKING:``."""
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            yield from (n for n in node.body if isinstance(n, (ast.Import, ast.ImportFrom)))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def runtime_dependencies(tree, names):
    """Submodules of the package that ``tree`` imports when it is executed ("__init__" for the package)."""
    deps = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            package = "finprint" + (f".{node.module}" if node.module else "")
            modules = [package] if node.module else [f"{package}.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module]
        else:
            continue
        for parts in (m.split(".") for m in modules):
            if parts[0] == "finprint":
                deps.add(parts[1] if len(parts) > 1 and parts[1] in names else "__init__")
    return deps


def test_imports_are_module_level_and_acyclic():
    files = sorted(Path(fp.__file__).parent.glob("*.py"))
    trees = {f.stem: ast.parse(f.read_text()) for f in files}
    for name, tree in trees.items():
        allowed = set(module_level_imports(tree))
        nested = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in allowed
        ]
        assert not nested, f"finprint/{name}.py imports below module level at lines {nested}"
    graph = {name: runtime_dependencies(tree, trees) for name, tree in trees.items()}
    assert graph["simulate"] >= {"io"} and "simulate" not in graph["io"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def traced_names():
    """(module, attribute) pairs that perfbench/tracer.py wraps by name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module, attr) for module, attr, _ in tracer.TARGETS}


def declared_all(tree) -> set:
    """The names of a module's literal ``__all__``; empty without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_module_level_import_is_used():
    # A name a module imports is read in it, exported in its __all__, or
    # wrapped there by the benchmark's tracer (variance.tls_fit and
    # variance.validate_dataset); TYPE_CHECKING imports serve annotations.
    traced = traced_names()
    unused = []
    for f in sorted(Path(fp.__file__).parent.glob("*.py")):
        module = "finprint" if f.stem == "__init__" else f"finprint.{f.stem}"
        tree = ast.parse(f.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used |= declared_all(tree)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and (module, name) not in traced:
                    unused.append(f"{f.name}:{node.lineno} {name}")
    assert unused == []


def test_runtime_imports_are_stdlib_numpy_or_the_package():
    # SciPy and pytest are test-only: importing finprint costs the standard
    # library and NumPy, nothing more.
    allowed = set(sys.stdlib_module_names) | {"numpy", "finprint"}
    outside = []
    for f in sorted(Path(fp.__file__).parent.glob("*.py")):
        for node in module_level_imports(ast.parse(f.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif node.level:
                continue
            else:
                roots = [node.module.split(".")[0]]
            outside += [f"{f.name}:{node.lineno} imports {root}" for root in roots if root not in allowed]
    assert outside == []


def test_import_loads_no_scipy():
    # Nor the process pool: run_scenario loads it only when jobs > 1.
    src = str(Path(fp.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    heavy = "m.split('.')[0] in ('scipy', 'multiprocessing') or m == 'concurrent.futures.process'"
    code = f"import sys, finprint, finprint.cli; print(sorted(m for m in sys.modules if {heavy}))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["fit", "lambda-curve"])
def test_fit_flags_are_the_fit_options(command):
    # cli._fit_options reads only FitOptions fields, so a flag with no field
    # behind it would be parsed and then silently ignored.
    flags = vars(build_parser().parse_args([command, "m.json"]))
    for name in ("command", "input", "output"):
        del flags[name]
    assert set(flags) == {f.name for f in dataclasses.fields(fp.FitOptions)}


def test_no_module_imports_a_private_name_of_another():
    # A module's underscore names are its own; a private module (_symmetric)
    # may be imported, and its public names used, by any other module.
    files = sorted(Path(fp.__file__).parent.glob("*.py"))
    modules = {f.stem for f in files}
    private = []
    for f in files:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("finprint")):
                private += [
                    f"{f.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__") and alias.name not in modules
                ]
    assert private == []


def test_every_grid_output_is_read():
    # The lambda grid fills every field of these on every pass; a field no
    # module reads as ``.name`` is computed and stored for nothing.
    read = {
        node.attr
        for f in sorted(Path(fp.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(f.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    outputs = {f.name for cls in (spectral.RmtFunctionals, variance.LambdaCurve) for f in dataclasses.fields(cls)}
    assert sorted(outputs - read) == []
