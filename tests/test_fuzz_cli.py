"""Malformed manifests, scenario files, matrix files and fit flags, and matrices far from unit scale, fed to the CLI.

Whatever the input, ``main`` returns a documented exit code, reports a
failure as exactly one stderr line (only a success prints ``warning:``
lines) and raises nothing; a count that holds a float never succeeds, a
non-finite model number or a scenario count past int64 ends neither in
success nor in a numeric failure, and a real number given as a string
exits 2. Generated values are kept small, so no field can ask for real
work, and file names never contain a path separator, so every referenced
file resolves inside the test's directory.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from finprint.cli import main
from finprint.io import write_matrix

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

names = st.text(st.characters(blacklist_characters="/\\\x00"), max_size=8)
files = st.sampled_from(["y.txt", "x_tilde.txt", "control.txt", "missing.txt", "", "."]) | names
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(-50.0, 50.0)
    | st.sampled_from([float("nan"), float("inf")])
    | files
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(names, inner, max_size=4),
    max_leaves=8,
)

MANIFEST = {
    "y": "y.txt",
    "x_tilde": "x_tilde.txt",
    "ensemble_sizes": [35, 46],
    "control_runs": "control.txt",
}
MANIFEST_KEYS = [*MANIFEST, "forcing_runs", "sample_cov", "m_runs"]
# The integer-valued keys of a scenario document and of its models.
SCENARIO_COUNTS = ("n_dim", "m_runs", "replicates", "base_seed", "ensemble_sizes")
MODEL_COUNTS = ("seed", "spatial_dim", "temporal_dim")
# The real-valued keys of a scenario document and of its models.
SCENARIO_REALS = ("gamma", "alpha", "true_beta")
MODEL_REALS = ("rho_spatial", "rho_temporal", "variances", "condition_number", "column_correlation")

SCENARIO = {
    "n_dim": 6,
    "true_beta": [1.0, 1.0],
    "gamma": 1.0,
    "ensemble_sizes": [3, 5],
    "m_runs": 8,
    "sigma_model": {"kind": "identity"},
    "true_x": {"kind": "synthetic", "seed": 3},
    "replicates": 1,
    "base_seed": 17,
}
MODELS = [
    {"kind": "identity"},
    {"kind": "separable_ar1", "spatial_dim": 2, "temporal_dim": 3, "rho_spatial": 0.1,
     "rho_temporal": 0.1, "variances": [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]},
    {"kind": "unstructured", "seed": 2, "condition_number": 10.0},
    {"kind": "user_matrix", "path": "sigma.txt"},
    {"kind": "synthetic", "seed": 3, "column_correlation": 0.5},
    {"kind": "user_matrix", "path": "x6.txt"},
]
# A valid model of either role with some of its fields edited.
models = st.builds(
    lambda model, changes: apply(model, changes),
    st.sampled_from(MODELS),
    st.deferred(lambda: edits(sorted({k for m in MODELS for k in m}), json_values)),
)

# Parseable values of the fit flags, in range or not. At most 200 grid points
# on the 12-point dataset keep every fit quick.
fit_flags = st.fixed_dictionaries(
    {},
    optional={
        "--alpha": st.floats(),
        "--grid-size": st.integers(max_value=200),
        "--lambda-min": st.floats(),
        "--lambda-max": st.floats(),
    },
)

matrix_text = st.text(st.sampled_from("0123456789.-+e,# \t\nnaif"), max_size=80)


def edits(keys, values):
    """Deletions (None) and replacements of some keys of a document."""
    return st.dictionaries(st.sampled_from(keys) | names, st.none() | values.map(lambda v: [v]), max_size=3)


def apply(doc, changes):
    out = dict(doc)
    for key, change in changes.items():
        if change is None:
            out.pop(key, None)
        else:
            out[key] = change[0]
    return out


def is_float(value):
    return isinstance(value, float)


def is_nonfinite(value):
    return isinstance(value, float) and not math.isfinite(value)


def is_text(value):
    return isinstance(value, str)


def is_huge(value):
    return isinstance(value, int) and value > np.iinfo(np.int64).max


def holds(doc, keys, test=is_float):
    """Whether one of ``keys`` of ``doc`` holds a value that passes ``test``, alone or in a list."""
    values = [doc.get(key) for key in keys]
    return any(test(v) or isinstance(v, list) and any(test(e) for e in v) for v in values)


def write_inputs(folder):
    rng = np.random.default_rng(1)
    write_matrix(folder / "sigma.txt", np.eye(6))
    write_matrix(folder / "x6.txt", rng.standard_normal((6, 2)))
    x = rng.standard_normal((12, 2))
    write_matrix(folder / "y.txt", (x.sum(axis=1) + 0.3 * rng.standard_normal(12))[:, None])
    write_matrix(folder / "x_tilde.txt", x)
    write_matrix(folder / "control.txt", rng.standard_normal((12, 16)))


def assert_clean_exit(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.split("\n")[:-1]
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert all(ln.startswith("warning: ") for ln in lines)
    else:
        assert len(lines) == 1 and lines[0].startswith(("error: ", "numeric failure: "))
    return code


@pytest.fixture
def folder(tmp_path):
    write_inputs(tmp_path)
    return tmp_path


@FUZZ
@given(changes=edits(MANIFEST_KEYS, json_values))
@example(changes={"y": [None]})
@example(changes={"ensemble_sizes": [["a", 1]]})
@example(changes={"sample_cov": ["control.txt"], "m_runs": [3]})
@example(changes={"ensemble_sizes": [[35.7, 46.2]]})
@example(changes={"ensemble_sizes": [35.0]})
def test_manifest_fields(folder, capsys, changes):
    path = folder / "manifest.json"
    doc = apply(MANIFEST, changes)
    path.write_text(json.dumps(doc))
    code = assert_clean_exit(["fit", str(path), "--output", str(folder / "report.json")], capsys)
    # Manifest counts are read only on the route that uses them.
    if "x_tilde" in doc and holds(doc, ["ensemble_sizes"]) or "sample_cov" in doc and holds(doc, ["m_runs"]):
        assert code != 0


@FUZZ
@given(flags=fit_flags)
@example(flags={"--alpha": float("nan"), "--grid-size": 0})
@example(flags={"--lambda-min": float("-inf"), "--lambda-max": float("inf")})
@example(flags={"--lambda-min": 0.0, "--lambda-max": -1.0})
@example(flags={"--lambda-min": 5e-324})
def test_fit_flags(folder, capsys, flags):
    path = folder / "manifest.json"
    path.write_text(json.dumps(MANIFEST))
    # "--flag=value", so that argparse takes a value such as "-inf" as one.
    argv = ["fit", str(path), "--output", str(folder / "out")]
    assert_clean_exit(argv + [f"{flag}={value}" for flag, value in flags.items()], capsys)


@FUZZ
@given(raw=st.binary(max_size=64) | st.text(max_size=64).map(str.encode))
def test_manifest_bytes(folder, capsys, raw):
    path = folder / "manifest.json"
    path.write_bytes(raw)
    assert assert_clean_exit(["fit", str(path)], capsys) == 2


@FUZZ
@given(
    target=st.sampled_from(["y.txt", "x_tilde.txt", "control.txt"]),
    content=matrix_text.map(str.encode) | st.binary(max_size=48),
)
def test_matrix_files(folder, capsys, target, content):
    write_inputs(folder)
    (folder / target).write_bytes(content)
    path = folder / "manifest.json"
    path.write_text(json.dumps(MANIFEST))
    assert_clean_exit(["fit", str(path), "--grid-size", "5"], capsys)


@FUZZ
@given(powers=st.tuples(*[st.integers(-150, 150)] * 3))
@example(powers=(0, 100, -100))
def test_matrix_scales(folder, capsys, powers):
    # Each of y, x_tilde and the control runs times its own 10^k: far from
    # unit scale the Gram matrices of the fit overflow or underflow float64.
    write_inputs(folder)
    for name, k in zip(["y.txt", "x_tilde.txt", "control.txt"], powers):
        write_matrix(folder / name, 10.0**k * np.loadtxt(folder / name, ndmin=2))
    path = folder / "manifest.json"
    path.write_text(json.dumps(MANIFEST))
    assert_clean_exit(["fit", str(path), "--output", str(folder / "report.json")], capsys)


@FUZZ
@given(
    changes=edits(list(SCENARIO), json_values | models),
    raw=st.none() | st.binary(max_size=48),
)
@example(changes={"n_dim": [None]}, raw=None)
@example(changes={"m_runs": [-1]}, raw=None)
@example(changes={"true_x": [{"kind": "synthetic", "seed": -1}]}, raw=None)
@example(changes={"sigma_model": [{"kind": "unstructured", "seed": "a"}]}, raw=None)
@example(changes={"n_dim": [6.5]}, raw=None)
@example(changes={"base_seed": [17.0]}, raw=None)
@example(changes={"true_x": [{"kind": "synthetic", "seed": 3.5}]}, raw=None)
@example(changes={"sigma_model": [{**MODELS[1], "variances": [1.0, float("inf"), 1.0, 1.0, 1.0, 1.0]}]}, raw=None)
@example(changes={"sigma_model": [{**MODELS[1], "variances": [float("nan"), 1.0, 1.0, 1.0, 1.0, 1.0]}]}, raw=None)
@example(changes={"sigma_model": [{**MODELS[2], "condition_number": float("inf")}]}, raw=None)
@example(changes={"sigma_model": [{**MODELS[2], "condition_number": float("nan")}]}, raw=None)
@example(changes={"m_runs": [10**30]}, raw=None)
@example(changes={"true_x": [{**MODELS[4], "column_correlation": "0.3"}]}, raw=None)
@example(changes={"sigma_model": [{**MODELS[1], "rho_spatial": "0.3"}]}, raw=None)
@example(changes={"gamma": ["1.0"]}, raw=None)
def test_scenario_files(folder, capsys, changes, raw):
    path = folder / "scenario.json"
    doc = apply(SCENARIO, changes)
    if raw is None:
        path.write_text(json.dumps(doc))
    else:
        path.write_bytes(raw)
    code = assert_clean_exit(["simulate", str(path), "--replicates", "1"], capsys)
    models = [doc[label] for label in ("sigma_model", "true_x") if isinstance(doc.get(label), dict)]
    if raw is None and (holds(doc, SCENARIO_COUNTS) or any(holds(m, MODEL_COUNTS) for m in models)):
        assert code != 0
    # A non-finite model number or a count past int64 is an input error, found at load.
    if raw is None and (any(holds(m, list(m), is_nonfinite) for m in models) or holds(doc, SCENARIO_COUNTS, is_huge)):
        assert code not in (0, 4)
    # A real number given as a string is rejected at load, in any field.
    if raw is None and (holds(doc, SCENARIO_REALS, is_text) or any(holds(m, MODEL_REALS, is_text) for m in models)):
        assert code == 2
