"""File formats: delimited matrices, dataset manifests, scenario files.

Matrix files are plain text with one row per line, '.' decimal separator,
whitespace or comma delimited, and optional '#' comment lines, or NumPy
``.npy`` files (numeric, 1-d or 2-d; a 1-d array is one column). Vectors are
single-column files. Manifests and scenarios are JSON documents whose keys
mirror the corresponding dataclasses; relative paths resolve against the
document's directory.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dataset import DetectionDataset, SampleCovariance, ensemble_mean
from .errors import FinprintError, SchemaError
from .simulate import (
    FingerprintModel,
    IdentitySigma,
    SeparableAr1Sigma,
    SigmaModel,
    SimulationScenario,
    SyntheticFingerprints,
    UnstructuredSigma,
    UserMatrixFingerprints,
    UserMatrixSigma,
)

__all__ = [
    "read_matrix",
    "read_vector",
    "write_matrix",
    "load_dataset",
    "load_scenario",
    "scenario_to_dict",
    "scenario_from_dict",
]


def _read_npy(path: Path) -> np.ndarray:
    try:
        a = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:  # truncated, corrupt, or object dtype
        raise SchemaError(f"{path}: not a readable .npy array ({exc})") from exc
    if not isinstance(a, np.ndarray):  # an .npz archive under a .npy name
        a.close()
        raise SchemaError(f"{path}: expected a single .npy array, got an archive")
    if a.dtype.kind not in "biuf" or a.ndim not in (1, 2):
        raise SchemaError(f"{path}: expected a 1-d or 2-d numeric array, got {a.ndim}-d {a.dtype}")
    return np.asarray(a if a.ndim == 2 else a[:, None], dtype=float)


def read_matrix(path) -> np.ndarray:
    """Read a delimited text or ``.npy`` matrix; always returns a 2-d array.

    Raises SchemaError when the file is not UTF-8 text, holds no data rows,
    or does not parse as a rectangular numeric table.
    """
    if Path(path).suffix == ".npy":
        return _read_npy(Path(path))
    try:
        lines = Path(path).read_text().splitlines()
        data_lines = [ln for ln in lines if ln.split("#", 1)[0].strip()]
        if not data_lines:
            raise SchemaError("no data rows")
        delimiter = "," if any("," in ln.split("#", 1)[0] for ln in data_lines) else None
        return np.loadtxt(lines, comments="#", delimiter=delimiter, ndmin=2)
    except (ValueError, SchemaError) as exc:  # UnicodeDecodeError is a ValueError
        raise SchemaError(f"{path}: not a numeric matrix file ({exc})") from exc


def read_vector(path) -> np.ndarray:
    """Read a single-column file as a 1-d vector."""
    mat = read_matrix(path)
    if mat.shape[1] != 1:
        raise SchemaError(f"{path}: expected a single-column vector file, got {mat.shape[1]} columns")
    return mat[:, 0]


def write_matrix(path, a, header: str | None = None) -> None:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    np.savetxt(path, a, header=header or "", comments="# ")


def _load_json(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise SchemaError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level document must be an object")
    return doc


def _resolve(base: Path, rel) -> Path:
    p = Path(rel)
    return p if p.is_absolute() else base / p


def load_dataset(manifest_path) -> DetectionDataset:
    """Assemble a DetectionDataset from a JSON manifest.

    Required keys: ``y`` plus either ``forcing_runs`` (a list of per-forcing
    run-matrix paths, ensemble sizes inferred from column counts) or
    ``x_tilde`` together with ``ensemble_sizes``. Control runs come from
    ``control_runs``, or a precomputed covariance from ``sample_cov`` with
    ``m_runs``.
    """
    manifest_path = Path(manifest_path)
    doc = _load_json(manifest_path)
    base = manifest_path.parent

    # Schema checks before touching any referenced file.
    if "y" not in doc:
        raise SchemaError(f"{manifest_path}: missing required key 'y'")
    if "forcing_runs" in doc and "x_tilde" in doc:
        raise SchemaError(f"{manifest_path}: give either 'forcing_runs' or 'x_tilde', not both")
    if "forcing_runs" not in doc and "x_tilde" not in doc:
        raise SchemaError(f"{manifest_path}: need 'forcing_runs' or 'x_tilde'")
    if "x_tilde" in doc and "ensemble_sizes" not in doc:
        raise SchemaError(f"{manifest_path}: 'x_tilde' requires 'ensemble_sizes'")
    if ("control_runs" in doc) == ("sample_cov" in doc):
        raise SchemaError(f"{manifest_path}: give exactly one of 'control_runs' and 'sample_cov'")
    if "sample_cov" in doc and "m_runs" not in doc:
        raise SchemaError(f"{manifest_path}: 'sample_cov' requires 'm_runs'")

    try:
        y = read_vector(_resolve(base, doc["y"]))
        if "forcing_runs" in doc:
            runs = [read_matrix(_resolve(base, p)) for p in doc["forcing_runs"]]
            x_tilde = np.column_stack([ensemble_mean(r) for r in runs])
            sizes = np.array([r.shape[1] for r in runs])
        else:
            x_tilde = read_matrix(_resolve(base, doc["x_tilde"]))
            sizes = np.asarray(doc["ensemble_sizes"], dtype=int)

        control = None
        sample_cov = None
        if "control_runs" in doc:
            control = read_matrix(_resolve(base, doc["control_runs"]))
        else:
            sample_cov = SampleCovariance(
                s=read_matrix(_resolve(base, doc["sample_cov"])), m=int(doc["m_runs"])
            )
    except (TypeError, ValueError, OverflowError) as exc:  # a field of the wrong type or range
        raise SchemaError(f"{manifest_path}: bad field value ({exc})") from exc

    return DetectionDataset(
        y=y,
        x_tilde=x_tilde,
        ensemble_sizes=sizes,
        control_runs=control,
        sample_cov=sample_cov,
    )


def manifest_input_paths(manifest_path) -> list[Path]:
    """Every file the manifest references, for provenance hashing."""
    manifest_path = Path(manifest_path)
    doc = _load_json(manifest_path)
    base = manifest_path.parent
    paths = [manifest_path]
    for key in ("y", "x_tilde", "control_runs", "sample_cov"):
        if key in doc:
            paths.append(_resolve(base, doc[key]))
    for p in doc.get("forcing_runs", []):
        paths.append(_resolve(base, p))
    return paths


# ---------------------------------------------------------------------------
# Scenario documents

_SIGMA_KINDS = {
    "identity": IdentitySigma,
    "separable_ar1": SeparableAr1Sigma,
    "user_matrix": UserMatrixSigma,
    "unstructured": UnstructuredSigma,
}

_FINGERPRINT_KINDS = {
    "synthetic": SyntheticFingerprints,
    "user_matrix": UserMatrixFingerprints,
}


def _model_from_dict(doc, kinds, label: str, base: Path | None):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError(f"{label} must be an object with a 'kind' key")
    kind = doc["kind"]
    if kind not in kinds:
        raise SchemaError(f"unknown {label} kind {kind!r}; expected one of {sorted(kinds)}")
    kwargs = {k: v for k, v in doc.items() if k != "kind"}
    if "variances" in kwargs and kwargs["variances"] is not None:
        kwargs["variances"] = tuple(kwargs["variances"])
    if "path" in kwargs and base is not None:
        kwargs["path"] = str(_resolve(base, kwargs["path"]))
    try:
        return kinds[kind](**kwargs)
    except TypeError as exc:
        raise SchemaError(f"bad fields for {label} kind {kind!r}: {exc}") from exc


def scenario_from_dict(doc: dict, base: Path | None = None) -> SimulationScenario:
    required = {
        "n_dim",
        "true_beta",
        "gamma",
        "ensemble_sizes",
        "m_runs",
        "sigma_model",
        "true_x",
        "replicates",
        "base_seed",
    }
    missing = required - doc.keys()
    if missing:
        raise SchemaError(f"scenario missing keys: {sorted(missing)}")
    return SimulationScenario(
        n_dim=int(doc["n_dim"]),
        true_beta=tuple(doc["true_beta"]),
        gamma=float(doc["gamma"]),
        ensemble_sizes=tuple(doc["ensemble_sizes"]),
        m_runs=int(doc["m_runs"]),
        sigma_model=_model_from_dict(doc["sigma_model"], _SIGMA_KINDS, "sigma_model", base),
        true_x=_model_from_dict(doc["true_x"], _FINGERPRINT_KINDS, "true_x", base),
        replicates=int(doc["replicates"]),
        base_seed=int(doc["base_seed"]),
        alpha=float(doc.get("alpha", 0.05)),
    )


def load_scenario(path) -> SimulationScenario:
    """Read a SimulationScenario from a JSON document mirroring its fields."""
    path = Path(path)
    doc = _load_json(path)
    try:
        return scenario_from_dict(doc, base=path.parent)
    except (TypeError, ValueError, OverflowError, FinprintError) as exc:  # a field of the wrong type or range
        raise SchemaError(f"{path}: {exc}") from exc


def _model_to_dict(model: SigmaModel | FingerprintModel) -> dict:
    out = {"kind": model.kind}
    for name, value in vars(model).items():
        if name == "kind":
            continue
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def scenario_to_dict(scn: SimulationScenario) -> dict:
    return {
        "n_dim": scn.n_dim,
        "true_beta": list(scn.true_beta),
        "gamma": scn.gamma,
        "ensemble_sizes": list(scn.ensemble_sizes),
        "m_runs": scn.m_runs,
        "sigma_model": _model_to_dict(scn.sigma_model),
        "true_x": _model_to_dict(scn.true_x),
        "replicates": scn.replicates,
        "base_seed": scn.base_seed,
        "alpha": scn.alpha,
    }
