"""File formats: delimited matrices and dataset manifests.

Matrix files are plain text with one row per line, '.' decimal separator,
whitespace or comma delimited, and optional '#' comment lines, or NumPy
``.npy`` files (numeric, 1-d or 2-d; a 1-d array is one column). Text is
streamed: reading holds one line of it at a time (and the comment lines
before the first data row), so the peak is the returned array itself, and
parse time is that of ``np.loadtxt``'s number conversion. Vectors are
single-column files. Manifests are JSON documents; relative paths resolve
against the manifest's directory. Scenario documents are read and written by
``finprint.simulate``.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .dataset import DetectionDataset, SampleCovariance, ensemble_mean
from .errors import SchemaError

__all__ = [
    "read_matrix",
    "read_vector",
    "write_matrix",
    "read_json",
    "resolve",
    "load_dataset",
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

    Text is read one line at a time: the lines before the first data row are
    held until that row decides the delimiter (a comma if it has one before
    any '#'), then ``np.loadtxt`` takes those lines and the rest of the file
    as a stream. Raises SchemaError when the file is not UTF-8 text, holds no
    data rows, or does not parse as a rectangular numeric table.
    """
    if Path(path).suffix == ".npy":
        return _read_npy(Path(path))
    try:
        with open(path, encoding="utf-8") as f:
            lines = (part for line in f for part in line.splitlines())
            head = []
            for line in lines:
                head.append(line)
                stripped = line.lstrip()
                if stripped and not stripped.startswith("#"):
                    break
            else:
                raise SchemaError("no data rows")
            delimiter = "," if "," in line.partition("#")[0] else None
            return np.loadtxt(itertools.chain(head, lines), comments="#", delimiter=delimiter, ndmin=2)
    except (ValueError, SchemaError) as exc:  # UnicodeDecodeError is a ValueError
        raise SchemaError(f"{path}: not a numeric matrix file ({_utf8_error(path) or exc})") from exc


def _utf8_error(path) -> UnicodeDecodeError | None:
    """The error of decoding the whole file at once, if it is not UTF-8.

    A bad byte anywhere in the file outranks a parse error in an earlier
    row, and is named by its offset in the file, not in the block that a
    streamed read had decoded when it met it.
    """
    try:
        Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc
    return None


def read_vector(path) -> np.ndarray:
    """Read a single-column file as a 1-d vector."""
    mat = read_matrix(path)
    if mat.shape[1] != 1:
        raise SchemaError(f"{path}: expected a single-column vector file, got {mat.shape[1]} columns")
    return mat[:, 0]


def write_matrix(path, a, header: str | None = None) -> None:
    """Write ``a`` as a UTF-8 text matrix file, with ``header`` as a comment line."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    np.savetxt(path, a, header=header or "", comments="# ", encoding="utf-8")


def read_json(path: Path) -> dict:
    """A JSON document whose top level is an object; SchemaError otherwise."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise SchemaError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level document must be an object")
    return doc


def resolve(base: Path, rel) -> Path:
    """``rel`` against the directory ``base`` unless it is absolute."""
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
    doc = read_json(manifest_path)
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
        y = read_vector(resolve(base, doc["y"]))
        if "forcing_runs" in doc:
            means, counts = [], []
            for p in doc["forcing_runs"]:  # one run matrix held at a time
                runs = read_matrix(resolve(base, p))
                means.append(ensemble_mean(runs))
                counts.append(runs.shape[1])
                del runs
            x_tilde = np.column_stack(means)
            sizes = np.array(counts)
        else:
            x_tilde = read_matrix(resolve(base, doc["x_tilde"]))
            sizes = doc["ensemble_sizes"]

        control = None
        sample_cov = None
        if "control_runs" in doc:
            control = read_matrix(resolve(base, doc["control_runs"]))
        else:
            sample_cov = SampleCovariance(
                s=read_matrix(resolve(base, doc["sample_cov"])), m=doc["m_runs"]
            )
        return DetectionDataset(
            y=y,
            x_tilde=x_tilde,
            ensemble_sizes=sizes,
            control_runs=control,
            sample_cov=sample_cov,
        )
    except (TypeError, ValueError, OverflowError) as exc:  # a field of the wrong type or range
        raise SchemaError(f"{manifest_path}: bad field value ({exc})") from exc


def manifest_input_paths(manifest_path) -> list[Path]:
    """Every file the manifest references, for provenance hashing."""
    manifest_path = Path(manifest_path)
    doc = read_json(manifest_path)
    base = manifest_path.parent
    paths = [manifest_path]
    for key in ("y", "x_tilde", "control_runs", "sample_cov"):
        if key in doc:
            paths.append(resolve(base, doc[key]))
    for p in doc.get("forcing_runs", []):
        paths.append(resolve(base, p))
    return paths

