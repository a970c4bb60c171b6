#!/usr/bin/env python3
"""Digest of the Monte Carlo study's per-replicate rows, one line per scenario.

Runs the acceptance tests' sigma_ST scenario (N = 48 as 8 sites x 6 steps,
p = 2, gamma = 1, base seed 20260810) at rho_ST 0.1 and 0.5 and m = 24, 30,
100 and 400, and prints rho_ST, m and the sha256 of lambda_opt, beta_hat,
the interval ends, ``covered`` and the error texts. m = 24 and 30 take the
low-rank (QR) route, m = 100 and 400 the dense one. A change that is meant
to keep the numbers prints the same lines as its parent, at any ``--jobs``
and BLAS thread count.

Two more lines, ``fit m=100`` and ``fit m=40``, give the sha256 of the
``finprint fit`` report on ``make_example_data.py`` data with that many
control runs (m = 40 < N takes the low-rank route). Both commands run in a
temporary directory with relative paths, so the report's provenance names
the same files on every run.

``--save DIR`` writes each line's rows to ``DIR/<line>.npz``, the printed
lines to ``DIR/lines.txt`` and what the bits depend on besides the code to
``DIR/environment.json`` (numpy's version, its BLAS and the CPU: OpenBLAS
and numpy pick their kernels per CPU). ``--against DIR`` reads the rows
back and appends, to each line, the largest relative difference of
lambda_opt, beta_hat and the interval ends from the saved rows, and for the
Monte Carlo lines the number of replicates whose ``covered`` flipped. A
change that moves the numbers then reports how far. ``tests/data/records_digest``
holds a ``--replicates 30 --save`` run that the test suite compares against.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import finprint
from finprint import SeparableAr1Sigma, SimulationScenario, SyntheticFingerprints, run_scenario

COLUMNS = ("lambda_opt", "beta_hat", "ci_lower", "ci_upper", "covered")


def scenario_line(rho: float, m_runs: int, replicates: int, jobs: int) -> tuple[str, dict]:
    """The sha256 of one scenario's per-replicate columns, the error texts last, and the columns."""
    scenario = SimulationScenario(
        n_dim=48,
        true_beta=(1.0, 1.0),
        gamma=1.0,
        ensemble_sizes=(35, 46),
        m_runs=m_runs,
        sigma_model=SeparableAr1Sigma(8, 6, rho, rho),
        true_x=SyntheticFingerprints(seed=7),
        replicates=replicates,
        base_seed=20260810,
    )
    report = run_scenario(scenario, jobs=jobs)
    rows = {name: getattr(report, name) for name in COLUMNS}
    h = hashlib.sha256()
    for column in rows.values():
        h.update(np.ascontiguousarray(column).tobytes())
    h.update(repr(report.error.tolist()).encode())
    return h.hexdigest(), rows


def fit_line(m_runs: int) -> tuple[str, dict]:
    """The sha256 of the ``finprint fit`` report on example data with ``m_runs`` control runs, and its estimates."""
    env = {**os.environ, "PYTHONPATH": str(Path(finprint.__file__).resolve().parents[1])}
    example_data = Path(__file__).resolve().parent / "make_example_data.py"
    with tempfile.TemporaryDirectory() as tmp:
        for args in (
            [str(example_data), ".", "--m-runs", str(m_runs)],
            ["-m", "finprint", "fit", "manifest.json", "--output", "report.json"],
        ):
            subprocess.run([sys.executable, *args], cwd=tmp, env=env, check=True, capture_output=True)
        report = (Path(tmp) / "report.json").read_bytes()
    doc = json.loads(report)
    rows = {
        "lambda_opt": np.array([doc["lambda_opt"]]),
        "beta_hat": np.array(doc["beta_hat"]),
        "ci_lower": np.array([f["ci_lower"] for f in doc["forcings"]]),
        "ci_upper": np.array([f["ci_upper"] for f in doc["forcings"]]),
    }
    return hashlib.sha256(report).hexdigest(), rows


def max_relative_difference(new, old) -> float:
    """Largest |new - old| / |old| over the entries; equal entries (NaN with NaN) count 0, a new NaN inf."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    if new.shape != old.shape:
        return np.inf
    equal = (new == old) | (np.isnan(new) & np.isnan(old))
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.where(equal, 0.0, np.abs(new - old) / np.abs(old))
    return float(np.nan_to_num(relative, nan=np.inf).max(initial=0.0))


def drift(rows: dict, saved) -> str:
    """How far ``rows`` are from the saved rows of the same line."""
    ends = max(max_relative_difference(rows[name], saved[name]) for name in ("ci_lower", "ci_upper"))
    text = (
        f"lambda_opt {max_relative_difference(rows['lambda_opt'], saved['lambda_opt']):.1e} "
        f"beta_hat {max_relative_difference(rows['beta_hat'], saved['beta_hat']):.1e} ci {ends:.1e}"
    )
    if "covered" in rows:
        text += f" covered_flips {int(np.count_nonzero(rows['covered'] != saved['covered']))}"
    return text


def environment() -> dict:
    """numpy's version, its BLAS's name and version, the CPU model and numpy's SIMD extensions on it."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        models = [line for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")]
        cpu = models[0].split(":", 1)[1].strip() if models else cpu
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "cpu": cpu,
        "simd": config["SIMD Extensions"]["found"],
    }


def lines(replicates: int, jobs: int):
    """(label, sha256, rows) of each line, in the order printed."""
    for rho in (0.1, 0.5):
        for m in (24, 30, 100, 400):
            yield f"{rho} {m}", *scenario_line(rho, m, replicates, jobs)
    for m in (100, 40):
        yield f"fit m={m}", *fit_line(m)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=200)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--save", type=Path, metavar="DIR", help="write each line's rows to DIR/<line>.npz")
    parser.add_argument("--against", type=Path, metavar="DIR", help="append each line's drift from DIR/<line>.npz")
    args = parser.parse_args()
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)

    printed = []
    for label, digest, rows in lines(args.replicates, args.jobs):
        name = label.replace(" ", "_").replace("=", "") + ".npz"
        if args.save is not None:
            np.savez(args.save / name, **rows)
        text = f"{label} {digest}"
        printed.append(text)
        if args.against is not None:
            with np.load(args.against / name) as saved:
                text += " " + drift(rows, saved)
        print(text, flush=True)
    if args.save is not None:
        (args.save / "lines.txt").write_text("".join(line + "\n" for line in printed))
        (args.save / "environment.json").write_text(json.dumps(environment(), indent=2) + "\n")


if __name__ == "__main__":
    main()
