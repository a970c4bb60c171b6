#!/usr/bin/env python3
"""Digest of the Monte Carlo study's per-replicate rows, one line per scenario.

Runs the acceptance tests' sigma_ST scenario (N = 48 as 8 sites x 6 steps,
p = 2, gamma = 1, base seed 20260810) at rho_ST 0.1 and 0.5 and m = 24, 30,
100 and 400, and prints rho_ST, m and the sha256 of lambda_opt, beta_hat,
the interval ends, ``covered`` and the error texts. m = 24 and 30 take the
thin-SVD route, m = 100 and 400 the dense one. A change that is meant to
keep the numbers prints the same lines as its parent. Compare runs with the
same ``--jobs``: a worker has one BLAS thread, and the m = 400 rows differ
in their last bits with more.

Two more lines, ``fit m=100`` and ``fit m=40``, give the sha256 of the
``finprint fit`` report on ``make_example_data.py`` data with that many
control runs (m = 40 < N takes the thin-SVD route). Both commands run in a
temporary directory with relative paths, so the report's provenance names
the same files on every run.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import finprint
from finprint import SeparableAr1Sigma, SimulationScenario, SyntheticFingerprints, run_scenario


def rows_digest(report) -> str:
    """The sha256 of a report's per-replicate columns, the error texts last."""
    h = hashlib.sha256()
    for column in (report.lambda_opt, report.beta_hat, report.ci_lower, report.ci_upper, report.covered):
        h.update(np.ascontiguousarray(column).tobytes())
    h.update(repr(report.error.tolist()).encode())
    return h.hexdigest()


def fit_digest(m_runs: int) -> str:
    """The sha256 of the ``finprint fit`` report on example data with ``m_runs`` control runs."""
    env = {**os.environ, "PYTHONPATH": str(Path(finprint.__file__).resolve().parents[1])}
    example_data = Path(__file__).resolve().parent / "make_example_data.py"
    with tempfile.TemporaryDirectory() as tmp:
        for args in (
            [str(example_data), ".", "--m-runs", str(m_runs)],
            ["-m", "finprint", "fit", "manifest.json", "--output", "report.json"],
        ):
            subprocess.run([sys.executable, *args], cwd=tmp, env=env, check=True, capture_output=True)
        return hashlib.sha256((Path(tmp) / "report.json").read_bytes()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=200)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    for rho in (0.1, 0.5):
        for m in (24, 30, 100, 400):
            scenario = SimulationScenario(
                n_dim=48,
                true_beta=(1.0, 1.0),
                gamma=1.0,
                ensemble_sizes=(35, 46),
                m_runs=m,
                sigma_model=SeparableAr1Sigma(8, 6, rho, rho),
                true_x=SyntheticFingerprints(seed=7),
                replicates=args.replicates,
                base_seed=20260810,
            )
            print(f"{rho} {m} {rows_digest(run_scenario(scenario, jobs=args.jobs))}")
    for m in (100, 40):
        print(f"fit m={m} {fit_digest(m)}")


if __name__ == "__main__":
    main()
