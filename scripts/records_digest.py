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
"""

import argparse
import hashlib

import numpy as np

from finprint import SeparableAr1Sigma, SimulationScenario, SyntheticFingerprints, run_scenario


def rows_digest(report) -> str:
    """The sha256 of a report's per-replicate columns, the error texts last."""
    h = hashlib.sha256()
    for column in (report.lambda_opt, report.beta_hat, report.ci_lower, report.ci_upper, report.covered):
        h.update(np.ascontiguousarray(column).tobytes())
    h.update(repr(report.error.tolist()).encode())
    return h.hexdigest()


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


if __name__ == "__main__":
    main()
