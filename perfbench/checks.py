"""Output checks that do not trust the program's own code paths.

A fit report is checked against a dense reference that forms S + lambda*I,
whitens with its Cholesky factor and solves total least squares by SVD; its
chosen lambda must be the first minimum of its own lambda curve. Monte Carlo
coverage must lie inside a binomial band around 1 - alpha. At the default
seed, results must match the snapshot recorded at the seed commit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

# Relative agreement required between the reported beta_hat and the dense
# reference. The program solves a (p+1)x(p+1) Gram eigenproblem in the
# eigenbasis of S; the reference takes an SVD of the whitened design, so the
# two agree to round-off times the conditioning of the TLS problem.
REFERENCE_RTOL = 1e-6

# Tolerances against the stored snapshot: loose enough for reordered
# floating-point arithmetic, tight enough to catch a different grid choice.
SNAPSHOT_RTOL = 1e-6
SNAPSHOT_ATOL = 1e-9

# Coverage band: a two-sided binomial band with z standard errors, plus an
# allowance below nominal for the finite-sample bias of the intervals at
# N=48, m=100. Over 1500 replicates at seed 7 the two forcings covered 0.954
# and 0.945. With no allowance above nominal, the upper end stays below 1
# from about 300 replicates on (a 30 s window gives 500-800), so intervals
# that are too wide fail; at 500 replicates a true coverage of 0.955 fails
# with probability below 1e-5 per forcing.
COVERAGE_Z = 4.0
COVERAGE_SLACK = (0.015, 0.0)


def dense_tls_beta(s, x_tilde, y, ensemble_sizes, lam: float) -> np.ndarray:
    """TLS scaling factors at one lambda, from dense linear algebra only."""
    sizes = np.asarray(ensemble_sizes, dtype=float)
    w = s + lam * np.eye(s.shape[0])
    chol = np.linalg.cholesky(w)
    design = np.column_stack([x_tilde * np.sqrt(sizes), y])
    whitened = solve_triangular(chol, design, lower=True)
    _, _, vt = np.linalg.svd(whitened, full_matrices=False)
    v = vt[-1]
    return np.sqrt(sizes) * (-v[:-1] / v[-1])


def check_fit_report(doc: dict, reference: dict, ensemble_sizes, m_runs: int) -> list[str]:
    """Problems found in one ``finprint fit`` report (empty when it passes)."""
    problems = []
    curve = doc["lambda_curve"]
    values = np.array([np.inf if v is None else v for v in curve["trace_xi"]], dtype=float)
    if not np.isfinite(values).any():
        return ["lambda curve has no feasible point"]
    first_min = int(np.argmin(values))
    if curve["lambda"][first_min] != doc["lambda_opt"] or curve["chosen_index"] != first_min:
        problems.append(
            f"lambda_opt {doc['lambda_opt']!r} is not the argmin "
            f"{curve['lambda'][first_min]!r} of the reported lambda curve"
        )
    if "s" in reference:
        s = reference["s"]
    else:
        z = reference["z"]
        s = (z @ z.T) / m_runs
    beta_ref = dense_tls_beta(s, reference["x_tilde"], reference["y"], ensemble_sizes, doc["lambda_opt"])
    beta = np.asarray(doc["beta_hat"], dtype=float)
    if not np.allclose(beta, beta_ref, rtol=REFERENCE_RTOL, atol=0.0):
        problems.append(f"beta_hat {beta.tolist()} differs from dense reference {beta_ref.tolist()}")
    return problems


def coverage_band(n: int, alpha: float) -> tuple[float, float]:
    level = 1.0 - alpha
    half = COVERAGE_Z * math.sqrt(level * (1.0 - level) / n)
    return (level - COVERAGE_SLACK[0] - half, min(1.0, level + COVERAGE_SLACK[1] + half))


def check_coverage(covered_counts, n: int, alpha: float) -> list[str]:
    if n == 0:
        return ["no successful replicate to measure coverage on"]
    lo, hi = coverage_band(n, alpha)
    return [
        f"coverage of forcing {i} is {c / n:.4f}, outside [{lo:.4f}, {hi:.4f}] at n={n}"
        for i, c in enumerate(covered_counts)
        if not lo <= c / n <= hi
    ]


def compare_snapshot(digest: dict, stored: dict) -> list[str]:
    problems = []
    for key, expected in stored.items():
        got = digest.get(key)
        if got is None:
            problems.append(f"snapshot field {key!r} missing from this run")
            continue
        try:
            a, b = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
        except (TypeError, ValueError):  # a failed replicate leaves a None row
            a, b = np.zeros(0), np.zeros(1)
        if a.shape != b.shape or not np.allclose(a, b, rtol=SNAPSHOT_RTOL, atol=SNAPSHOT_ATOL):
            problems.append(f"snapshot field {key!r} differs from the seed-commit value")
    return problems
