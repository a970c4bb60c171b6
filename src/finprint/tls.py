"""Total least squares on prewhitened data.

The scaling factors minimize the Rayleigh-quotient objective
||W^{-1/2}(Y - X~ b)||^2 / (1 + b^T D b) with W = S + lambda*I and
D = diag(1/n_i). Rescaling b* = D^{1/2} b turns the denominator into
1 + ||b*||^2, so the minimizer is read off the eigenvector with smallest
eigenvalue of the (p+1) x (p+1) Gram matrix of the whitened, rescaled design
[X~ D^{-1/2}, Y]. p is small, so the Gram eigenproblem beats an N x (p+1)
SVD and the whitened products come straight from the spectral cache.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EigenFailure, NearDegenerateWarning, VerticalSolution
from .spectral import SpectralCache, _check_lambda, grid_row, weighted_gram, weights

__all__ = ["TlsSolution", "tls_grid", "tls_fit", "tls_objective"]

# |last eigenvector component| below this (relative to the vector norm) means
# the fit has no finite solution in the whitened metric.
VERTICAL_TOL = 1e-10

# Eigenvalue gaps below 1e-8 * mean diagonal of the Gram matrix mark the
# minimizer as numerically non-unique.
NEAR_DEGENERATE_TOL = 1e-8


@dataclass(frozen=True)
class TlsSolution:
    """Fitted scaling factors plus eigenstructure diagnostics.

    ``beta_star`` is the solution in the rescaled parameterization
    (beta_star = D^{1/2} beta_hat); ``min_eigenvalue`` equals the attained
    objective value and ``gap`` (second smallest minus smallest eigenvalue)
    measures how well-separated the minimizer is. From ``tls_fit`` the
    fields describe one lambda; from ``tls_grid`` each is stacked over the
    grid (``beta_hat`` is G x p).
    """

    beta_hat: np.ndarray
    beta_star: np.ndarray
    min_eigenvalue: float | np.ndarray
    gap: float | np.ndarray


def tls_grid(cache: SpectralCache, ensemble_sizes, lams) -> tuple[TlsSolution, np.ndarray, np.ndarray]:
    """Solve the prewhitened total-least-squares problem at every lambda of a grid.

    One stacked eigendecomposition of the G augmented Gram matrices. Returns
    the solution with every field stacked over the grid, a mask of vertical
    points (the minimizing eigenvector is orthogonal to the response
    direction, so no finite estimate exists; their coefficients are NaN) and
    a mask of points whose smallest eigenvalue is nearly tied.
    """
    lams = _check_lambda(lams)
    sizes = np.asarray(ensemble_sizes, dtype=float)
    if sizes.shape != (cache.proj_x.shape[1],):
        raise ValueError(
            f"ensemble_sizes must have length {cache.proj_x.shape[1]}, got {sizes.shape}"
        )
    if (sizes < 1).any():
        raise ValueError("all ensemble sizes must be >= 1")
    design = np.column_stack([cache.proj_x * np.sqrt(sizes), cache.proj_y])
    m = weighted_gram(weights(cache, lams), design)
    try:
        eigvals, eigvecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"augmented Gram eigenproblem failed: {exc}") from exc

    v = eigvecs[:, :, 0]
    gap = eigvals[:, 1] - eigvals[:, 0]
    near_tied = gap < NEAR_DEGENERATE_TOL * np.trace(m, axis1=1, axis2=2) / m.shape[-1]
    last = v[:, -1]
    vertical = np.abs(last) < VERTICAL_TOL * np.linalg.norm(v, axis=1)
    beta_star = -v[:, :-1] / np.where(vertical, np.nan, last)[:, None]
    solution = TlsSolution(
        beta_hat=np.sqrt(sizes) * beta_star,
        beta_star=beta_star,
        min_eigenvalue=np.maximum(eigvals[:, 0], 0.0),
        gap=np.maximum(gap, 0.0),
    )
    return solution, vertical, near_tied


def tls_fit(cache: SpectralCache, ensemble_sizes, lam: float) -> TlsSolution:
    """Solve the prewhitened total-least-squares problem at one lambda.

    Raises VerticalSolution when the minimizing eigenvector is orthogonal to
    the response direction (no finite estimate exists), and emits a
    NearDegenerateWarning when the smallest eigenvalue is nearly tied.
    """
    solution, vertical, near_tied = tls_grid(cache, ensemble_sizes, [float(lam)])
    if near_tied[0]:
        warnings.warn(
            f"smallest Gram eigenvalue nearly tied (gap {solution.gap[0]:.3e}); "
            "solution numerically non-unique",
            NearDegenerateWarning,
            stacklevel=2,
        )
    if vertical[0]:
        raise VerticalSolution(
            "minimizing eigenvector has zero response component; "
            "fingerprints are orthogonal to Y in the whitened metric"
        )
    return grid_row(solution)


def tls_objective(cache: SpectralCache, ensemble_sizes, lam: float, beta) -> float:
    """Rayleigh-quotient objective at an arbitrary coefficient vector."""
    lam = _check_lambda(lam)
    beta = np.asarray(beta, dtype=float)
    sizes = np.asarray(ensemble_sizes, dtype=float)
    w = 1.0 / (cache.eigvals + lam)
    resid = cache.proj_y - cache.proj_x @ beta
    return float(np.sum(w * resid**2) / (1.0 + np.sum(beta**2 / sizes)))
