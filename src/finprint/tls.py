"""Total least squares on prewhitened data.

The scaling factors minimize the Rayleigh-quotient objective
||W^{-1/2}(Y - X~ b)||^2 / (1 + b^T D b) with W = S + lambda*I and
D = diag(1/n_i). Rescaling b* = D^{1/2} b turns the denominator into
1 + ||b*||^2, so the minimizer is read off the eigenvector with smallest
eigenvalue of the (p+1) x (p+1) Gram matrix of the whitened, rescaled design
[X~ D^{-1/2}, Y]. p is small, so the Gram eigenproblem beats an N x (p+1)
SVD; that matrix is ``rmt_grid``'s data Gram, scaled by (sqrt(n_i), 1). For
p = 2 the smallest eigenpair is solved in closed form over the whole grid
(``_symmetric.smallest_eigenpair``); nearly tied points, and every other p,
keep LAPACK's eigh.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._symmetric import smallest_eigenpair
from .errors import EigenFailure, NearDegenerateWarning, OutOfDomain, VerticalSolution
from .spectral import SpectralCache, rmt_grid

__all__ = ["TlsSolution", "tls_grid", "tls_fit"]

# |last eigenvector component| below this (relative to the vector norm) means
# the fit has no finite solution in the whitened metric.
VERTICAL_TOL = 1e-10

# Eigenvalue gaps below 1e-8 * mean diagonal of the Gram matrix mark the
# minimizer as numerically non-unique.
NEAR_DEGENERATE_TOL = 1e-8
# Points whose gap is below this many NEAR_DEGENERATE_TOL (1e-3 of the mean
# diagonal) take LAPACK's eigh instead of the closed form, so near ties are
# always LAPACK's call. The closed-form eigenvector carries ~1e-16/gap of
# error, up to ~5x LAPACK's; above 1e-3 that is ~1e-12 or less. Paper-scale
# replicates have relative gaps of 0.2 and more.
LAPACK_GAP_FACTOR = 1e5


@dataclass(frozen=True)
class TlsSolution:
    """Fitted scaling factors plus eigenstructure diagnostics.

    ``beta_star`` is the solution in the rescaled parameterization
    (beta_star = D^{1/2} beta_hat); ``min_eigenvalue`` equals the attained
    objective value and ``gap`` (second smallest minus smallest eigenvalue)
    measures how well-separated the minimizer is. From ``tls_fit`` the
    fields describe one lambda; from ``tls_grid`` each is stacked over the
    grid (``beta_hat`` is (..., G, p)).
    """

    beta_hat: np.ndarray
    beta_star: np.ndarray
    min_eigenvalue: float | np.ndarray
    gap: float | np.ndarray


def tls_grid(gram, ensemble_sizes) -> tuple[TlsSolution, np.ndarray, np.ndarray]:
    """Solve the prewhitened total-least-squares problem at every lambda of a grid.

    ``gram`` is ``rmt_grid``'s (..., G, p+1, p+1) stack of data Gram
    matrices. The smallest eigenpair of every augmented Gram matrix comes from
    ``_symmetric.smallest_eigenpair``: in closed form for p = 2, from
    LAPACK's eigh at points whose two smallest eigenvalues are within
    LAPACK_GAP_FACTOR * NEAR_DEGENERATE_TOL of each other (relative to the
    mean diagonal) and for every other p. Returns
    the solution with every field stacked over the grid, a mask of vertical
    points (the minimizing eigenvector is orthogonal to the response
    direction, so no finite estimate exists; their coefficients are NaN) and
    a mask of points whose smallest eigenvalue is nearly tied.
    """
    sizes = np.asarray(ensemble_sizes, dtype=float)
    p = gram.shape[-1] - 1
    if sizes.shape != (p,):
        raise OutOfDomain(f"ensemble_sizes must have length {p}, got {sizes.shape}")
    if (sizes < 1).any():
        raise OutOfDomain("all ensemble sizes must be >= 1")
    scale = np.append(np.sqrt(sizes), 1.0)
    m = gram * np.outer(scale, scale)
    try:
        eigvals, v = smallest_eigenpair(m, LAPACK_GAP_FACTOR * NEAR_DEGENERATE_TOL)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"augmented Gram eigenproblem failed: {exc}") from exc

    gap = eigvals[..., 1] - eigvals[..., 0]
    near_tied = gap < NEAR_DEGENERATE_TOL * np.trace(m, axis1=-2, axis2=-1) / m.shape[-1]
    last = v[..., -1]
    vertical = np.abs(last) < VERTICAL_TOL * np.linalg.norm(v, axis=-1)
    beta_star = -v[..., :-1] / np.where(vertical, np.nan, last)[..., None]
    solution = TlsSolution(
        beta_hat=np.sqrt(sizes) * beta_star,
        beta_star=beta_star,
        min_eigenvalue=np.maximum(eigvals[..., 0], 0.0),
        gap=np.maximum(gap, 0.0),
    )
    return solution, vertical, near_tied


def tls_fit(cache: SpectralCache, ensemble_sizes, lam: float) -> TlsSolution:
    """Solve the prewhitened total-least-squares problem at one lambda.

    Raises VerticalSolution when the minimizing eigenvector is orthogonal to
    the response direction (no finite estimate exists), and emits a
    NearDegenerateWarning when the smallest eigenvalue is nearly tied.
    ``tls_grid`` on a one-point ``rmt_grid``.
    """
    solution, vertical, near_tied = tls_grid(rmt_grid(cache, [float(lam)]).gram, ensemble_sizes)
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
    return TlsSolution(
        beta_hat=solution.beta_hat[0],
        beta_star=solution.beta_star[0],
        min_eigenvalue=float(solution.min_eigenvalue[0]),
        gap=float(solution.gap[0]),
    )
