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

import numpy as np

from ._symmetric import plane_sum, smallest_eigenpair, trace
from .errors import EigenFailure, OutOfDomain
from .spectral import SpectralCache, rmt_grid

__all__ = ["tls_grid", "tls_fit"]

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


def tls_grid(gram, ensemble_sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the prewhitened total-least-squares problem at every lambda of a grid.

    ``gram`` is ``rmt_grid``'s (..., G, p+1, p+1) stack of data Gram
    matrices. The smallest eigenpair of every augmented Gram matrix comes from
    ``_symmetric.smallest_eigenpair``: in closed form for p = 2, from
    LAPACK's eigh at points whose two smallest eigenvalues are within
    LAPACK_GAP_FACTOR * NEAR_DEGENERATE_TOL of each other (relative to the
    mean diagonal) and for every other p. Returns the (..., G, p) scaling
    factors, a mask of vertical points (the minimizing eigenvector is
    orthogonal to the response direction, so no finite estimate exists;
    their coefficients are NaN), a mask of points whose smallest
    eigenvalue is nearly tied (the minimizer is numerically non-unique) and
    a mask of points whose augmented Gram matrix overflows float64: an
    identity stands in for it, and the point has NaN coefficients and is
    neither vertical nor nearly tied.
    """
    sizes = np.asarray(ensemble_sizes, dtype=float)
    p = gram.shape[-1] - 1
    if sizes.shape != (p,):
        raise OutOfDomain(f"ensemble_sizes must have length {p}, got {sizes.shape}")
    if (sizes < 1).any():
        raise OutOfDomain("all ensemble sizes must be >= 1")
    scale = np.append(np.sqrt(sizes), 1.0)
    with np.errstate(over="ignore"):
        m = gram * np.outer(scale, scale)
        mean_diag = trace(m) / (p + 1)
    nonfinite = np.zeros(mean_diag.shape, dtype=bool)
    if not (np.isfinite(m).all() and np.isfinite(mean_diag).all()):
        # The diagonal of a finite matrix may still sum past float64's
        # largest value; its mean is then taken dividing before the sum.
        nonfinite = ~np.isfinite(m).all(axis=(-2, -1))
        m[nonfinite] = np.eye(p + 1)
        mean_diag = np.where(np.isfinite(mean_diag), mean_diag, trace(m / (p + 1)))
    try:
        eigvals, v = smallest_eigenpair(m, LAPACK_GAP_FACTOR * NEAR_DEGENERATE_TOL)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"augmented Gram eigenproblem failed: {exc}") from exc

    gap = eigvals[..., 1] - eigvals[..., 0]
    near_tied = (gap < NEAR_DEGENERATE_TOL * mean_diag) & ~nonfinite
    last = v[..., -1]
    vertical = (np.abs(last) < VERTICAL_TOL * np.sqrt(plane_sum(v[..., i] ** 2 for i in range(p + 1)))) & ~nonfinite
    beta_hat = np.sqrt(sizes) * (-v[..., :-1] / np.where(vertical | nonfinite, np.nan, last)[..., None])
    return beta_hat, vertical, near_tied, nonfinite


def tls_fit(cache: SpectralCache, ensemble_sizes, lam: float) -> tuple[np.ndarray, ...]:
    """``tls_grid`` at one lambda: the same four arrays with a grid axis of length one.

    A vertical point has NaN coefficients and ``vertical[0]`` set.
    """
    return tls_grid(rmt_grid(cache, [float(lam)]).gram, ensemble_sizes)
