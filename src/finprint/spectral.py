"""Spectral cache and the trace/quadratic functionals of the shrunk covariance.

All quantities the estimator needs at a given regularization level are
functions of the eigendecomposition of the sample covariance S and of the
data projected onto its eigenbasis. The decomposition is done once. A grid of
G lambdas is then evaluated in one pass of stacked array operations on the
G x N weight matrix 1/(d_i + lambda), at O(G N p^2); the one-lambda entry
points are the G = 1 case of the same code. The shrunk matrix S + lambda*I
is never formed or inverted densely.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .dataset import SampleCovariance
from .errors import DegenerateDenominator, DimensionMismatch, EigenFailure

__all__ = [
    "SpectralCache",
    "RmtFunctionals",
    "build_cache",
    "weights",
    "weighted_gram",
    "rmt_grid",
    "q1",
    "q2",
    "theta1",
    "theta2",
    "g_forms",
    "whiten",
    "rmt_functionals",
    "stability_margin",
]

# Denominators b = 1 - (N/m)(1 - lambda*Q1) smaller than this are treated as
# degenerate; b -> 0 as lambda -> 0 whenever m < N.
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class SpectralCache:
    """Eigendecomposition of S plus the data expressed in its eigenbasis.

    ``eigvals`` are ascending and clamped to >= 0; ``eigvecs`` has the
    matching eigenvectors as columns. ``proj_x`` and ``proj_y`` are the
    fingerprints and observations rotated into the eigenbasis, which is all
    the weighted products below ever touch.
    """

    eigvals: np.ndarray
    eigvecs: np.ndarray
    proj_x: np.ndarray
    proj_y: np.ndarray
    n_dim: int
    m_runs: int
    tau_bar: float


@dataclass(frozen=True)
class RmtFunctionals:
    """Trace/quadratic functionals of the shrunk covariance.

    Stacked over a grid by ``rmt_grid`` (G-vectors, with g1 and g2 of shape
    (G, p, p)); floats and p x p matrices at one lambda. ``stability`` is the
    denominator b; theta1 and theta2 are NaN where |b| <= DEGENERATE_TOL.
    """

    lam: float | np.ndarray
    q1: float | np.ndarray
    q2: float | np.ndarray
    theta1: float | np.ndarray
    theta2: float | np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    stability: float | np.ndarray = np.nan


def build_cache(cov: SampleCovariance, x_tilde, y) -> SpectralCache:
    """Eigendecompose S once and project the data onto its eigenbasis.

    Negative eigenvalues from round-off are clamped to zero (threshold
    1e-10 * tau_bar). Raises EigenFailure if the symmetric solver does not
    converge and DimensionMismatch on inconsistent shapes.
    """
    s = cov.s
    n = s.shape[0]
    x_tilde = np.asarray(x_tilde, dtype=float)
    y = np.asarray(y, dtype=float)
    if x_tilde.ndim != 2 or x_tilde.shape[0] != n:
        raise DimensionMismatch(f"x_tilde must be {n} x p, got {x_tilde.shape}")
    if y.shape != (n,):
        raise DimensionMismatch(f"y must have shape ({n},), got {y.shape}")

    try:
        eigvals, eigvecs = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"symmetric eigendecomposition failed: {exc}") from exc

    tau_bar = float(np.trace(s)) / n
    # Round-off eigenvalues (either sign) below 1e-10 * tau_bar are exact
    # zeros of the rank-deficient S.
    clamp = 1e-10 * max(tau_bar, 0.0)
    eigvals = np.where(eigvals < clamp, 0.0, eigvals)

    return SpectralCache(
        eigvals=eigvals,
        eigvecs=eigvecs,
        proj_x=eigvecs.T @ x_tilde,
        proj_y=eigvecs.T @ y,
        n_dim=n,
        m_runs=cov.m,
        tau_bar=tau_bar,
    )


def _check_lambda(lam) -> np.ndarray:
    """Regularization levels as a 1-d float array; each must be positive."""
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if lams.ndim != 1 or not (lams > 0.0).all():
        raise ValueError(f"lambda must be positive, got {lam}")
    return lams


def grid_row(stacked, i: int = 0):
    """Row ``i`` of a dataclass stacked over a grid; 0-d rows become floats."""
    rows = {f.name: getattr(stacked, f.name)[i] for f in fields(stacked)}
    return replace(stacked, **{k: float(v) if np.ndim(v) == 0 else v for k, v in rows.items()})


def weights(cache: SpectralCache, lams: np.ndarray) -> np.ndarray:
    """G x N matrix of shrunk inverse eigenvalues 1/(d_i + lambda_g)."""
    return 1.0 / (cache.eigvals + lams[:, None])


def weighted_gram(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Symmetric sum_i w[g, i] a_i a_i^T for every row g of ``w``, as (G, k, k)."""
    n, k = a.shape
    gram = (w @ (a[:, :, None] * a[:, None, :]).reshape(n, k * k)).reshape(-1, k, k)
    return 0.5 * (gram + gram.swapaxes(1, 2))


def rmt_grid(cache: SpectralCache, lams) -> RmtFunctionals:
    """Every functional the covariance assembly needs, at each lambda of a grid.

    Q1 = (1/N) sum 1/(d_i + lambda), Q2 = (1/N) sum 1/(d_i + lambda)^2,
    b = 1 - (N/m)(1 - lambda*Q1), theta1 = (1 - lambda*Q1)/b,
    theta2 = (1 - lambda*Q1)/b^3 - lambda*(Q1 - lambda*Q2)/b^4, and the
    symmetric PSD forms g1 = X~^T (S+lambda I)^-1 X~ / N and g2 (squared
    inverse). A degenerate denominator gives NaN thetas, not an exception.
    """
    lams = _check_lambda(lams)
    w = weights(cache, lams)
    q1v = w.mean(axis=1)
    q2v = (w * w).mean(axis=1)
    u = 1.0 - lams * q1v
    b = 1.0 - (cache.n_dim / cache.m_runs) * u
    usable_b = np.where(np.abs(b) > DEGENERATE_TOL, b, np.nan)
    return RmtFunctionals(
        lam=lams,
        q1=q1v,
        q2=q2v,
        theta1=u / usable_b,
        theta2=u / usable_b**3 - lams * (q1v - lams * q2v) / usable_b**4,
        g1=weighted_gram(w, cache.proj_x) / cache.n_dim,
        g2=weighted_gram(w * w, cache.proj_x) / cache.n_dim,
        stability=b,
    )


def _at(cache: SpectralCache, lam: float) -> RmtFunctionals:
    return grid_row(rmt_grid(cache, [float(lam)]))


def rmt_functionals(cache: SpectralCache, lam: float) -> RmtFunctionals:
    """All functionals at one lambda; raises DegenerateDenominator when b vanishes."""
    f = _at(cache, lam)
    if np.isnan(f.theta1):
        raise DegenerateDenominator(f"denominator {f.stability:.3e} at lambda={f.lam:.6g}")
    return f


def q1(cache: SpectralCache, lam: float) -> float:
    """Normalized trace of the inverse shrunk covariance, (1/N) sum 1/(d_i + lambda)."""
    return _at(cache, lam).q1


def q2(cache: SpectralCache, lam: float) -> float:
    """Normalized trace of the squared inverse, (1/N) sum 1/(d_i + lambda)^2."""
    return _at(cache, lam).q2


def stability_margin(cache: SpectralCache, lam: float) -> float:
    """Denominator b = 1 - (N/m)(1 - lambda*Q1).

    Approaches zero as lambda -> 0 when m < N, which is where the trace
    functionals become unstable; exposed as a diagnostic rather than
    guessing a hard cutoff.
    """
    return _at(cache, lam).stability


def theta1(cache: SpectralCache, lam: float) -> float:
    """First self-consistent trace functional (1 - lambda*Q1) / b."""
    return rmt_functionals(cache, lam).theta1


def theta2(cache: SpectralCache, lam: float) -> float:
    """Second trace functional, (1 - lambda*Q1)/b^3 - lambda*(Q1 - lambda*Q2)/b^4."""
    return rmt_functionals(cache, lam).theta2


def g_forms(cache: SpectralCache, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Fingerprint quadratic forms ``(g1, g2)`` in the inverse shrunk covariance."""
    f = _at(cache, lam)
    return f.g1, f.g2


def whiten(cache: SpectralCache, lam: float, a) -> np.ndarray:
    """Apply the inverse square root of the shrunk covariance to a vector."""
    lam = _check_lambda(lam)
    a = np.asarray(a, dtype=float)
    scaled = (cache.eigvecs.T @ a) / np.sqrt(cache.eigvals + lam)
    return cache.eigvecs @ scaled
