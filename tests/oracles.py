"""Independent oracles the tests compare the library against.

The Marchenko-Pastur fixed point gives the deterministic limits of the trace
functionals; it keeps its own copy of the theta algebra so that a fault in
the library's version cannot hide from it. The dense GLS solution is the
baseline for the scaling-factor estimator. Whitening and the TLS objective
are computed from the dense S + lambda*I, never from a spectral cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from finprint.errors import DimensionMismatch, FinprintError


class Singular(FinprintError):
    """A dense linear solve hit a singular matrix."""


class NoConvergence(FinprintError):
    """Fixed-point iteration did not converge within the iteration budget."""


@dataclass(frozen=True)
class PopulationSpectrum:
    """Discrete spectral distribution of the population covariance."""

    values: np.ndarray
    weights: np.ndarray
    aspect_ratio: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if values.shape != weights.shape or values.ndim != 1:
            raise DimensionMismatch("values and weights must be 1-d arrays of equal length")
        if (values < 0.0).any():
            raise ValueError("spectrum values must be nonnegative")
        if (weights < 0.0).any() or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to one")
        if self.aspect_ratio < 0.0:
            raise ValueError("aspect ratio must be >= 0")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class StieltjesLimits:
    s: float
    omega1: float
    omega2: float


def mp_stieltjes(
    spectrum: PopulationSpectrum,
    lam: float,
    damping: float = 0.5,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> StieltjesLimits:
    """Solve the companion Stieltjes-transform fixed point at -lambda.

    Damped iteration s <- (1-w) s + w * RHS(s) starting from
    1 / (mean eigenvalue + lambda). Also returns the two deterministic
    limits of the trace functionals, computed from s and its (analytic)
    derivative. Raises NoConvergence past the iteration budget.
    """
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    tau = spectrum.values
    w = spectrum.weights
    c = spectrum.aspect_ratio

    def rhs(s: float) -> float:
        return float(np.sum(w / (tau * (1.0 - c + lam * c * s) + lam)))

    s = 1.0 / (float(np.sum(w * tau)) + lam)
    for _ in range(max_iter):
        s_next = (1.0 - damping) * s + damping * rhs(s)
        if abs(s_next - s) < tol:
            s = s_next
            break
        s = s_next
    else:
        raise NoConvergence(f"fixed point not converged after {max_iter} iterations")

    # Implicit differentiation of the fixed point gives the derivative of the
    # transform at -lambda (the limit of the squared-inverse trace).
    denom = tau * (1.0 - c + lam * c * s) + lam
    i1 = float(np.sum(w * (tau * c * s + 1.0) / denom**2))
    i2 = float(np.sum(w * tau * lam * c / denom**2))
    s_prime = i1 / (1.0 + i2)

    u = 1.0 - lam * s
    b = 1.0 - c * u
    omega1 = u / b
    omega2 = u / b**3 - lam * (s - lam * s_prime) / b**4
    return StieltjesLimits(s=s, omega1=omega1, omega2=omega2)


def gls_oracle(y, x, sigma) -> np.ndarray:
    """Dense generalized least squares solution (X^T S^-1 X)^-1 X^T S^-1 Y.

    Test-only baseline; raises Singular when the covariance or the weighted
    normal matrix cannot be solved.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    try:
        sig_x = np.linalg.solve(sigma, x)
        sig_y = np.linalg.solve(sigma, y)
        return np.linalg.solve(x.T @ sig_x, x.T @ sig_y)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"GLS solve failed: {exc}") from exc


def whiten(s, lam: float, a) -> np.ndarray:
    """(S + lambda I)^{-1/2} a, from a dense eigendecomposition of the shrunk matrix."""
    s = np.asarray(s, dtype=float)
    vals, vecs = np.linalg.eigh(s + lam * np.eye(s.shape[0]))
    return vecs @ ((vecs.T @ np.asarray(a, dtype=float)) / np.sqrt(vals))


def tls_objective(s, x_tilde, y, ensemble_sizes, lam: float, beta) -> float:
    """Rayleigh-quotient TLS objective at ``beta``, by a dense solve with S + lambda I.

    ||(S + lambda I)^{-1/2} (y - X~ beta)||^2 / (1 + sum_i beta_i^2 / n_i).
    """
    s = np.asarray(s, dtype=float)
    beta = np.asarray(beta, dtype=float)
    resid = np.asarray(y, dtype=float) - np.asarray(x_tilde, dtype=float) @ beta
    quad = resid @ np.linalg.solve(s + lam * np.eye(s.shape[0]), resid)
    return float(quad / (1.0 + np.sum(beta**2 / np.asarray(ensemble_sizes, dtype=float))))


def tls_min_eigenvalue(s, x_tilde, y, ensemble_sizes, lam: float) -> float:
    """Smallest eigenvalue of the dense augmented Gram matrix, the TLS objective's minimum.

    The Gram matrix is A^T (S + lambda I)^{-1} A with A = [X~ diag(sqrt(n_i)), y].
    """
    s = np.asarray(s, dtype=float)
    a = np.column_stack([np.asarray(x_tilde, dtype=float) * np.sqrt(ensemble_sizes), y])
    return float(np.linalg.eigvalsh(a.T @ np.linalg.solve(s + lam * np.eye(s.shape[0]), a))[0])
