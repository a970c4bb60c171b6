"""Confidence intervals, the joint region test, and detection/attribution calls.

A forcing is *detected* when its interval lies strictly above zero and
*attributed* when, in addition, the interval contains one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.stats import chi2, norm

from .errors import NonpositiveVariance, OutOfDomain, SingularXi
from .variance import _ill_conditioned

if TYPE_CHECKING:
    from .variance import LambdaCurve

__all__ = [
    "FitResult",
    "Verdict",
    "JointRegionResult",
    "marginal_ci",
    "joint_region_test",
    "da_verdict",
    "quantile_normal",
    "quantile_chisq",
    "build_fit_result",
]


@dataclass(frozen=True)
class Verdict:
    detected: bool
    attributed: bool


@dataclass(frozen=True)
class JointRegionResult:
    statistic: float
    threshold: float
    inside: bool


@dataclass(frozen=True)
class FitResult:
    """Fitted scaling factors with uncertainty and per-forcing verdicts."""

    beta_hat: np.ndarray
    lambda_opt: float
    xi_hat: np.ndarray
    n_dim: int
    alpha: float
    intervals: tuple[tuple[float, float], ...]
    verdicts: tuple[Verdict, ...]
    curve: "LambdaCurve"


def quantile_normal(q: float) -> float:
    """Standard-normal quantile; q must lie strictly inside (0, 1)."""
    if not 0.0 < q < 1.0:
        raise OutOfDomain(f"normal quantile needs q in (0, 1), got {q}")
    return float(norm.ppf(q))


def quantile_chisq(df: int, q: float) -> float:
    """Chi-square quantile with df >= 1 degrees of freedom."""
    if df < 1:
        raise OutOfDomain(f"chi-square quantile needs df >= 1, got {df}")
    if not 0.0 < q < 1.0:
        raise OutOfDomain(f"chi-square quantile needs q in (0, 1), got {q}")
    return float(chi2.ppf(q, df))


def _normal_interval(beta_i: float, xi_ii: float, n_dim: int, z: float) -> tuple[float, float]:
    """beta_i +/- z * sqrt(xi_ii / N); raises NonpositiveVariance unless xi_ii > 0."""
    if xi_ii <= 0.0:
        raise NonpositiveVariance(f"variance estimate must be positive, got {xi_ii}")
    half_width = z * float(np.sqrt(xi_ii / n_dim))
    return (float(beta_i) - half_width, float(beta_i) + half_width)


def _two_sided_z(alpha: float) -> float:
    """z_{1-alpha/2}; alpha must lie in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise OutOfDomain(f"alpha must be in (0, 1), got {alpha}")
    return quantile_normal(1.0 - alpha / 2.0)


def marginal_ci(beta_i: float, xi_ii: float, n_dim: int, alpha: float = 0.05) -> tuple[float, float]:
    """Two-sided normal interval beta_i +/- z_{1-alpha/2} * sqrt(xi_ii / N)."""
    return _normal_interval(beta_i, xi_ii, n_dim, _two_sided_z(alpha))


def joint_region_test(beta0, beta_hat, xi, n_dim: int, alpha: float = 0.05) -> JointRegionResult:
    """Wald test of a hypothesized coefficient vector against the joint region.

    The statistic is N * (beta_hat - beta0)^T Xi^{-1} (beta_hat - beta0),
    compared against the chi-square quantile with p degrees of freedom.
    Centering at beta_hat makes the p = 1 case agree with the marginal
    interval.
    """
    beta0 = np.asarray(beta0, dtype=float)
    beta_hat = np.asarray(beta_hat, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if not 0.0 < alpha < 1.0:
        raise OutOfDomain(f"alpha must be in (0, 1), got {alpha}")

    if _ill_conditioned(np.linalg.svd(xi, compute_uv=False)):
        raise SingularXi("covariance estimate is numerically singular")
    diff = beta_hat - beta0
    statistic = float(n_dim * diff @ np.linalg.solve(xi, diff))
    threshold = quantile_chisq(beta_hat.shape[0], 1.0 - alpha)
    return JointRegionResult(statistic=statistic, threshold=threshold, inside=statistic <= threshold)


def da_verdict(ci: tuple[float, float]) -> Verdict:
    """Detection/attribution call from one marginal interval."""
    lower, upper = float(ci[0]), float(ci[1])
    if lower > upper:
        raise OutOfDomain(f"interval endpoints out of order: ({lower}, {upper})")
    detected = lower > 0.0
    return Verdict(detected=detected, attributed=detected and lower <= 1.0 <= upper)


def build_fit_result(curve: "LambdaCurve", n_dim: int, alpha: float) -> FitResult:
    """Bundle the chosen grid point into a FitResult with intervals and verdicts."""
    i = curve.chosen_index
    beta_hat, xi_hat = curve.beta_hat[i], curve.xi_hat[i]
    z = _two_sided_z(alpha)
    intervals = tuple(
        _normal_interval(beta_hat[j], xi_hat[j, j], n_dim, z) for j in range(beta_hat.shape[0])
    )
    return FitResult(
        beta_hat=beta_hat,
        lambda_opt=curve.chosen_lambda,
        xi_hat=xi_hat,
        n_dim=n_dim,
        alpha=alpha,
        intervals=intervals,
        verdicts=tuple(da_verdict(ci) for ci in intervals),
        curve=curve,
    )
