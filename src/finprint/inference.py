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
from .variance import RCOND_TOL

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


def marginal_ci(beta_i: float, xi_ii: float, n_dim: int, alpha: float = 0.05) -> tuple[float, float]:
    """Two-sided normal interval beta_i +/- z_{1-alpha/2} * sqrt(xi_ii / N)."""
    if xi_ii <= 0.0:
        raise NonpositiveVariance(f"variance estimate must be positive, got {xi_ii}")
    if not 0.0 < alpha < 1.0:
        raise OutOfDomain(f"alpha must be in (0, 1), got {alpha}")
    half_width = quantile_normal(1.0 - alpha / 2.0) * float(np.sqrt(xi_ii / n_dim))
    return (float(beta_i) - half_width, float(beta_i) + half_width)


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

    svals = np.linalg.svd(xi, compute_uv=False)
    if svals[0] <= 0.0 or svals[-1] / svals[0] < RCOND_TOL:
        raise SingularXi("covariance estimate is numerically singular")
    diff = beta_hat - beta0
    statistic = float(n_dim * diff @ np.linalg.solve(xi, diff))
    threshold = quantile_chisq(beta_hat.shape[0], 1.0 - alpha)
    return JointRegionResult(statistic=statistic, threshold=threshold, inside=statistic <= threshold)


def da_verdict(ci: tuple[float, float]) -> Verdict:
    """Detection/attribution call from one marginal interval."""
    lower, upper = float(ci[0]), float(ci[1])
    if lower > upper:
        raise ValueError(f"interval endpoints out of order: ({lower}, {upper})")
    detected = lower > 0.0
    return Verdict(detected=detected, attributed=detected and lower <= 1.0 <= upper)


def build_fit_result(curve: "LambdaCurve", n_dim: int, alpha: float) -> FitResult:
    """Bundle the chosen grid point into a FitResult with intervals and verdicts."""
    est = curve.chosen
    intervals = tuple(
        marginal_ci(est.beta_hat[i], est.xi_hat[i, i], n_dim, alpha)
        for i in range(est.beta_hat.shape[0])
    )
    return FitResult(
        beta_hat=est.beta_hat,
        lambda_opt=est.lam,
        xi_hat=est.xi_hat,
        n_dim=n_dim,
        alpha=alpha,
        intervals=intervals,
        verdicts=tuple(da_verdict(ci) for ci in intervals),
        curve=curve,
    )
