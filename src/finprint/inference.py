"""Confidence intervals, the joint region test, and detection/attribution calls.

A forcing is *detected* when its interval lies strictly above zero and
*attributed* when, in addition, the interval contains one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import TYPE_CHECKING

import numpy as np

from ._symmetric import ill_conditioned
from .dataset import as_count
from .errors import OutOfDomain

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
    "check_alpha",
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
    return NormalDist().inv_cdf(q)


def _chisq_below(df: int, x: float, q: float) -> bool:
    """Whether the chi-square CDF with integer df at x > 0 is below q.

    With a = df/2 and h = x/2 the CDF is the regularized gamma P(a, h).
    Below h = a + 1 it is summed as the series
    e^{-h} h^a / Gamma(a+1) * sum_n h^n / ((a+1)...(a+n)); above, the
    survival Q(a, h) = 1 - P is summed in closed form: for even df
    e^{-h} sum_{j<a} h^j / j!, for odd df erfc(sqrt h) plus
    e^{-h} sum_{j<a-1/2} h^{j+1/2} / Gamma(j+3/2). Each side sums only
    positive terms, so each is accurate to a few ulps where it is used.
    """
    a, h = 0.5 * df, 0.5 * x
    if h < a + 1.0:
        term = total = 1.0
        n = 1
        while term > total * 1e-17:
            term *= h / (a + n)
            total += term
            n += 1
        # h^a from log(x): x is a positive double, h may round to zero.
        return math.exp(a * (math.log(x) - math.log(2.0)) - h - math.lgamma(a + 1.0)) * total < q
    # Terms h^d / Gamma(d + 1) for d = 0, 1, ... (even df) or 1/2, 3/2, ... (odd df) below a.
    d = 0.5 * (df % 2)
    term = 2.0 * math.sqrt(h / math.pi) if d else 1.0
    total = 0.0
    while d < a:
        total += term
        d += 1.0
        term *= h / d
    tail = math.exp(-h) * total
    if df % 2:
        tail += math.erfc(math.sqrt(h))
    return tail > 1.0 - q


def quantile_chisq(df: int, q: float) -> float:
    """Chi-square quantile with df from 1 to 1000 degrees of freedom.

    df must be an integer; the CDF is inverted by bisection down to
    adjacent doubles. Above df = 1000 the survival sum overflows before
    e^{-h} underflows, so larger df is rejected.
    """
    df = as_count(df, "chi-square quantile df")
    if df > 1000:
        raise OutOfDomain(f"chi-square quantile needs df <= 1000, got {df}")
    if not 0.0 < q < 1.0:
        raise OutOfDomain(f"chi-square quantile needs q in (0, 1), got {q}")
    lo, hi = 0.0, float(df)
    while _chisq_below(df, hi, q):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _chisq_below(df, mid, q):
            lo = mid
        else:
            hi = mid


def _normal_intervals(beta, variances, n_dim: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends beta -/+ z * sqrt(variance / N), elementwise over any shape.

    Raises OutOfDomain unless every variance is > 0.
    """
    var = np.asarray(variances, dtype=float)
    if not (var > 0.0).all():
        raise OutOfDomain(f"variance estimate must be positive, got {var.min()}")
    half_width = z * np.sqrt(var / n_dim)
    return beta - half_width, beta + half_width


def check_alpha(alpha: float) -> float:
    """``alpha`` if z_{1-alpha/2} can be formed: in (0, 1), with 1 - alpha/2 < 1 in float64.

    The second rule rejects alpha below about 1.1e-16. OutOfDomain otherwise.
    """
    if not 0.0 < alpha < 1.0:
        raise OutOfDomain(f"alpha must be in (0, 1), got {alpha}")
    if not 1.0 - alpha / 2.0 < 1.0:
        raise OutOfDomain(f"alpha = {alpha} is too small: 1 - alpha/2 rounds to 1 in float64")
    return alpha


def _two_sided_z(alpha: float) -> float:
    """z_{1-alpha/2}; alpha must pass ``check_alpha``."""
    return quantile_normal(1.0 - check_alpha(alpha) / 2.0)


def marginal_ci(beta_i: float, xi_ii: float, n_dim: int, alpha: float = 0.05) -> tuple[float, float]:
    """Two-sided normal interval beta_i +/- z_{1-alpha/2} * sqrt(xi_ii / N)."""
    lower, upper = _normal_intervals(float(beta_i), xi_ii, n_dim, _two_sided_z(alpha))
    return (float(lower), float(upper))


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
    check_alpha(alpha)
    if ill_conditioned(np.linalg.svd(xi, compute_uv=False)):
        raise OutOfDomain("covariance estimate is numerically singular")
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


def build_fit_result(curve: "LambdaCurve", n_dim: int, alpha: float) -> list[FitResult]:
    """One FitResult per replicate of a replicate-stacked curve, at its chosen point.

    The chosen points and their intervals are taken in one pass over the
    stack; each FitResult carries its replicate's own curve. Every replicate
    must have a feasible point.
    """
    at = curve.chosen_at
    lams = curve.grid[at]
    beta_hat = curve.beta_hat[at]
    xi_hat = curve.xi_hat[at]
    variances = np.diagonal(xi_hat, axis1=-2, axis2=-1)
    lower, upper = _normal_intervals(beta_hat, variances, n_dim, _two_sided_z(alpha))
    fits = []
    for r in range(lams.shape[0]):
        intervals = tuple(zip(lower[r].tolist(), upper[r].tolist()))
        fits.append(
            FitResult(
                beta_hat=beta_hat[r],
                lambda_opt=float(lams[r]),
                xi_hat=xi_hat[r],
                n_dim=n_dim,
                alpha=alpha,
                intervals=intervals,
                verdicts=tuple(da_verdict(ci) for ci in intervals),
                curve=curve.replicate(r),
            )
        )
    return fits
