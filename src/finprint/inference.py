"""Marginal confidence intervals and detection/attribution calls.

A forcing is *detected* when its interval lies strictly above zero and
*attributed* when, in addition, the interval contains one.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import TYPE_CHECKING

import numpy as np

from .errors import OutOfDomain

if TYPE_CHECKING:
    from .variance import LambdaCurve

__all__ = [
    "FitResult",
    "StackedFit",
    "Verdict",
    "da_verdict",
    "quantile_normal",
    "check_alpha",
    "build_fit_result",
]


@dataclass(frozen=True)
class Verdict:
    detected: bool
    attributed: bool


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


@dataclass(frozen=True)
class StackedFit:
    """The fits of a replicate stack as arrays, row r for replicate r.

    ``lambda_opt`` is (R,), ``beta_hat``, ``ci_lower`` and ``ci_upper`` are
    (R, p) and ``xi_hat`` is (R, p, p), all at each replicate's chosen point
    of the stacked ``curve``. ``feasible`` marks the replicates with a usable
    grid point; the other rows hold NaN. ``row(r)`` is replicate r's
    FitResult, with its verdicts and its own curve.
    """

    lambda_opt: np.ndarray
    beta_hat: np.ndarray
    xi_hat: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    feasible: np.ndarray
    curve: "LambdaCurve"
    n_dim: int
    alpha: float

    def row(self, r: int) -> FitResult:
        """Replicate r's FitResult; r must be a feasible row."""
        intervals = tuple(zip(self.ci_lower[r].tolist(), self.ci_upper[r].tolist()))
        return FitResult(
            beta_hat=self.beta_hat[r],
            lambda_opt=float(self.lambda_opt[r]),
            xi_hat=self.xi_hat[r],
            n_dim=self.n_dim,
            alpha=self.alpha,
            intervals=intervals,
            verdicts=tuple(da_verdict(ci) for ci in intervals),
            curve=self.curve.replicate(r),
        )


def quantile_normal(q: float) -> float:
    """Standard-normal quantile; q must lie strictly inside (0, 1)."""
    if not 0.0 < q < 1.0:
        raise OutOfDomain(f"normal quantile needs q in (0, 1), got {q}")
    return NormalDist().inv_cdf(q)


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


def da_verdict(ci: tuple[float, float]) -> Verdict:
    """Detection/attribution call from one marginal interval."""
    lower, upper = float(ci[0]), float(ci[1])
    if lower > upper:
        raise OutOfDomain(f"interval endpoints out of order: ({lower}, {upper})")
    detected = lower > 0.0
    return Verdict(detected=detected, attributed=detected and lower <= 1.0 <= upper)


def build_fit_result(curve: "LambdaCurve", n_dim: int, alpha: float) -> StackedFit:
    """The StackedFit of a replicate-stacked curve: every replicate at its chosen point.

    The chosen points and their intervals are taken in one pass over the
    stack, with no per-replicate object; a replicate with no feasible point
    gets a NaN row and ``feasible`` False. Raises OutOfDomain when a
    feasible replicate's chosen variance is not positive.
    """
    feasible = curve.feasible.any(axis=-1)
    at = curve.chosen_at
    beta_hat = np.where(feasible[:, None], curve.beta_hat[at], np.nan)
    xi_hat = np.where(feasible[:, None, None], curve.xi_hat[at], np.nan)
    variances = np.diagonal(xi_hat, axis1=-2, axis2=-1)
    ci_lower, ci_upper = np.full_like(beta_hat, np.nan), np.full_like(beta_hat, np.nan)
    ci_lower[feasible], ci_upper[feasible] = _normal_intervals(
        beta_hat[feasible], variances[feasible], n_dim, _two_sided_z(alpha)
    )
    return StackedFit(
        lambda_opt=np.where(feasible, curve.grid[at], np.nan),
        beta_hat=beta_hat,
        xi_hat=xi_hat,
        ci_lower=ci_lower,
        ci_upper=ci_upper,
        feasible=feasible,
        curve=curve,
        n_dim=n_dim,
        alpha=alpha,
    )
