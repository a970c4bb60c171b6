"""Plug-in asymptotic covariance of the scaling factors and lambda selection.

The sampling covariance of sqrt(N)*(beta_hat - beta) has a limit that can be
estimated consistently from the noisy fingerprints and the sample covariance
alone, by correcting the fingerprint quadratic forms for measurement error
with the trace functionals of the shrunk covariance. Minimizing the trace of
that estimate over lambda on a log grid picks the weight matrix with the
smallest total asymptotic uncertainty. The whole grid is evaluated at once
as stacked array operations; the per-lambda entry points are its G = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .dataset import DetectionDataset, validate_dataset
from .errors import DimensionMismatch, NoFeasiblePoint, SingularDelta1
from .spectral import RmtFunctionals, SpectralCache, build_cache, rmt_grid
# tls_fit is unused here but stays importable from this module: perfbench's
# layer tracer wraps finprint.variance.tls_fit by name.
from .tls import tls_fit, tls_grid  # noqa: F401

if TYPE_CHECKING:
    from .inference import FitResult

__all__ = [
    "XiEstimate",
    "LambdaCurve",
    "FitOptions",
    "REASONS",
    "delta1_hat",
    "delta2_hat",
    "k_hat",
    "xi_hat",
    "evaluate_grid",
    "evaluate_lambda",
    "select_lambda",
    "fit_optimal",
]

# Reciprocal condition number below which the corrected Gram matrix is
# treated as singular.
RCOND_TOL = 1e-10

DEFAULT_GRID_SIZE = 100
# Search bounds as multiples of tau_bar = tr(S)/N.
DEFAULT_BOUNDS = (0.01, 10.0)

# Selection criteria on a stack of covariance estimates.
_CRITERIA = {
    "trace": lambda xi: np.trace(xi, axis1=1, axis2=2),
    "determinant": np.linalg.det,
    "max_eigenvalue": lambda xi: np.linalg.eigvalsh(xi)[:, -1],
}
_OBJECTIVES = tuple(_CRITERIA)

# Reason codes for infeasible grid points with their failure messages; a
# point carries the first code, in this order, whose check it fails.
REASONS = {
    "degenerate_denominator": "denominator 1 - (N/m)(1 - lambda*Q1) vanished",
    "vertical_solution": "TLS has no finite solution: fingerprints are orthogonal to Y",
    "singular_delta1": "corrected Gram matrix is numerically singular",
    "nonpositive_variance": "nonpositive variance estimate on the diagonal",
}


def _d_vector(d) -> np.ndarray:
    """Accept the measurement-error scaling as a diagonal vector or matrix."""
    d = np.asarray(d, dtype=float)
    if d.ndim == 2:
        d = np.diag(d)
    return d


def _mat(x) -> np.ndarray:
    """A scalar, or a stack of them, broadcastable against (..., p, p)."""
    return np.asarray(x, dtype=float)[..., None, None]


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


@dataclass(frozen=True)
class XiEstimate:
    """Everything computed at a single regularization level.

    ``feasible`` is true iff the corrected Gram matrix was invertible
    (reciprocal condition >= 1e-10) and every diagonal entry of the
    covariance estimate is positive. ``stability`` records the denominator
    b = 1 - (N/m)(1 - lambda*Q1), which drifts to zero at small lambda when
    m < N. Points that fail before the covariance is assembled keep NaN
    payloads; every infeasible point has a failure message.
    """

    lam: float
    beta_hat: np.ndarray
    delta1_hat: np.ndarray
    delta2_hat: np.ndarray
    k_hat: float
    xi_hat: np.ndarray
    trace_xi: float
    feasible: bool
    stability: float = np.nan
    failure: str | None = None


@dataclass(frozen=True)
class LambdaCurve:
    """The regularization search on its whole grid, as stacked arrays.

    Row g of every array belongs to ``grid[g]``: ``beta_hat`` is (G, p),
    ``delta1_hat``, ``delta2_hat`` and ``xi_hat`` are (G, p, p), ``k_hat``
    and ``stability`` are G-vectors, and ``reason`` holds None at a usable
    point and a REASONS code otherwise. ``n_near_degenerate`` counts points
    with a usable denominator whose smallest TLS eigenvalue is nearly tied.
    ``objective`` is the ``criterion`` at feasible points and +inf elsewhere;
    ``chosen_index`` is its first minimum, so ties go to the smallest lambda.
    """

    grid: np.ndarray
    beta_hat: np.ndarray
    delta1_hat: np.ndarray
    delta2_hat: np.ndarray
    k_hat: np.ndarray
    xi_hat: np.ndarray
    stability: np.ndarray
    reason: np.ndarray
    n_near_degenerate: int = 0
    criterion: str = "trace"

    @cached_property
    def objective(self) -> np.ndarray:
        usable = np.equal(self.reason, None)
        values = np.full(self.grid.shape, np.inf)
        if usable.any():
            values[usable] = _CRITERIA[self.criterion](self.xi_hat[usable])
        return np.where(np.isfinite(values), values, np.inf)

    @property
    def feasible(self) -> np.ndarray:
        return np.isfinite(self.objective)

    @property
    def chosen_index(self) -> int:
        return int(np.argmin(self.objective))

    @property
    def chosen_lambda(self) -> float:
        return float(self.grid[self.chosen_index])

    @property
    def chosen(self) -> XiEstimate:
        return self.estimate(self.chosen_index)

    def estimate(self, i: int) -> XiEstimate:
        """Grid point ``i`` as a single-lambda estimate."""
        reason = self.reason[i]
        return XiEstimate(
            lam=float(self.grid[i]),
            beta_hat=self.beta_hat[i],
            delta1_hat=self.delta1_hat[i],
            delta2_hat=self.delta2_hat[i],
            k_hat=float(self.k_hat[i]),
            xi_hat=self.xi_hat[i],
            trace_xi=float(np.trace(self.xi_hat[i])),
            feasible=reason is None,
            stability=float(self.stability[i]),
            failure=None if reason is None else REASONS[reason],
        )


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the end-to-end fit; defaults follow the method's recipe."""

    alpha: float = 0.05
    lambda_min: float | None = None
    lambda_max: float | None = None
    grid_size: int = DEFAULT_GRID_SIZE
    objective: str = "trace"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}")


def delta1_hat(f: RmtFunctionals, d) -> np.ndarray:
    """Measurement-error corrected Gram matrix G1 - theta1 * D (stacked if ``f`` is)."""
    return _sym(f.g1 - _mat(f.theta1) * np.diag(_d_vector(d)))


def delta2_hat(f: RmtFunctionals, d, n_dim: int, m_runs: int) -> np.ndarray:
    """Corrected middle matrix [1 + (N/m) theta1]^2 (G1 - lambda G2) - theta2 * D.

    Stacked over the grid when ``f`` is.
    """
    scale = (1.0 + (n_dim / m_runs) * _mat(f.theta1)) ** 2
    return _sym(scale * (f.g1 - _mat(f.lam) * f.g2) - _mat(f.theta2) * np.diag(_d_vector(d)))


def k_hat(f: RmtFunctionals):
    """Plug-in estimate of the residual-interaction trace; equals theta2."""
    return f.theta2


def _ill_conditioned(svals: np.ndarray) -> np.ndarray:
    """Reciprocal condition below RCOND_TOL, from descending singular values."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (svals[..., 0] <= 0.0) | (svals[..., -1] / svals[..., 0] < RCOND_TOL)


def _assemble_xi(beta_hat, d, d1_inv, d2, k) -> np.ndarray:
    factor = _mat(1.0 + np.sum(beta_hat * (d * beta_hat), axis=-1))
    # Sherman-Morrison form of (D^-1 + b b^T)^-1; never forms D^-1.
    db = d * beta_hat
    core_inv = np.diag(d) - db[..., :, None] * db[..., None, :] / factor
    return _sym(factor * d1_inv @ (d2 + _mat(k) * core_inv) @ d1_inv)


def xi_hat(beta_hat, d, d1, d2, k) -> np.ndarray:
    """Assemble the covariance estimate from its plug-in ingredients.

    Computes (1 + b^T D b) * D1^{-1} {D2 + k (D^{-1} + b b^T)^{-1}} D1^{-1}
    and symmetrizes the result. Raises SingularDelta1 when D1 cannot be
    inverted reliably.
    """
    d1 = np.asarray(d1, dtype=float)
    if _ill_conditioned(np.linalg.svd(d1, compute_uv=False)).any():
        raise SingularDelta1(f"corrected Gram matrix has reciprocal condition below {RCOND_TOL:g}")
    beta_hat, d2 = np.asarray(beta_hat, dtype=float), np.asarray(d2, dtype=float)
    return _assemble_xi(beta_hat, _d_vector(d), np.linalg.inv(d1), d2, k)


def evaluate_grid(cache: SpectralCache, ensemble_sizes, grid, criterion: str = "trace") -> LambdaCurve:
    """Fit the scaling factors and assemble their covariance at every lambda.

    Costs O(G N p^2) given the cache, as stacked array operations: one
    stacked eigh for TLS, one stacked svd for the Delta1 checks and one
    stacked inv. Infeasible points do not raise; each carries its REASONS
    code and, unless only its variance is nonpositive, NaN payloads.
    """
    if criterion not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}")
    d = 1.0 / np.asarray(ensemble_sizes, dtype=float)
    f = rmt_grid(cache, grid)
    sol, vertical, near_tied = tls_grid(cache, ensemble_sizes, f.lam)
    degenerate = np.isnan(f.theta1)
    g, p = sol.beta_hat.shape
    eye = np.eye(p)

    d1 = delta1_hat(f, d)
    # Identity in place of unusable rows keeps NaN out of LAPACK. The g1 stack
    # rides along in the same svd call for its spectral norms.
    usable_d1 = np.where(degenerate[:, None, None], eye, d1)
    svals = np.linalg.svd(np.concatenate([usable_d1, f.g1]), compute_uv=False)
    # The correction is a difference of two terms; a smallest singular value
    # that is round-off relative to their size means the matrix is singular
    # even when its own condition number looks fine (p = 1).
    scale = svals[g:, 0] + np.abs(f.theta1) * d.max()
    singular = (svals[:g, -1] < RCOND_TOL * scale) | _ill_conditioned(svals[:g])
    unusable = degenerate | vertical | singular
    blank = unusable[:, None, None]
    d2 = delta2_hat(f, d, cache.n_dim, cache.m_runs)
    xi = _assemble_xi(sol.beta_hat, d, np.linalg.inv(np.where(blank, eye, d1)), d2, k_hat(f))
    nonpositive = ~(np.diagonal(xi, axis1=1, axis2=2) > 0.0).all(axis=1)

    failed = np.stack([degenerate, vertical, singular, nonpositive])
    first = np.where(failed.any(axis=0), failed.argmax(axis=0), len(REASONS))
    return LambdaCurve(
        grid=f.lam,
        beta_hat=np.where(unusable[:, None], np.nan, sol.beta_hat),
        delta1_hat=np.where(blank, np.nan, d1),
        delta2_hat=np.where(blank, np.nan, d2),
        k_hat=np.where(unusable, np.nan, k_hat(f)),
        xi_hat=np.where(blank, np.nan, xi),
        stability=f.stability,
        reason=np.array([*REASONS, None], dtype=object)[first],
        n_near_degenerate=int(np.count_nonzero(near_tied & ~degenerate)),
        criterion=criterion,
    )


def evaluate_lambda(cache: SpectralCache, ensemble_sizes, lam: float) -> XiEstimate:
    """Fit the scaling factors and assemble their covariance at one lambda.

    The G = 1 case of ``evaluate_grid``: degenerate denominators, vertical
    TLS solutions, singular corrected Gram matrices and nonpositive
    variances come back as infeasible estimates instead of raising.
    """
    return evaluate_grid(cache, ensemble_sizes, [float(lam)]).estimate(0)


def default_bounds(tau_bar: float) -> tuple[float, float]:
    """Search interval [0.01, 10] * tau_bar; unit scale when tr(S) = 0."""
    scale = tau_bar if tau_bar > 0.0 else 1.0
    return (DEFAULT_BOUNDS[0] * scale, DEFAULT_BOUNDS[1] * scale)


def select_lambda(
    cache: SpectralCache,
    ensemble_sizes,
    bounds: tuple[float, float] | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
    objective: str = "trace",
) -> LambdaCurve:
    """Grid-search the regularization level minimizing the covariance objective.

    The grid is log-spaced and inclusive of both bounds; infeasible points
    are skipped rather than fatal. Raises NoFeasiblePoint when nothing on
    the grid is usable.
    """
    if bounds is None:
        bounds = default_bounds(cache.tau_bar)
    lo, hi = float(bounds[0]), float(bounds[1])
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lambda_min < lambda_max, got ({lo}, {hi})")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")

    curve = evaluate_grid(cache, ensemble_sizes, np.geomspace(lo, hi, grid_size), objective)
    if not curve.feasible.any():
        raise NoFeasiblePoint("every grid point was infeasible")
    return curve


def fit_optimal(ds: DetectionDataset, options: FitOptions | None = None) -> "FitResult":
    """End-to-end fit: cache, lambda search, covariance, intervals, verdicts.

    Raises DimensionMismatch on inconsistent inputs and NoFeasiblePoint when
    the search fails everywhere.
    """
    from .inference import build_fit_result

    opts = options or FitOptions()
    report = validate_dataset(ds)
    if not report.ok:
        raise DimensionMismatch("; ".join(report.errors))

    cov = ds.sample_covariance()
    cache = build_cache(cov, ds.x_tilde, ds.y)
    lo, hi = default_bounds(cache.tau_bar)
    if opts.lambda_min is not None:
        lo = opts.lambda_min
    if opts.lambda_max is not None:
        hi = opts.lambda_max
    curve = select_lambda(
        cache,
        ds.ensemble_sizes,
        bounds=(lo, hi),
        grid_size=opts.grid_size,
        objective=opts.objective,
    )
    return build_fit_result(curve, n_dim=cache.n_dim, alpha=opts.alpha)
