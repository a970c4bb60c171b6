"""Plug-in asymptotic covariance of the scaling factors and lambda selection.

The sampling covariance of sqrt(N)*(beta_hat - beta) has a limit that can be
estimated consistently from the noisy fingerprints and the sample covariance
alone, by correcting the fingerprint quadratic forms for measurement error
with the trace functionals of the shrunk covariance. Minimizing the trace of
that estimate over lambda on a log grid picks the weight matrix with the
smallest total asymptotic uncertainty. The whole grid is evaluated at once
as stacked array operations; ``evaluate_lambda`` is its one-point case.
``fit_stack`` is the one fit path: it runs that pass over a stacked cache of
replicates and fits every one of them or raises, and a single fit
(``fit_optimal``) is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property, reduce

import numpy as np

# inference.build_fit_result is looked up at call time, so a wrapper set on
# the inference module (perfbench's layer tracer) sees every fit.
from . import _symmetric, inference
from ._symmetric import RCOND_TOL, ill_conditioned
# validate_dataset and tls_fit are unused here but stay importable from this
# module: perfbench's layer tracer wraps both by name in finprint.variance.
from .dataset import DetectionDataset, as_count, as_real, validate_dataset  # noqa: F401
from .errors import DimensionMismatch, NoFeasiblePoint, OutOfDomain
from .spectral import STACKED, RmtFunctionals, SpectralCache, build_cache, rmt_grid
from .tls import tls_fit, tls_grid  # noqa: F401

__all__ = [
    "LambdaCurve",
    "FitOptions",
    "REASONS",
    "delta1_hat",
    "delta2_hat",
    "xi_hat",
    "evaluate_grid",
    "evaluate_lambda",
    "select_lambda",
    "prepare_cache",
    "fit_optimal",
    "fit_stack",
]

DEFAULT_GRID_SIZE = 100
# Search bounds as multiples of tau_bar = tr(S)/N.
DEFAULT_BOUNDS = (0.01, 10.0)

# Reason codes for infeasible grid points; a point carries the first code, in
# this order, whose check it fails: the augmented TLS Gram matrix overflows,
# the denominator b = 1 - (N/m) u vanished (spectral.DEGENERATE_TOL), TLS
# has no finite solution (fingerprints orthogonal to Y), the corrected Gram
# matrix Delta1 is numerically singular, a diagonal entry of Xi_hat is <= 0, or its trace is not finite.
REASONS = ("nonfinite_gram", "degenerate_denominator", "vertical_solution", "singular_delta1", "nonpositive_variance")
REASONS += ("nonfinite_variance",)

NO_FEASIBLE = "every grid point was infeasible"


def _mat(x) -> np.ndarray:
    """A scalar, or a stack of them, broadcastable against (..., p, p)."""
    return np.asarray(x, dtype=float)[..., None, None]


def _count(n):
    """A count as a Python int, or an array of them over a replicate stack."""
    return int(n) if np.ndim(n) == 0 else n


@dataclass(frozen=True)
class LambdaCurve:
    """The regularization search on its whole grid, as stacked arrays.

    Row g of every array belongs to ``grid[g]``: ``beta_hat`` is (G, p),
    ``xi_hat`` is (G, p, p), ``k_hat``
    (the plug-in residual-interaction trace, theta2) and ``stability`` (the
    denominator b = 1 - (N/m) u, u = (1/N) sum d_i/(d_i + lambda), which
    drifts to zero at small lambda when m < N) are G-vectors, and ``reason``
    holds None at a usable point and a REASONS code otherwise; points that
    fail before the covariance is assembled carry NaN payloads. Delta1 and
    Delta2 are not kept; ``delta1_hat``/``delta2_hat`` form them.
    ``n_near_degenerate`` counts points with a usable denominator whose
    smallest TLS eigenvalue is nearly tied.
    ``objective`` is the trace of ``xi_hat`` at feasible points and +inf
    elsewhere; ``chosen_index`` is its first minimum, so ties go to the
    smallest lambda; from ``evaluate_grid`` it is finite exactly where reason is None.

    From a stacked cache every field gains a leading replicate axis (``grid``
    is (R, G), ``n_near_degenerate`` an R-vector), ``chosen_index`` and
    ``chosen_lambda`` are R-vectors, and ``replicate(i)`` is replicate i's
    own curve.
    """

    grid: np.ndarray
    beta_hat: np.ndarray
    k_hat: np.ndarray
    xi_hat: np.ndarray
    stability: np.ndarray
    reason: np.ndarray
    n_near_degenerate: int | np.ndarray = 0

    @cached_property
    def objective(self) -> np.ndarray:
        values = np.where(np.equal(self.reason, None), _symmetric.trace(self.xi_hat), np.inf)
        return np.where(np.isfinite(values), values, np.inf)

    @property
    def feasible(self) -> np.ndarray:
        return np.isfinite(self.objective)

    @property
    def chosen_index(self):
        i = np.argmin(self.objective, axis=-1)
        return int(i) if i.ndim == 0 else i

    @property
    def chosen_at(self) -> tuple:
        """Index of every replicate's chosen point into the stacked fields."""
        i = self.chosen_index
        return (*np.indices(np.shape(i), sparse=True), i)

    @property
    def chosen_lambda(self):
        lam = self.grid[self.chosen_at]
        return float(lam) if lam.ndim == 0 else lam

    def replicate(self, i) -> "LambdaCurve":
        """Row ``i`` (an index or index array) of a curve stacked over replicates."""
        rows = {f.name: getattr(self, f.name)[i] for f in fields(self)}
        rows["n_near_degenerate"] = _count(rows["n_near_degenerate"])
        return LambdaCurve(**rows)


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the end-to-end fit; defaults follow the method's recipe."""

    alpha: float = 0.05
    lambda_min: float | None = None
    lambda_max: float | None = None
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        object.__setattr__(self, "alpha", inference.check_alpha(as_real(self.alpha, "alpha")))
        for name in ("lambda_min", "lambda_max"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, as_real(getattr(self, name), name))
        object.__setattr__(self, "grid_size", as_count(self.grid_size, "grid_size", 2))


def delta1_hat(f: RmtFunctionals, d) -> np.ndarray:
    """Measurement-error corrected Gram matrix G1 - theta1 * D, one per grid point.

    ``d`` is the diagonal of D, 1/n_i per forcing. Exactly symmetric, as g1 is.
    """
    return f.g1 - _mat(f.theta1) * np.diag(d)


def delta2_hat(f: RmtFunctionals, d, n_dim: int, m_runs: int) -> np.ndarray:
    """Corrected middle matrix [1 + (N/m) theta1]^2 G_S - theta2 * D, one per grid point.

    G_S = X~^T W^-1 S W^-1 X~ / N equals G1 - lambda * G2 with G2 the
    squared-inverse form. Exactly symmetric, as G_S is.
    """
    scale = (1.0 + (n_dim / m_runs) * _mat(f.theta1)) ** 2
    return scale * f.g_s - _mat(f.theta2) * np.diag(d)


def xi_hat(beta_hat, d, d1, d2, k) -> np.ndarray:
    """Assemble the covariance estimate from its plug-in ingredients.

    Computes (1 + b^T D b) * D1^{-1} {D2 + k (D^{-1} + b b^T)^{-1}} D1^{-1}
    and symmetrizes the result, stacked over a leading grid axis when the
    arguments are, on entry planes. ``d`` is the diagonal of D. D1 is
    inverted as given: whether it is too close to singular is ``evaluate_grid``'s call.
    """
    beta_hat, d = np.asarray(beta_hat, dtype=float), np.asarray(d, dtype=float)
    d2, k = np.asarray(d2, dtype=float), np.asarray(k, dtype=float)
    p = d.shape[-1]
    db = [d[i] * beta_hat[..., i] for i in range(p)]
    factor = 1.0 + _symmetric.plane_sum(beta_hat[..., i] * db[i] for i in range(p))
    # Sherman-Morrison form of (D^-1 + b b^T)^-1; never forms D^-1.
    middle = [d2[..., i, j] + k * (np.diag(d)[i, j] - db[i] * db[j] / factor) for i in range(p) for j in range(p)]
    d1_inv = _symmetric.inv(d1)
    product = _symmetric.matmul(_mat(factor) * d1_inv, _symmetric.from_planes(middle, (p, p)))
    return _symmetric.symmetrize(_symmetric.matmul(product, d1_inv))


def evaluate_grid(cache: SpectralCache, ensemble_sizes, grid) -> LambdaCurve:
    """Fit the scaling factors and assemble their covariance at every lambda.

    Costs O(G N p^2) given the cache, as stacked array operations. The small
    symmetric algebra runs in ``_symmetric``: the TLS eigenpair, the
    singular values of Delta1 and g1 for the Delta1 checks (as sorted
    |eigenvalues|, both being symmetric) and the inverse of Delta1 are
    closed forms for p = 2, on each matrix divided by its largest |entry|
    where that keeps their products from under- or overflowing, and LAPACK
    for every other p and for nearly tied TLS minima. Infeasible points do not raise; each
    carries its REASONS code and, unless only its variance is nonpositive or
    not finite, NaN payloads. A stacked cache with an (R, G) grid is one such pass for all R replicates.
    """
    d = 1.0 / np.asarray(ensemble_sizes, dtype=float)
    # Data far above tau_bar can overflow the Gram forms; tls_grid marks such
    # points (nonfinite_gram), and the masks below blank their payloads.
    with np.errstate(over="ignore", invalid="ignore"):
        f = rmt_grid(cache, grid)
    beta_hat, vertical, near_tied, nonfinite = tls_grid(f.gram, ensemble_sizes)
    degenerate = np.isnan(f.theta1)
    p = beta_hat.shape[-1]
    eye = np.eye(p)

    d1 = delta1_hat(f, d)
    # Identity in place of unusable rows keeps NaN and inf out of the kernels.
    d1_svals = _symmetric.singular_values(np.where((nonfinite | degenerate)[..., None, None], eye, d1))
    g1_svals = _symmetric.singular_values(np.where(nonfinite[..., None, None], eye, f.g1))
    # The correction is a difference of two terms; a smallest singular value
    # that is round-off relative to their size means the matrix is singular
    # even when its own condition number looks fine (p = 1).
    scale = g1_svals[..., 0] + np.abs(f.theta1) * d.max()
    singular = (d1_svals[..., -1] < RCOND_TOL * scale) | ill_conditioned(d1_svals)
    unusable = nonfinite | degenerate | vertical | singular
    blank = unusable[..., None, None]
    # Far above tau_bar Delta1 can be small enough that Xi overflows, and at
    # small b Delta2 can overflow for huge data; such a point has a
    # non-finite trace (or diagonal) and is infeasible.
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = delta2_hat(f, d, cache.n_dim, cache.m_runs)
        xi = xi_hat(beta_hat, d, np.where(blank, eye, d1), d2, f.theta2)
    nonpositive = ~reduce(np.logical_and, [xi[..., i, i] > 0.0 for i in range(p)])
    nonfinite_variance = ~np.isfinite(_symmetric.trace(xi))

    failed = np.stack([nonfinite, degenerate, vertical, singular, nonpositive, nonfinite_variance])
    first = np.where(failed.any(axis=0), failed.argmax(axis=0), len(REASONS))
    return LambdaCurve(
        grid=f.lam,
        beta_hat=np.where(unusable[..., None], np.nan, beta_hat),
        k_hat=np.where(unusable, np.nan, f.theta2),
        xi_hat=np.where(blank, np.nan, xi),
        stability=f.stability,
        reason=np.array([*REASONS, None], dtype=object)[first],
        n_near_degenerate=_count(np.count_nonzero(near_tied & ~degenerate, axis=-1)),
    )


def evaluate_lambda(cache: SpectralCache, ensemble_sizes, lam: float) -> LambdaCurve:
    """Fit the scaling factors and assemble their covariance at one lambda.

    ``evaluate_grid`` on a one-point grid: degenerate denominators, vertical
    TLS solutions, singular corrected Gram matrices and nonpositive
    variances show in ``reason[0]`` instead of raising.
    """
    return evaluate_grid(cache, ensemble_sizes, [float(lam)])


def default_bounds(tau_bar):
    """Search interval [0.01, 10] * tau_bar, with tau_bar = tr(S)/N; elementwise over a stack."""
    return (DEFAULT_BOUNDS[0] * tau_bar, DEFAULT_BOUNDS[1] * tau_bar)


def _check_bounds(lo: np.ndarray, hi: np.ndarray, n_dim: int, tau_bar: np.ndarray) -> None:
    """Require tau_bar > 0 and 0 < lo < hi < inf elementwise over R-vectors.

    tau_bar = tr(S)/N <= 0, with or without given bounds, raises
    DimensionMismatch: the control runs vanish, so lambda has no scale.
    lo must keep N/lo and N*(tau_bar/lo)^2 finite in float64: along zero
    eigenvalues (the null block among them) the weights 1/(d_i + lambda)
    reach 1/lo, Delta1 grows like tau_bar/lo and Xi_hat, which applies its
    inverse twice, shrinks like (lo/tau_bar)^2. hi must keep tau_bar/hi^2 and
    (tau_bar/hi)^2 normal floats, or the bulk of g_s's weights
    d_i/(d_i + lambda)^2 and of theta2's (d_i/(d_i + lambda))^2 underflows.
    The message names the first offending replicate.
    """
    bad = ~(tau_bar > 0.0)
    if bad.any():
        t = float(tau_bar[np.argmax(bad)])
        raise DimensionMismatch(f"tr(S)/N = {t:.3g} <= 0: the control runs vanish, so lambda has no scale")
    bad = ~((0.0 < lo) & (lo < hi) & (hi < np.inf))
    if bad.any():
        i = np.argmax(bad)
        raise OutOfDomain(f"need 0 < lambda_min < lambda_max < inf, got ({float(lo[i])}, {float(hi[i])})")
    with np.errstate(over="ignore"):
        bad = ~(np.isfinite(n_dim / lo) & np.isfinite(n_dim * (tau_bar / lo) ** 2))
    if bad.any():
        i = np.argmax(bad)
        raise OutOfDomain(
            f"lambda_min = {float(lo[i])} is too small: N/lambda_min or N*(tau_bar/lambda_min)^2 overflows "
            f"float64 at N = {n_dim}, tau_bar = {float(tau_bar[i]):.6g}"
        )
    tiny = np.finfo(float).tiny
    with np.errstate(under="ignore"):
        bad = (tau_bar / hi / hi < tiny) | ((tau_bar / hi) ** 2 < tiny)
    if bad.any():
        i = np.argmax(bad)
        raise OutOfDomain(
            f"lambda_max = {float(hi[i])} is too large: tau_bar/lambda_max^2 or (tau_bar/lambda_max)^2 "
            f"underflows float64 at tau_bar = {float(tau_bar[i]):.6g}"
        )


def select_lambda(
    cache: SpectralCache,
    ensemble_sizes,
    bounds: tuple[float, float] | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> LambdaCurve:
    """Grid-search the regularization level minimizing the trace of Xi_hat.

    The curve of ``fit_stack`` on a stack of one, with the search ``bounds``
    (default ``default_bounds(cache.tau_bar)``) on a log grid inclusive of
    both; infeasible points are skipped rather than fatal. Raises
    NoFeasiblePoint when nothing on the grid is usable.
    """
    lo, hi = (None, None) if bounds is None else bounds
    opts = FitOptions(lambda_min=lo, lambda_max=hi, grid_size=grid_size)
    return _fit_one(cache, ensemble_sizes, opts).curve.replicate(0)


def prepare_cache(ds: DetectionDataset) -> SpectralCache:
    """Decompose a dataset once for the lambda search.

    Its S, else its control runs, go to ``build_cache``, which picks the
    decomposition; the cache's tau_bar equals ``ds.tau_bar``. Nothing is
    validated here: the search rejects tr(S)/N <= 0 (``_check_bounds``).
    """
    return build_cache(ds.sample_cov or ds.control_runs, ds.x_tilde, ds.y)


def fit_optimal(ds: DetectionDataset, options: FitOptions | None = None) -> inference.FitResult:
    """End-to-end fit: cache, lambda search, covariance, intervals, verdicts.

    ``fit_stack`` on a stack of one; the FitResult and its verdicts are
    formed from row 0. Raises DimensionMismatch when tr(S)/N <= 0 and
    NoFeasiblePoint when the search fails everywhere.
    """
    return _fit_one(prepare_cache(ds), ds.ensemble_sizes, options).row(0)


def _fit_one(cache: SpectralCache, ensemble_sizes, options: FitOptions | None) -> inference.StackedFit:
    """``fit_stack`` on ``cache`` as a stack of one; NoFeasiblePoint when its row is not feasible."""
    stack = replace(cache, **{name: np.asarray(getattr(cache, name))[None] for name in STACKED})
    fit = fit_stack(stack, ensemble_sizes, options)
    if not fit.feasible[0]:
        raise NoFeasiblePoint(NO_FEASIBLE)
    return fit


def fit_stack(stack: SpectralCache, ensemble_sizes, options: FitOptions | None = None) -> inference.StackedFit:
    """Fit the replicates of a stacked cache in a single stacked pass.

    This is the only fit path: ``fit_optimal`` and ``select_lambda`` are its
    stack of one. ``stack`` comes from ``build_cache`` on stacked inputs.
    The result is one ``inference.StackedFit``: arrays over the R
    replicates of lambda_opt, beta_hat, Xi_hat and the intervals, a
    ``feasible`` mask (False, with a NaN row, where none of a replicate's
    grid points is usable) and the stacked curve. Each replicate's search
    bounds (the options' where given, else ``default_bounds`` at its
    tau_bar) give its own row of the (R, G) grid; ``evaluate_grid``, the
    first minima and the intervals then run once on the stack. Any other
    error raises for the whole stack, as a bad bound or tr(S)/N <= 0 of one
    replicate does; which replicate caused it is the caller's to find out
    (``simulate.run_scenario``, which fits a pass of several decomposed
    blocks per call, refits such a pass one replicate at a time).
    """
    opts = options or FitOptions()
    lo, hi = default_bounds(stack.tau_bar)
    if opts.lambda_min is not None:
        lo = np.full_like(stack.tau_bar, opts.lambda_min)
    if opts.lambda_max is not None:
        hi = np.full_like(stack.tau_bar, opts.lambda_max)
    _check_bounds(lo, hi, stack.n_dim, stack.tau_bar)
    grid = np.geomspace(lo, hi, opts.grid_size, axis=-1)
    return inference.build_fit_result(evaluate_grid(stack, ensemble_sizes, grid), stack.n_dim, opts.alpha)
