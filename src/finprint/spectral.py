"""Spectral cache and the trace/quadratic functionals of the shrunk covariance.

All quantities the estimator needs at a given regularization level are
functions of the eigendecomposition of the sample covariance S and of the
data projected onto its eigenbasis. The decomposition is done once: an eigh
of S, or for N x m control runs Z with m < N the thin SVD of Z, whose m left
singular vectors span the range of S = Z Z^T/m; the N - m directions it does
not compute have eigenvalue 0 and form a null block (its dimension and the
Gram matrix of the data's residual). A grid of G lambdas is then evaluated
in one pass of stacked array operations on the G x (k+1) weight matrix
1/(d_i + lambda) of the k computed eigenvalues and the null block, at
O(G k p^2); one lambda is a grid of one. S + lambda*I is never formed.
Caches of equal shape stack along a leading replicate axis: ``build_cache``
decomposes a stack of replicates in one batched call, and the grid
functions broadcast over that axis, with an (R, G) lambda grid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

# Called as dataset.compute_sample_covariance, so perfbench's tracer sees it.
from . import dataset
from ._symmetric import symmetrize
from .dataset import SampleCovariance, runs_tau_bar
from .errors import DimensionMismatch, EigenFailure, NonFinite, NotPSD, OutOfDomain

__all__ = [
    "SpectralCache",
    "RmtFunctionals",
    "build_cache",
    "rmt_grid",
    "stack_size",
]

# Denominators b = 1 - (N/m) u, u = (1/N) sum d_i/(d_i + lambda), smaller
# than this are treated as degenerate; b -> 0 as lambda -> 0 whenever m < N.
DEGENERATE_TOL = 1e-12

# Doubles in the R x G x (k+1) weight stack of one grid slice (512 KB). A
# slice keeps a few arrays of that size alive, so this caps the replicates
# per slice (``stack_size``), and simulate sizes its blocks and passes from
# it: more would grow the peak memory without making a replicate cheaper.
STACK_ELEMENTS = 2**16


@dataclass(frozen=True)
class SpectralCache:
    """Eigendecomposition of S plus the data expressed in its eigenbasis.

    ``eigvals`` (k of them) are ascending and clamped to >= 0: all N from
    an eigh of S, min(N, m) from control runs. ``proj_x`` and ``proj_y``
    are the data rotated onto their eigenvectors U, which are not kept. The
    other N - k = ``null_dim`` directions, which the thin SVD does not
    compute, have eigenvalue 0; the data enter there only through
    ``null_gram``, the (p+1) x (p+1) Gram matrix R^T R of the residual
    R = A - U U^T A of A = [x_tilde, y]; zero after an eigh of S.

    A stack of R caches carries a leading replicate axis on ``eigvals``,
    ``proj_x``, ``proj_y``, ``null_gram`` and ``tau_bar`` (``STACKED``).
    """

    eigvals: np.ndarray
    proj_x: np.ndarray
    proj_y: np.ndarray
    null_dim: int
    null_gram: np.ndarray
    n_dim: int
    m_runs: int
    tau_bar: float


# The fields of a SpectralCache that carry a stack's leading replicate axis.
STACKED = ("eigvals", "proj_x", "proj_y", "null_gram", "tau_bar")


@dataclass(frozen=True)
class RmtFunctionals:
    """Trace/quadratic functionals of the shrunk covariance W = S + lambda*I.

    Stacked over a grid by ``rmt_grid``: G-vectors, with g1 and g_s of shape
    (G, p, p) and the data Gram ``gram`` (G, p+1, p+1), and (R, G, ...) from
    a stack of R caches. See ``rmt_grid`` for the forms.
    ``stability`` is the denominator b = 1 - (N/m) u (see DEGENERATE_TOL);
    theta1 and theta2 are NaN where |b| <= DEGENERATE_TOL.
    """

    lam: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    gram: np.ndarray
    g1: np.ndarray
    g_s: np.ndarray
    stability: np.ndarray


def build_cache(cov: SampleCovariance | np.ndarray, x_tilde, y) -> SpectralCache:
    """Decompose S once and project the data onto its eigenbasis.

    ``cov`` is a SampleCovariance or the N x m control runs Z, and the
    route is chosen here: S, supplied or formed from Z with m >= N, is
    eigendecomposed (O(N^3) time, O(N^2) memory); Z with m < N gives the
    eigenpairs of S = Z Z^T/m by its thin SVD without forming S (O(N m^2)
    time, O(N m) memory). tau_bar is tr(S)/N of a supplied S, else
    ``runs_tau_bar(Z)`` on both routes: the dataset's ``tau_bar`` bit for
    bit. Eigenvalues below 1e-10 * tau_bar are clamped to zero. Raises
    NonFinite when an entry of S or tau_bar is not finite (an overflow of
    float64, checked before any decomposition), NotPSD when S has an
    eigenvalue below -1e-10 * tau_bar (below 0 when tau_bar <= 0, which the
    lambda search rejects), EigenFailure if the decomposition does not
    converge and DimensionMismatch on bad shapes.

    A stack of R replicates, Z of shape (R, N, m) with x_tilde (R, N, p)
    and y (R, N), is decomposed in one batched call and gives the stacked
    cache: row r equals the cache of replicate r on its own, bit for bit,
    and tau_bar is an R-vector. The stack raises when any replicate would.
    """
    if isinstance(cov, SampleCovariance):
        tau_bar, cause = cov.tau_bar, "the trace of the supplied S overflows"
        s, (n, m) = cov.s, (cov.n_dim, cov.m)
    else:
        z = np.asarray(cov, dtype=float)
        if z.ndim not in (2, 3) or z.shape[-1] < 1:
            raise DimensionMismatch(f"control runs must be N x m with m >= 1, or a stack of them, got {z.shape}")
        n, m = z.shape[-2:]
        tau_bar = runs_tau_bar(z) if z.ndim == 2 else np.array([runs_tau_bar(runs) for runs in z])
        s, cause = None, "the runs' sum of squares is NaN or overflows"
        if m >= n:
            # A stack goes through the same formula as one replicate, in one pass.
            s = dataset.compute_sample_covariance(z).s if z.ndim == 2 else dataset.runs_product(z)
    if not np.isfinite(tau_bar).all():
        raise NonFinite(f"tr(S)/N = {np.max(tau_bar)} is not finite: {cause}")
    lead = np.shape(tau_bar)
    x_tilde = np.asarray(x_tilde, dtype=float)
    y = np.asarray(y, dtype=float)
    if x_tilde.ndim != len(lead) + 2 or x_tilde.shape[:-1] != (*lead, n):
        rows = " x ".join(str(size) for size in (*lead, n))
        raise DimensionMismatch(f"x_tilde must be {rows} x p, got {x_tilde.shape}")
    if y.shape != (*lead, n):
        raise DimensionMismatch(f"y must have shape {(*lead, n)}, got {y.shape}")

    try:
        if s is not None:
            eigvals, eigvecs = np.linalg.eigh(s)
        else:
            left, svals, _ = np.linalg.svd(z, full_matrices=False)
            eigvals, eigvecs = svals[..., ::-1] ** 2 / m, left[..., ::-1]
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"spectral decomposition failed: {exc}") from exc
    # Round-off eigenvalues (either sign) below 1e-10 * tau_bar are exact
    # zeros of the rank-deficient S; an S with an eigenvalue further below
    # zero is not a covariance. Singular values cannot go negative.
    floor = 1e-10 * np.maximum(tau_bar, 0.0)
    lowest = eigvals.min(axis=-1, initial=0.0)
    below = lowest < -floor
    if below.any():
        raise NotPSD(
            f"sample covariance is not positive semidefinite: eigenvalue {lowest[below].min():.3g} "
            "below -1e-10 * tau_bar"
        )
    eigvals = np.where(eigvals < floor[..., None], 0.0, eigvals)
    data = np.concatenate([x_tilde, y[..., None]], axis=-1)
    # The data enter the directions the SVD does not compute only through
    # their residual off the computed eigenvectors; an eigh computes all N.
    # Data near float64's largest value overflow here; the grid reads nonfinite_gram.
    k = eigvals.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        proj = eigvecs.swapaxes(-1, -2) @ data
        resid = data - eigvecs @ proj if k < n else data[..., :0, :]
        null_gram = resid.swapaxes(-1, -2) @ resid
    return SpectralCache(
        eigvals=eigvals,
        proj_x=proj[..., :-1],
        proj_y=proj[..., -1],
        null_dim=n - k,
        null_gram=symmetrize(null_gram),
        n_dim=n,
        m_runs=m,
        tau_bar=tau_bar,
    )


def stack_size(rank: int, grid_size: int) -> int:
    """Replicates per stack of caches of ``rank`` eigenvalues: as many as fit STACK_ELEMENTS
    weights of grid_size x (rank+1) each, and at least one."""
    return max(1, STACK_ELEMENTS // (grid_size * (rank + 1)))


def _check_lambda(cache: SpectralCache, lam) -> np.ndarray:
    """Regularization levels as a float array of the cache's stack shape + (G,); each must be positive."""
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if lams.shape[:-1] != cache.eigvals.shape[:-1]:
        raise DimensionMismatch(
            f"lambda grid of shape {lams.shape} does not fit a cache stack of {cache.eigvals.shape[:-1]}"
        )
    if not (lams > 0.0).all():
        raise OutOfDomain(f"lambda must be positive, got {lam}")
    return lams


def _spectrum(cache: SpectralCache) -> np.ndarray:
    """The k computed eigenvalues followed by the null block's 0, as (..., k+1)."""
    d = cache.eigvals
    return np.concatenate([d, np.zeros(d.shape[:-1] + (1,))], axis=-1)


def weights(cache: SpectralCache, lams: np.ndarray) -> np.ndarray:
    """(..., G, k+1) stack of shrunk inverse eigenvalues 1/(d_i + lambda_g).

    The last column is the null block's weight 1/lambda_g (eigenvalue 0).
    """
    w = _spectrum(cache)[..., None, :] + lams[..., :, None]
    return np.divide(1.0, w, out=w)


def weighted_gram(w: np.ndarray, a: np.ndarray, null_gram: np.ndarray) -> np.ndarray:
    """Symmetric sum_i w[..., g, i] a_i a_i^T + w[..., g, -1] * null_gram for every row g, as (..., G, k, k).

    ``a`` has one row per computed eigenpair (..., n, k); the null block
    enters through its residual Gram matrix (..., k, k).
    """
    *lead, n, k = a.shape
    outer = (a[..., :, :, None] * a[..., None, :]).reshape(*lead, n, k * k)
    terms = np.concatenate([outer, null_gram.reshape(*lead, 1, k * k)], axis=-2)
    return symmetrize((w @ terms).reshape(*w.shape[:-1], k, k))


def rmt_grid(cache: SpectralCache, lams) -> RmtFunctionals:
    """Every functional the covariance assembly needs, at each lambda of a grid.

    With a_i = d_i/(d_i + lambda): u = (1/N) sum a_i = tr(S W^-1)/N,
    b = 1 - (N/m) u, theta1 = u/b, theta2 = (1/N) [sum a_i^2 - (sum a_i)^2/m]
    / b^4 (the u/b^3 - lambda*(Q1 - lambda*Q2)/b^4 of Q1 = tr(W^-1)/N and
    Q2 = tr(W^-2)/N, which are not formed), and the symmetric PSD forms
    gram = A^T W^-1 A of the data A = [X~, y], its block
    g1 = X~^T W^-1 X~ / N and g_s = X~^T W^-1 S W^-1 X~ / N, W = S + lambda*I.
    The sums run over all N eigenvalues: the null block adds its residual
    Gram matrix over lambda to gram and nothing to the sums of a_i or to
    g_s. A degenerate denominator gives NaN thetas, not an exception. A
    stacked cache takes an (R, G) grid and gives every functional a leading
    replicate axis; it is evaluated ``stack_size`` replicates at a time, so
    no weight stack exceeds STACK_ELEMENTS doubles however large it is.
    """
    lams = _check_lambda(cache, lams)
    rows = stack_size(cache.eigvals.shape[-1], lams.shape[-1])
    if lams.ndim > 1 and len(lams) > rows:
        parts = [
            rmt_grid(replace(cache, **{f: getattr(cache, f)[i : i + rows] for f in STACKED}), lams[i : i + rows])
            for i in range(0, len(lams), rows)
        ]
        names = [f.name for f in fields(RmtFunctionals)]
        return RmtFunctionals(**{name: np.concatenate([getattr(part, name) for part in parts]) for name in names})
    # Two (..., G, k+1) buffers: w, which then holds the g_s weights, and
    # the a_i, which then hold the terms of their spread.
    w = weights(cache, lams)
    p = cache.proj_x.shape[-1]
    data = np.concatenate([cache.proj_x, cache.proj_y[..., None]], axis=-1)
    gram = weighted_gram(w, data, cache.null_gram)
    # The a_i are 0 on zero eigenvalues and the null block, so u is a sum of
    # nonnegative terms that keeps its digits far above tau_bar. theta2's
    # numerator, written with Q1 and Q2, is a difference of terms of size
    # u/b^3 that cancel exactly when m = 1; as the spread of the r nonzero
    # a_i about their mean plus (1/r - 1/m)(sum a_i)^2, nothing cancels
    # when r <= m.
    d = _spectrum(cache)[..., None, :]
    a = d * w
    nonzero = d > 0.0
    r = np.maximum(np.count_nonzero(nonzero, axis=-1), 1)
    total = a.sum(axis=-1)
    u = total / cache.n_dim
    b = 1.0 - (cache.n_dim / cache.m_runs) * u
    # Weights d_i/(d_i + lambda)^2: W^-1 - lambda*W^-2 without the
    # cancellation of its two terms on the zero eigenvalues.
    g_s = weighted_gram(np.multiply(a, w, out=w), cache.proj_x, cache.null_gram[..., :p, :p]) / cache.n_dim
    a -= (total / r)[..., None]
    a *= nonzero
    spread = np.square(a, out=a).sum(axis=-1)
    theta2_num = (spread + (1.0 / r - 1.0 / cache.m_runs) * total**2) / cache.n_dim
    usable_b = np.where(np.abs(b) > DEGENERATE_TOL, b, np.nan)
    return RmtFunctionals(
        lam=lams,
        theta1=u / usable_b,
        theta2=theta2_num / usable_b**4,
        gram=gram,
        g1=gram[..., :p, :p] / cache.n_dim,
        g_s=g_s,
        stability=b,
    )
