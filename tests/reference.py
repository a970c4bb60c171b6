"""Slow references for the stacked lambda grid and the streamed matrix reader.

The grid evaluation written one lambda at a time, with exceptions as control
flow and every functional recomputed where it is used. It shares no code
with the library's stacked implementation, so differential tests compare the
two point by point.

``reference_read_matrix`` reads a text matrix file whole, as one string, and
decides its delimiter from every row at once; ``io.read_matrix`` streams it.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from finprint.errors import SchemaError

DEGENERATE_TOL = 1e-12
VERTICAL_TOL = 1e-10
RCOND_TOL = 1e-10


class _Infeasible(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _denominator(cache, lam):
    """u = tr(S W^-1)/N and b = 1 - (N/m) u, u the mean of theta2's a = d * 1/(d + lam).

    Summed over the a, u keeps its digits at lam far above the eigenvalues,
    where one minus lam times the mean of 1/(d + lam) is a difference of two
    numbers near 1. At m < N, b is a cancellation that Delta1 and
    theta2 ~ 1/b^4 amplify: an a formed as d/(d + lam), one ulp off, moved
    Xi by 3e-10 on a drawn case, so the a are formed as the grid forms them.
    """
    u = float(np.mean(cache.eigvals * (1.0 / (cache.eigvals + lam))))
    return u, 1.0 - (cache.n_dim / cache.m_runs) * u


def trace_functionals(cache, lams):
    """Q1 = tr(W^-1)/N and Q2 = tr(W^-2)/N, W = S + lambda*I, at each lambda.

    Summed over the cache's eigenvalues and its ``null_dim`` zero
    eigenvalues, whose weights are 1/lambda and 1/lambda^2. The grid itself
    forms neither: they are the trace oracles of the Sigma = I checks. A
    stacked cache takes an (R, G) grid and gives (R, G) arrays.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    w = 1.0 / (cache.eigvals[..., None, :] + lams[..., :, None])
    q1 = (w.sum(axis=-1) + cache.null_dim / lams) / cache.n_dim
    q2 = ((w * w).sum(axis=-1) + cache.null_dim / lams**2) / cache.n_dim
    return q1, q2


def _functionals(cache, lam):
    w = 1.0 / (cache.eigvals + lam)
    u, b = _denominator(cache, lam)
    if abs(b) <= DEGENERATE_TOL:
        raise _Infeasible("degenerate_denominator")
    v = cache.proj_x
    g1 = (v.T * w) @ v / cache.n_dim
    # G_S = X~^T W^-1 S W^-1 X~ / N, which is g1 - lam * X~^T W^-2 X~ / N, with
    # the weights d/(d + lam)^2 instead: at lam far above the eigenvalues the
    # two terms of the difference agree to more digits than a double holds,
    # and at m << N the zero eigenvalues give both terms 1/lam each, so at
    # the default floor g1 can outweigh G_S a million times.
    g_s = (v.T * (cache.eigvals * w**2)) @ v / cache.n_dim
    # theta2 = (u b - lam (Q1 - lam Q2)) / b^4 has the numerator
    # (1/N) [sum a^2 - (sum a)^2 / m], a = d/(d + lam), whose two terms
    # cancel exactly at m = 1. Written without cancellation through the
    # pairwise identity sum a^2 - (sum a)^2 / r = (1/r) sum_{i<j} (a_i - a_j)^2
    # over the r nonzero a.
    a = (cache.eigvals * w)[cache.eigvals > 0.0]
    r = max(a.size, 1)
    pairs = 0.5 * np.sum((a[:, None] - a[None, :]) ** 2) / r
    theta2_num = (pairs + (1.0 / r - 1.0 / cache.m_runs) * a.sum() ** 2) / cache.n_dim
    return {
        "theta1": u / b,
        "theta2": theta2_num / b**4,
        "g1": 0.5 * g1 + 0.5 * g1.T,
        "g_s": 0.5 * g_s + 0.5 * g_s.T,
    }


def _augmented_gram(cache, sizes, lam):
    """The data Gram sum_i w_i a_i a_i^T, symmetrized, then scaled by (sqrt(n), 1) on both sides.

    Formed in the order the grid forms it: on exactly tied (diagonal) Gram
    matrices both sides then hold the same doubles, and the tie breaks the
    same way; near float64's largest value both overflow at the same points.
    """
    w = 1.0 / (cache.eigvals + lam)
    a = np.column_stack([cache.proj_x, cache.proj_y])
    scale = np.append(np.sqrt(sizes), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.tensordot(w, a[:, :, None] * a[:, None, :], axes=1)
        return (0.5 * m + 0.5 * m.T) * np.outer(scale, scale)


def _tls(m, sizes):
    eigvals, eigvecs = np.linalg.eigh(m)
    v = eigvecs[:, 0]
    gap = float(eigvals[1] - eigvals[0])
    # The mean diagonal, each term divided first: the trace itself may overflow.
    near_tied = gap < 1e-8 * np.sum(np.diag(m) / m.shape[0])
    if abs(v[-1]) < VERTICAL_TOL * np.linalg.norm(v):
        return None, near_tied
    return np.sqrt(sizes) * (-v[:-1] / v[-1]), near_tied


def reference_point(cache, ensemble_sizes, lam: float) -> dict:
    """Everything the grid reports at one lambda, computed the slow way."""
    sizes = np.asarray(ensemble_sizes, dtype=float)
    p = cache.proj_x.shape[1]
    d = 1.0 / sizes
    out = {
        "stability": _denominator(cache, lam)[1],
        "beta_hat": np.full(p, np.nan),
        "xi_hat": np.full((p, p), np.nan),
        "k_hat": np.nan,
        "near_tied": False,
    }
    try:
        m = _augmented_gram(cache, sizes, lam)
        if not np.isfinite(m).all():
            raise _Infeasible("nonfinite_gram")
        f = _functionals(cache, lam)
        # A vertical point still reports whether its minimum is nearly tied.
        beta, out["near_tied"] = _tls(m, sizes)
        if beta is None:
            raise _Infeasible("vertical_solution")
        d1 = f["g1"] - f["theta1"] * np.diag(d)
        d1 = 0.5 * d1 + 0.5 * d1.T
        scale = np.linalg.norm(f["g1"], 2) + abs(f["theta1"]) * d.max()
        svals = np.linalg.svd(d1, compute_uv=False)
        if svals[-1] < RCOND_TOL * scale:
            raise _Infeasible("singular_delta1")
        if svals[0] <= 0.0 or svals[-1] / svals[0] < RCOND_TOL:
            raise _Infeasible("singular_delta1")
        k = f["theta2"]
        d1_inv = np.linalg.inv(d1)
        factor = 1.0 + float(beta @ (d * beta))
        db = d * beta
        # Huge data at small b overflow Delta2 or Xi; such a point reads nonfinite_variance.
        with np.errstate(over="ignore", invalid="ignore"):
            scale2 = (1.0 + (cache.n_dim / cache.m_runs) * f["theta1"]) ** 2
            d2 = scale2 * f["g_s"] - f["theta2"] * np.diag(d)
            d2 = 0.5 * d2 + 0.5 * d2.T
            middle = d2 + k * (np.diag(d) - np.outer(db, db) / factor)
            xi = factor * d1_inv @ middle @ d1_inv
            xi = 0.5 * xi + 0.5 * xi.T
    except _Infeasible as exc:
        out["reason"] = exc.reason
        return out
    out.update(beta_hat=beta, xi_hat=xi, k_hat=k)
    if not (np.diag(xi) > 0.0).all():
        out["reason"] = "nonpositive_variance"
    else:
        with np.errstate(over="ignore"):
            out["reason"] = None if np.isfinite(np.trace(xi)) else "nonfinite_variance"
    return out


def reference_objective(point: dict) -> float:
    if point["reason"] is not None:
        return np.inf
    return float(np.trace(point["xi_hat"]))


def reference_curve(cache, ensemble_sizes, grid):
    """Per-point results, objective values and first-minimum index over a grid."""
    points = [reference_point(cache, ensemble_sizes, lam) for lam in grid]
    values = np.array([reference_objective(pt) for pt in points])
    chosen = int(np.argmin(values)) if np.isfinite(values).any() else None
    return points, values, chosen


def reference_read_matrix(path) -> np.ndarray:
    """A text matrix file read whole: a comma delimiter if any data row has one before '#'."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        text = "\n".join(lines)
        if not re.search(r"^[^\S\n]*[^#\s]", text, re.MULTILINE):
            raise SchemaError("no data rows")
        delimiter = "," if "," in text and re.search(r"^[^#,\n]*,", text, re.MULTILINE) else None
        return np.loadtxt(lines, comments="#", delimiter=delimiter, ndmin=2)
    except (ValueError, SchemaError) as exc:  # UnicodeDecodeError is a ValueError
        raise SchemaError(f"{path}: not a numeric matrix file ({exc})") from exc
