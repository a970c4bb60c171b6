"""Slow per-lambda reference for the stacked lambda grid.

The grid evaluation written one lambda at a time, with exceptions as control
flow and every functional recomputed where it is used. It shares no code
with the library's stacked implementation, so differential tests compare the
two point by point.
"""

from __future__ import annotations

import numpy as np

DEGENERATE_TOL = 1e-12
VERTICAL_TOL = 1e-10
RCOND_TOL = 1e-10


class _Infeasible(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _functionals(cache, lam):
    w = 1.0 / (cache.eigvals + lam)
    q1 = float(np.mean(w))
    q2 = float(np.mean(w**2))
    u = 1.0 - lam * q1
    b = 1.0 - (cache.n_dim / cache.m_runs) * u
    if abs(b) <= DEGENERATE_TOL:
        raise _Infeasible("degenerate_denominator")
    v = cache.proj_x
    g1 = (v.T * w) @ v / cache.n_dim
    g2 = (v.T * w**2) @ v / cache.n_dim
    return {
        "theta1": u / b,
        "theta2": u / b**3 - lam * (q1 - lam * q2) / b**4,
        "g1": 0.5 * (g1 + g1.T),
        "g2": 0.5 * (g2 + g2.T),
    }


def _tls(cache, sizes, lam):
    w = 1.0 / (cache.eigvals + lam)
    p = np.column_stack([cache.proj_x * np.sqrt(sizes), cache.proj_y])
    m = (p.T * w) @ p
    m = 0.5 * (m + m.T)
    eigvals, eigvecs = np.linalg.eigh(m)
    v = eigvecs[:, 0]
    gap = float(eigvals[1] - eigvals[0])
    near_tied = gap < 1e-8 * np.trace(m) / m.shape[0]
    if abs(v[-1]) < VERTICAL_TOL * np.linalg.norm(v):
        raise _Infeasible("vertical_solution")
    return np.sqrt(sizes) * (-v[:-1] / v[-1]), near_tied


def reference_point(cache, ensemble_sizes, lam: float) -> dict:
    """Everything the grid reports at one lambda, computed the slow way."""
    sizes = np.asarray(ensemble_sizes, dtype=float)
    p = cache.proj_x.shape[1]
    d = 1.0 / sizes
    q1 = float(np.mean(1.0 / (cache.eigvals + lam)))
    out = {
        "stability": 1.0 - (cache.n_dim / cache.m_runs) * (1.0 - lam * q1),
        "beta_hat": np.full(p, np.nan),
        "xi_hat": np.full((p, p), np.nan),
        "k_hat": np.nan,
        "near_tied": False,
    }
    try:
        f = _functionals(cache, lam)
        beta, out["near_tied"] = _tls(cache, sizes, lam)
        d1 = f["g1"] - f["theta1"] * np.diag(d)
        d1 = 0.5 * (d1 + d1.T)
        scale = np.linalg.norm(f["g1"], 2) + abs(f["theta1"]) * d.max()
        svals = np.linalg.svd(d1, compute_uv=False)
        if svals[-1] < RCOND_TOL * scale:
            raise _Infeasible("singular_delta1")
        if svals[0] <= 0.0 or svals[-1] / svals[0] < RCOND_TOL:
            raise _Infeasible("singular_delta1")
        scale2 = (1.0 + (cache.n_dim / cache.m_runs) * f["theta1"]) ** 2
        d2 = scale2 * (f["g1"] - lam * f["g2"]) - f["theta2"] * np.diag(d)
        d2 = 0.5 * (d2 + d2.T)
        k = f["theta2"]
        d1_inv = np.linalg.inv(d1)
        factor = 1.0 + float(beta @ (d * beta))
        db = d * beta
        middle = d2 + k * (np.diag(d) - np.outer(db, db) / factor)
        xi = factor * d1_inv @ middle @ d1_inv
        xi = 0.5 * (xi + xi.T)
    except _Infeasible as exc:
        out["reason"] = exc.reason
        return out
    out.update(beta_hat=beta, xi_hat=xi, k_hat=k)
    out["reason"] = None if (np.diag(xi) > 0.0).all() else "nonpositive_variance"
    return out


def reference_objective(point: dict, kind: str) -> float:
    if point["reason"] is not None:
        return np.inf
    xi = point["xi_hat"]
    if kind == "trace":
        return float(np.trace(xi))
    if kind == "determinant":
        return float(np.linalg.det(xi))
    return float(np.linalg.eigvalsh(xi)[-1])


def reference_curve(cache, ensemble_sizes, grid, kind: str = "trace"):
    """Per-point results, objective values and first-minimum index over a grid."""
    points = [reference_point(cache, ensemble_sizes, lam) for lam in grid]
    values = np.array([reference_objective(pt, kind) for pt in points])
    chosen = int(np.argmin(values)) if np.isfinite(values).any() else None
    return points, values, chosen
