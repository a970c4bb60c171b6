"""Closed forms for stacks of small symmetric matrices.

The lambda grid works on stacks of p x p and (p+1) x (p+1) symmetric
matrices, one per grid point and replicate, with p the number of forcings.
On matrices this small LAPACK spends its time in per-matrix overhead, so
for p = 2 the grid's 2x2 and 3x3 algebra is computed here elementwise over
the stack:

- eigenvalues of a 2x2: h -/+ hypot((a - c)/2, b) with h = (a + c)/2;
- inverse of a 2x2: the adjugate of the matrix divided by its largest
  |entry|, so the determinant neither under- nor overflows;
- smallest eigenpair of a PSD 3x3 (Smith 1961): the eigenvalues of the
  matrix divided by its largest entry (a diagonal one, the matrix being
  PSD) from the trigonometric root of the
  characteristic cubic; the eigenvector as the longest column of the
  adjugate of M - mu*I (the longest cross product of two of its rows),
  taken again at the Rayleigh quotient of the first one, since the cubic's
  root loses accuracy as the two smallest eigenvalues approach each other.

Every other size keeps LAPACK. So do eigenpair rows whose two smallest
eigenvalues are within ``tie_tol`` of each other relative to the mean
diagonal, or whose closed form is not finite: those rows go to
``np.linalg.eigh`` together, as one sub-stack.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RCOND_TOL", "eigvalsh", "singular_values", "ill_conditioned", "inv", "smallest_eigenpair"]

# Reciprocal condition number below which a matrix is treated as singular.
RCOND_TOL = 1e-10

_THIRD_TURN = 2.0 * np.pi / 3.0


def eigvalsh(a) -> np.ndarray:
    """Ascending eigenvalues of a stack of symmetric matrices (..., k, k).

    A 2x2 with a non-finite entry gets non-finite eigenvalues without a
    warning, as LAPACK gives it.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 2:
        return np.linalg.eigvalsh(a)
    a00, a01, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
    with np.errstate(invalid="ignore", over="ignore"):
        h = 0.5 * a00 + 0.5 * a11
        r = np.hypot(0.5 * a00 - 0.5 * a11, a01)
        return np.stack([h - r, h + r], axis=-1)


def singular_values(a) -> np.ndarray:
    """Descending singular values of a stack of symmetric matrices: the sorted |eigenvalues|."""
    return np.sort(np.abs(eigvalsh(a)), axis=-1)[..., ::-1]


def ill_conditioned(svals: np.ndarray) -> np.ndarray:
    """Reciprocal condition below RCOND_TOL, from descending singular values."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (svals[..., 0] <= 0.0) | (svals[..., -1] / svals[..., 0] < RCOND_TOL)


def inv(a) -> np.ndarray:
    """Inverse of every matrix of a stack (..., k, k).

    A matrix the adjugate cannot invert (a zero or non-finite determinant)
    goes to ``np.linalg.inv``, which raises LinAlgError on a singular one.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 2:
        return np.linalg.inv(a)
    scale = np.abs(a).max(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = a / scale[..., None, None]
        det = b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]
        ok = np.isfinite(det) & (det != 0.0)
        f = 1.0 / np.where(ok, det * scale, 1.0)
    out = np.empty_like(a)
    out[..., 0, 0] = b[..., 1, 1] * f
    out[..., 1, 1] = b[..., 0, 0] * f
    out[..., 0, 1] = -b[..., 0, 1] * f
    out[..., 1, 0] = -b[..., 1, 0] * f
    if not ok.all():
        out[~ok] = np.linalg.inv(a[~ok])
    return out


def _adjugate_column(b00, b01, b02, b11, b12, b22, mu):
    """Longest column of adj(B - mu*I), the null vector of B - mu*I when mu is an eigenvalue."""
    e00, e11, e22 = b00 - mu, b11 - mu, b22 - mu
    c00 = e11 * e22 - b12 * b12
    c11 = e00 * e22 - b02 * b02
    c22 = e00 * e11 - b01 * b01
    c01 = b02 * b12 - b01 * e22
    c02 = b01 * b12 - b02 * e11
    c12 = b01 * b02 - e00 * b12
    n0 = c00 * c00 + c01 * c01 + c02 * c02
    n1 = c01 * c01 + c11 * c11 + c12 * c12
    n2 = c02 * c02 + c12 * c12 + c22 * c22
    first, second = (n0 >= n1) & (n0 >= n2), n1 >= n2
    return (
        np.where(first, c00, np.where(second, c01, c02)),
        np.where(first, c01, np.where(second, c11, c12)),
        np.where(first, c02, np.where(second, c12, c22)),
    )


def _pair3(b: np.ndarray):
    """Eigenvalues and smallest eigenvector of a stack of 3x3 symmetric matrices."""
    b00, b11, b22 = b[..., 0, 0], b[..., 1, 1], b[..., 2, 2]
    b01, b02, b12 = b[..., 0, 1], b[..., 0, 2], b[..., 1, 2]
    q = (b00 + b11 + b22) / 3.0
    e00, e11, e22 = b00 - q, b11 - q, b22 - q
    pp = np.sqrt((e00 * e00 + e11 * e11 + e22 * e22 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
    det = e00 * (e11 * e22 - b12 * b12) - b01 * (b01 * e22 - b12 * b02) + b02 * (b01 * b12 - e11 * b02)
    phi = np.arccos(np.clip(0.5 * det / pp**3, -1.0, 1.0)) / 3.0
    lo = q + 2.0 * pp * np.cos(phi + _THIRD_TURN)
    entries = (b00, b01, b02, b11, b12, b22)
    # One Rayleigh-quotient step: its error is quadratic in the first
    # vector's, which carries the cubic root's error over the gap.
    v0, v1, v2 = _adjugate_column(*entries, lo)
    quad = b00 * v0 * v0 + b11 * v1 * v1 + b22 * v2 * v2 + 2.0 * (b01 * v0 * v1 + b02 * v0 * v2 + b12 * v1 * v2)
    mu = quad / (v0 * v0 + v1 * v1 + v2 * v2)
    vals = np.stack([mu, q + 2.0 * pp * np.cos(phi - _THIRD_TURN), q + 2.0 * pp * np.cos(phi)], axis=-1)
    return vals, np.stack(_adjugate_column(*entries, mu), axis=-1), q


def smallest_eigenpair(m, tie_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and a smallest eigenvector of a stack of PSD matrices (..., k, k).

    The eigenvector has an arbitrary sign and norm. k = 3 is solved in
    closed form on the stack divided by each matrix's largest |entry| (a
    diagonal one); a row whose smallest gap is at most ``tie_tol`` times
    its mean diagonal, or whose closed form is not finite, and every other
    k, take ``np.linalg.eigh`` (whose LinAlgError propagates).
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-1] != 3:
        vals, vecs = np.linalg.eigh(m)
        return vals, vecs[..., 0]
    # On a PSD matrix the largest |entry| is on the diagonal.
    scale = np.diagonal(m, axis1=-2, axis2=-1).max(axis=-1)
    with np.errstate(all="ignore"):
        vals, v, mean_diag = _pair3(m / scale[..., None, None])
        separated = vals[..., 1] - vals[..., 0] > tie_tol * mean_diag
        lapack = ~(separated & np.isfinite(vals.sum(axis=-1) + v.sum(axis=-1)))
        vals *= scale[..., None]
    if lapack.any():
        sub_vals, sub_vecs = np.linalg.eigh(m[lapack])
        vals[lapack] = sub_vals
        v[lapack] = sub_vecs[..., 0]
    return vals, v
