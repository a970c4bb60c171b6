"""Regression-problem instances and the sample covariance of control runs.

A detection dataset bundles the observed climate vector, the ensemble-mean
fingerprints of the external forcings, the ensemble sizes, and the control
runs used to estimate internal variability. Control runs are assumed to be
centered (and detrended, if needed) upstream; no centering happens here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite, OutOfDomain

__all__ = [
    "DetectionDataset",
    "SampleCovariance",
    "compute_sample_covariance",
    "ensemble_mean",
    "runs_tau_bar",
    "validate_dataset",
]

# Norm below which a fingerprint column is flagged as effectively zero.
ZERO_FINGERPRINT_TOL = 1e-12


def _as_float_array(a, name: str, ndim: int) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-dimensional, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise NonFinite(f"{name} contains NaN or infinite entries")
    return out


@dataclass(frozen=True)
class SampleCovariance:
    """Sample covariance S of the control runs together with the run count m."""

    s: np.ndarray
    m: int

    def __post_init__(self):
        s = _as_float_array(self.s, "s", 2)
        if s.shape[0] != s.shape[1]:
            raise DimensionMismatch(f"covariance must be square, got {s.shape}")
        if self.m < 1:
            raise OutOfDomain(f"m must be >= 1, got {self.m}")
        object.__setattr__(self, "s", 0.5 * (s + s.T))

    @property
    def n_dim(self) -> int:
        return self.s.shape[0]

    @property
    def tau_bar(self) -> float:
        """Average eigenvalue tr(S)/N; sets the regularization search scale."""
        return float(np.trace(self.s)) / self.n_dim


@dataclass(frozen=True)
class DetectionDataset:
    """One fingerprinting regression instance.

    Parameters
    ----------
    y : (N,) array
        Observed climate variable (anomalies, centered upstream).
    x_tilde : (N, p) array
        Ensemble-mean fingerprints, one column per external forcing.
    ensemble_sizes : (p,) int array
        Number of simulation runs averaged into each fingerprint.
    control_runs : (N, m) array, optional
        Centered control runs realizing internal variability. May be
        omitted when ``sample_cov`` is supplied directly.
    sample_cov : SampleCovariance, optional
        Precomputed sample covariance of the control runs.
    """

    y: np.ndarray
    x_tilde: np.ndarray
    ensemble_sizes: np.ndarray
    control_runs: np.ndarray | None = None
    sample_cov: SampleCovariance | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "y", _as_float_array(self.y, "y", 1))
        object.__setattr__(self, "x_tilde", _as_float_array(self.x_tilde, "x_tilde", 2))
        sizes = np.asarray(self.ensemble_sizes, dtype=int)
        if sizes.ndim != 1:
            raise DimensionMismatch("ensemble_sizes must be a 1-d integer vector")
        if (sizes < 1).any():
            raise OutOfDomain("all ensemble sizes must be >= 1")
        object.__setattr__(self, "ensemble_sizes", sizes)
        if self.control_runs is not None:
            runs = _as_float_array(self.control_runs, "control_runs", 2)
            if runs.shape[1] < 1:
                raise OutOfDomain("need at least one control run")
            object.__setattr__(self, "control_runs", runs)
        if self.control_runs is None and self.sample_cov is None:
            raise OutOfDomain("either control_runs or sample_cov must be supplied")

    @property
    def n_dim(self) -> int:
        return self.y.shape[0]

    @property
    def n_forcings(self) -> int:
        return self.x_tilde.shape[1]

    @property
    def m_runs(self) -> int:
        if self.control_runs is not None:
            return self.control_runs.shape[1]
        return self.sample_cov.m

    @property
    def tau_bar(self) -> float:
        """Average eigenvalue tr(S)/N, from the control runs without forming S."""
        if self.sample_cov is not None:
            return self.sample_cov.tau_bar
        return runs_tau_bar(self.control_runs)

    def sample_covariance(self) -> SampleCovariance:
        """Return the supplied covariance, or compute it from the control runs."""
        if self.sample_cov is not None:
            return self.sample_cov
        return compute_sample_covariance(self.control_runs)


def compute_sample_covariance(control_runs) -> SampleCovariance:
    """Sample covariance S = (1/m) * sum_j Z_j Z_j^T of centered control runs.

    The divisor is m (not m-1) and the columns are not re-centered: the runs
    are taken as mean-zero draws of internal variability.
    """
    z = _as_float_array(control_runs, "control_runs", 2)
    m = z.shape[1]
    if m < 1:
        raise OutOfDomain("need at least one control run")
    s = (z @ z.T) / m
    return SampleCovariance(s=s, m=m)


def runs_tau_bar(control_runs) -> float:
    """Average eigenvalue tr(S)/N of S = Z Z^T/m, as ||Z||_F^2 / (m N) in O(N m)."""
    z = np.asarray(control_runs, dtype=float)
    return float(np.vdot(z, z)) / z.size


def ensemble_mean(runs) -> np.ndarray:
    """Column-wise mean of one forcing's simulation runs (N x n_i)."""
    r = _as_float_array(runs, "runs", 2)
    if r.shape[1] < 1:
        raise OutOfDomain("need at least one run")
    return r.mean(axis=1)


def validate_dataset(ds: DetectionDataset) -> tuple[str, ...]:
    """Check shapes and identifiability heuristics of a dataset.

    Returns the warnings, which do not stop a fit.

    Raises
    ------
    DimensionMismatch
        If array shapes disagree with each other, with ``ensemble_sizes``,
        or with the length of ``y``; or, with every failed check in one
        message, if there is no forcing, N < p + 1, or tr(S)/N <= 0.

    Notes
    -----
    m < N is expected in practice and merely flags a singular sample
    covariance; the shrinkage weight matrix handles it. Nothing here
    decomposes or forms S: every check costs O(N m) from the control runs
    (O(N) given S). The rank of S is ``SpectralCache.s_rank``.
    """
    n = ds.y.shape[0]
    if ds.x_tilde.shape[0] != n:
        raise DimensionMismatch(
            f"y has length {n} but x_tilde has {ds.x_tilde.shape[0]} rows"
        )
    p = ds.x_tilde.shape[1]
    if ds.ensemble_sizes.shape[0] != p:
        raise DimensionMismatch(
            f"x_tilde has {p} columns but ensemble_sizes has length {ds.ensemble_sizes.shape[0]}"
        )
    if ds.control_runs is not None and ds.control_runs.shape[0] != n:
        raise DimensionMismatch(
            f"control_runs has {ds.control_runs.shape[0]} rows, expected {n}"
        )
    if ds.sample_cov is not None and ds.sample_cov.n_dim != n:
        k = ds.sample_cov.n_dim
        raise DimensionMismatch(f"sample covariance is {k}x{k}, expected {n}x{n}")

    m = ds.m_runs
    errors: list[str] = []
    warnings: list[str] = []

    if p < 1:
        errors.append("need at least one forcing")
    if n < p + 1:
        errors.append(f"N={n} too small for p={p} forcings (need N >= p+1)")

    tau_bar = ds.tau_bar
    if m < n:
        warnings.append(
            f"m={m} < N={n}: singular sample covariance (rank <= {m}); "
            "regularization is required"
        )
    col_norms = np.linalg.norm(ds.x_tilde, axis=0)
    for i, nrm in enumerate(col_norms):
        if nrm <= ZERO_FINGERPRINT_TOL:
            warnings.append(f"fingerprint column {i} has (near-)zero norm {nrm:.3e}")
    if not tau_bar > 0.0:
        errors.append(f"tr(S)/N = {tau_bar:.3g} <= 0: the control runs vanish, so lambda has no scale")

    if errors:
        raise DimensionMismatch("; ".join(errors))
    return tuple(warnings)
