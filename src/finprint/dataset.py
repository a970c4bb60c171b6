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
    "as_count",
    "as_real",
    "compute_sample_covariance",
    "ensemble_mean",
    "runs_tau_bar",
    "validate_dataset",
]

# Norm below which a fingerprint column is flagged as effectively zero.
ZERO_FINGERPRINT_TOL = 1e-12


# Largest count or seed accepted: what an int64 holds.
MAX_COUNT = int(np.iinfo(np.int64).max)


def as_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int: a Python or NumPy integer from ``minimum`` to MAX_COUNT.

    Every count and seed goes through this rule. A float (even 48.0), a bool
    or a string raises OutOfDomain rather than being truncated, and so does
    an integer no int64 holds.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise OutOfDomain(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise OutOfDomain(f"{name} must be >= {minimum}, got {value!r}")
    if value > MAX_COUNT:
        raise OutOfDomain(f"{name} must be <= {MAX_COUNT}, got {value!r}")
    return int(value)


def as_real(value, name: str) -> float:
    """``value`` as a float: a Python or NumPy integer or float.

    Every real number of a scenario goes through this rule. A bool, a
    string or None raises OutOfDomain rather than being converted, and so
    does an integer no float holds.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise OutOfDomain(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise OutOfDomain(f"{name} must be a number a float holds, got {value!r}") from None


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
        object.__setattr__(self, "m", as_count(self.m, "m"))
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

    Building one checks that the shapes agree, p >= 1 and N >= p + 1
    (DimensionMismatch otherwise), and that each ensemble size is an integer >= 1.

    Parameters
    ----------
    y : (N,) array
        Observed climate variable (anomalies, centered upstream).
    x_tilde : (N, p) array
        Ensemble-mean fingerprints, one column per external forcing.
    ensemble_sizes : (p,) int array
        Number of simulation runs averaged into each fingerprint.
    control_runs : (N, m) array, optional
        Centered control runs realizing internal variability.
    sample_cov : SampleCovariance, optional
        Precomputed sample covariance of the control runs. Exactly one of
        the two is supplied (OutOfDomain otherwise).
    """

    y: np.ndarray
    x_tilde: np.ndarray
    ensemble_sizes: np.ndarray
    control_runs: np.ndarray | None = None
    sample_cov: SampleCovariance | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "y", _as_float_array(self.y, "y", 1))
        object.__setattr__(self, "x_tilde", _as_float_array(self.x_tilde, "x_tilde", 2))
        # dtype=object keeps each size as given, so a float is seen, not truncated.
        given = np.asarray(self.ensemble_sizes, dtype=object)
        if given.ndim != 1:
            raise DimensionMismatch("ensemble_sizes must be a 1-d integer vector")
        sizes = np.array([as_count(n_i, "ensemble sizes") for n_i in given], dtype=int)
        object.__setattr__(self, "ensemble_sizes", sizes)
        if self.control_runs is not None:
            runs = _as_float_array(self.control_runs, "control_runs", 2)
            if runs.shape[1] < 1:
                raise OutOfDomain("need at least one control run")
            object.__setattr__(self, "control_runs", runs)
        if (self.control_runs is None) == (self.sample_cov is None):
            raise OutOfDomain("exactly one of control_runs and sample_cov must be supplied")
        n, p = self.y.shape[0], self.x_tilde.shape[1]
        if self.x_tilde.shape[0] != n:
            raise DimensionMismatch(f"y has length {n} but x_tilde has {self.x_tilde.shape[0]} rows")
        if len(sizes) != p:
            raise DimensionMismatch(f"x_tilde has {p} columns but ensemble_sizes has length {len(sizes)}")
        if self.control_runs is not None and self.control_runs.shape[0] != n:
            raise DimensionMismatch(f"control_runs has {self.control_runs.shape[0]} rows, expected {n}")
        k = n if self.sample_cov is None else self.sample_cov.n_dim
        if k != n:
            raise DimensionMismatch(f"sample covariance is {k}x{k}, expected {n}x{n}")
        errors = []
        if p < 1:
            errors.append("need at least one forcing")
        if n < p + 1:
            errors.append(f"N={n} too small for p={p} forcings (need N >= p+1)")
        if errors:
            raise DimensionMismatch("; ".join(errors))

    @property
    def n_dim(self) -> int:
        return self.y.shape[0]

    @property
    def n_forcings(self) -> int:
        return self.x_tilde.shape[1]

    @property
    def m_runs(self) -> int:
        return self.control_runs.shape[1] if self.sample_cov is None else self.sample_cov.m

    @property
    def tau_bar(self) -> float:
        """Average eigenvalue tr(S)/N, from the control runs without forming S."""
        if self.sample_cov is not None:
            return self.sample_cov.tau_bar
        return runs_tau_bar(self.control_runs)


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
    """The warnings of a dataset (m < N, a near-zero fingerprint column).

    They do not stop a fit: m < N is expected in practice and merely flags
    a singular S, which the shrinkage weight matrix handles. The shapes were
    checked when the dataset was built, and tr(S)/N > 0 is checked where
    the lambda search builds its grid. Costs O(N p).
    """
    n, m = ds.n_dim, ds.m_runs
    warnings: list[str] = []
    if m < n:
        warnings.append(
            f"m={m} < N={n}: singular sample covariance (rank <= {m}); "
            "regularization is required"
        )
    col_norms = np.linalg.norm(ds.x_tilde, axis=0)
    for i, nrm in enumerate(col_norms):
        if nrm <= ZERO_FINGERPRINT_TOL:
            warnings.append(f"fingerprint column {i} has (near-)zero norm {nrm:.3e}")
    return tuple(warnings)
