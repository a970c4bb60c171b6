"""Generative models and the Monte Carlo harness.

Replicates a desk-scale version of the method's coverage/interval-length
study: draw control runs, noisy fingerprints, and observations from a known
covariance, fit with the optimally regularized weight matrix, and aggregate
bias, spread, interval length, and empirical coverage. Replicates are drawn
and decomposed one at a time and fitted in stacks (``variance.fit_stack``)
of at most ``stack_size`` replicates.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz

from .dataset import DetectionDataset
from .errors import DimensionMismatch, FinprintError, NotPSD, OutOfDomain
from .variance import FitOptions, fit_stack, prepare_cache

__all__ = [
    "IdentitySigma",
    "SeparableAr1Sigma",
    "UserMatrixSigma",
    "UnstructuredSigma",
    "SyntheticFingerprints",
    "UserMatrixFingerprints",
    "SimulationScenario",
    "ForcingMetrics",
    "ReplicateRecord",
    "SimulationReport",
    "build_sigma_st",
    "build_sigma_un",
    "sample_mvn",
    "generate_replicate",
    "run_scenario",
    "stack_size",
    "summarize_replicates",
]

# Relative floor for deciding a symmetric matrix is not PSD.
PSD_TOL = 1e-10

# Stream indices for per-replicate seeding: 0 = regression error, 1..p =
# fingerprint noise per forcing, p+1 = control runs.
_STREAM_EPS = 0
_STREAM_CONTROL_OFFSET = 1

# Doubles in the R x G x (r+1) weight stack of one stacked grid pass (512 KB);
# the pass keeps a few arrays of that size alive. It caps R, the replicates
# per stack: more would grow the peak memory without making a replicate
# cheaper.
STACK_ELEMENTS = 2**16


def _ar1_correlation(dim: int, rho: float) -> np.ndarray:
    if not abs(rho) < 1.0:
        raise OutOfDomain(f"AR(1) coefficient must satisfy |rho| < 1, got {rho}")
    return toeplitz(rho ** np.arange(dim))


def build_sigma_st(
    spatial_dim: int,
    temporal_dim: int,
    rho_spatial: float,
    rho_temporal: float,
    variances=None,
) -> np.ndarray:
    """Separable spatio-temporal covariance.

    The correlation is the Kronecker product of spatial and temporal AR(1)
    correlation matrices (entry rho^|i-j|); ``variances`` scales the
    diagonal (unit variances when omitted). Index order is spatial-major:
    coordinate k = s * temporal_dim + t.
    """
    n = spatial_dim * temporal_dim
    corr = np.kron(
        _ar1_correlation(spatial_dim, rho_spatial),
        _ar1_correlation(temporal_dim, rho_temporal),
    )
    if variances is None:
        return corr
    v = np.asarray(variances, dtype=float)
    if v.shape != (n,):
        raise DimensionMismatch(f"variances must have length {n}, got {v.shape}")
    if (v <= 0.0).any():
        raise OutOfDomain("variances must be positive")
    root_v = np.sqrt(v)
    return corr * np.outer(root_v, root_v)


def build_sigma_un(n_dim: int, seed: int, condition_number: float = 1e3) -> np.ndarray:
    """Seeded unstructured SPD covariance: random orthogonal conjugation of a
    geometrically decaying spectrum, normalized to unit average eigenvalue."""
    if condition_number < 1.0:
        raise OutOfDomain("condition_number must be >= 1")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n_dim, n_dim)))
    eigvals = np.geomspace(1.0, 1.0 / condition_number, n_dim)
    eigvals /= eigvals.mean()
    sigma = (q * eigvals) @ q.T
    return 0.5 * (sigma + sigma.T)


def _psd_sqrt(sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    floor = -PSD_TOL * max(float(eigvals[-1]), 1.0)
    if eigvals[0] < floor:
        raise NotPSD(f"matrix has eigenvalue {eigvals[0]:.3e} below tolerance")
    return (eigvecs * np.sqrt(np.maximum(eigvals, 0.0))) @ eigvecs.T


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise OutOfDomain(f"seed must be a nonnegative integer, got {seed!r}")


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_mvn(sigma, count: int, seed) -> np.ndarray:
    """Draw ``count`` i.i.d. N(0, sigma) columns via the symmetric square root.

    Deterministic given the seed; raises NotPSD when sigma has a genuinely
    negative eigenvalue (round-off negatives are clamped to zero).
    """
    root = _psd_sqrt(sigma)
    rng = _as_rng(seed)
    return root @ rng.standard_normal((root.shape[0], count))


# ---------------------------------------------------------------------------
# Scenario configuration


@dataclass(frozen=True)
class IdentitySigma:
    kind: str = field(default="identity", init=False)

    def build(self, n_dim: int) -> np.ndarray:
        return np.eye(n_dim)


@dataclass(frozen=True)
class SeparableAr1Sigma:
    spatial_dim: int
    temporal_dim: int
    rho_spatial: float
    rho_temporal: float
    variances: tuple[float, ...] | None = None
    kind: str = field(default="separable_ar1", init=False)

    def __post_init__(self):
        object.__setattr__(self, "rho_spatial", float(self.rho_spatial))
        object.__setattr__(self, "rho_temporal", float(self.rho_temporal))
        if self.variances is not None:
            object.__setattr__(self, "variances", tuple(float(v) for v in self.variances))

    def build(self, n_dim: int) -> np.ndarray:
        if self.spatial_dim * self.temporal_dim != n_dim:
            raise DimensionMismatch(
                f"spatial_dim * temporal_dim = {self.spatial_dim * self.temporal_dim} "
                f"must equal n_dim = {n_dim}"
            )
        return build_sigma_st(
            self.spatial_dim,
            self.temporal_dim,
            self.rho_spatial,
            self.rho_temporal,
            self.variances,
        )


@dataclass(frozen=True)
class UserMatrixSigma:
    path: str
    kind: str = field(default="user_matrix", init=False)

    def build(self, n_dim: int) -> np.ndarray:
        from .io import read_matrix

        sigma = read_matrix(self.path)
        if sigma.shape != (n_dim, n_dim):
            raise DimensionMismatch(f"covariance file is {sigma.shape}, expected ({n_dim}, {n_dim})")
        return sigma


@dataclass(frozen=True)
class UnstructuredSigma:
    seed: int
    condition_number: float = 1e3
    kind: str = field(default="unstructured", init=False)

    def __post_init__(self):
        _check_seed(self.seed)
        object.__setattr__(self, "condition_number", float(self.condition_number))

    def build(self, n_dim: int) -> np.ndarray:
        return build_sigma_un(n_dim, self.seed, self.condition_number)


@dataclass(frozen=True)
class SyntheticFingerprints:
    """Seeded Gaussian fingerprints with equicorrelated columns."""

    seed: int
    column_correlation: float = 0.5
    kind: str = field(default="synthetic", init=False)

    def __post_init__(self):
        _check_seed(self.seed)
        r = self.column_correlation
        if not -1.0 < r < 1.0:
            raise OutOfDomain(f"column_correlation must be in (-1, 1), got {r}")

    def build(self, n_dim: int, p: int) -> np.ndarray:
        r = self.column_correlation
        corr = np.full((p, p), r)
        np.fill_diagonal(corr, 1.0)
        if p > 1 and np.linalg.eigvalsh(corr)[0] <= 0.0:
            raise OutOfDomain(f"column_correlation {r} not positive definite for p={p}")
        rng = np.random.default_rng(self.seed)
        g = rng.standard_normal((n_dim, p))
        return g @ np.linalg.cholesky(corr).T


@dataclass(frozen=True)
class UserMatrixFingerprints:
    path: str
    kind: str = field(default="user_matrix", init=False)

    def build(self, n_dim: int, p: int) -> np.ndarray:
        from .io import read_matrix

        x = read_matrix(self.path)
        if x.shape != (n_dim, p):
            raise DimensionMismatch(f"fingerprint file is {x.shape}, expected ({n_dim}, {p})")
        return x


SigmaModel = IdentitySigma | SeparableAr1Sigma | UserMatrixSigma | UnstructuredSigma
FingerprintModel = SyntheticFingerprints | UserMatrixFingerprints


@dataclass(frozen=True)
class SimulationScenario:
    """Generative configuration for one Monte Carlo study."""

    n_dim: int
    true_beta: tuple[float, ...]
    gamma: float
    ensemble_sizes: tuple[int, ...]
    m_runs: int
    sigma_model: SigmaModel
    true_x: FingerprintModel
    replicates: int
    base_seed: int
    alpha: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "true_beta", tuple(float(b) for b in self.true_beta))
        object.__setattr__(self, "ensemble_sizes", tuple(int(n) for n in self.ensemble_sizes))
        if len(self.true_beta) != len(self.ensemble_sizes):
            raise DimensionMismatch("true_beta and ensemble_sizes must have equal length")
        if not self.true_beta:
            raise OutOfDomain("need at least one forcing: true_beta and ensemble_sizes are empty")
        if min(self.n_dim, self.m_runs, *self.ensemble_sizes) < 1:
            raise OutOfDomain("n_dim, m_runs and the ensemble sizes must be >= 1")
        if not self.gamma >= 0.0:
            raise OutOfDomain(f"gamma must be nonnegative, got {self.gamma}")
        if self.replicates < 1:
            raise OutOfDomain("replicates must be >= 1")
        _check_seed(self.base_seed)
        if not 0.0 < self.alpha < 1.0:
            raise OutOfDomain("alpha must be in (0, 1)")
        if isinstance(self.sigma_model, SeparableAr1Sigma):
            st = self.sigma_model.spatial_dim * self.sigma_model.temporal_dim
            if st != self.n_dim:
                raise DimensionMismatch(f"n_dim={self.n_dim} but spatial*temporal={st}")

    @property
    def n_forcings(self) -> int:
        return len(self.true_beta)

    @property
    def fit_options(self) -> FitOptions:
        """The options every replicate is fitted with: the default grid at ``alpha``."""
        return FitOptions(alpha=self.alpha)


def _stream_rng(base_seed: int, rep_index: int, stream: int) -> np.random.Generator:
    # Independent, reproducible streams per (replicate, source); parallel and
    # serial execution draw identical numbers.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(rep_index, stream))
    )


class ReplicateGenerator:
    """Precomputes the covariance root and fingerprints for repeated draws."""

    def __init__(self, scenario: SimulationScenario):
        self.scenario = scenario
        self.root = _psd_sqrt(scenario.sigma_model.build(scenario.n_dim))
        self.x_true = scenario.true_x.build(scenario.n_dim, scenario.n_forcings)

    def make(self, rep_index: int) -> DetectionDataset:
        scn = self.scenario
        n, p = scn.n_dim, scn.n_forcings
        signal = scn.gamma * self.x_true
        beta = np.asarray(scn.true_beta)

        eps = self.root @ _stream_rng(scn.base_seed, rep_index, _STREAM_EPS).standard_normal(n)
        y = signal @ beta + eps

        x_tilde = np.empty((n, p))
        for i, n_i in enumerate(scn.ensemble_sizes):
            noise = self.root @ _stream_rng(scn.base_seed, rep_index, 1 + i).standard_normal(n)
            x_tilde[:, i] = signal[:, i] + noise / np.sqrt(n_i)

        z = self.root @ _stream_rng(
            scn.base_seed, rep_index, _STREAM_CONTROL_OFFSET + p
        ).standard_normal((n, scn.m_runs))
        return DetectionDataset(
            y=y,
            x_tilde=x_tilde,
            ensemble_sizes=np.asarray(scn.ensemble_sizes),
            control_runs=z,
        )


def generate_replicate(scenario: SimulationScenario, rep_index: int) -> DetectionDataset:
    """One synthetic dataset; byte-identical across runs for a fixed seed."""
    return ReplicateGenerator(scenario).make(rep_index)


# ---------------------------------------------------------------------------
# Monte Carlo runner


@dataclass(frozen=True)
class ForcingMetrics:
    bias: float
    sd: float
    mean_ci_length: float
    coverage_rate: float


@dataclass(frozen=True)
class ReplicateRecord:
    index: int
    beta_hat: tuple[float, ...] | None
    lambda_opt: float | None
    ci_lower: tuple[float, ...] | None
    ci_upper: tuple[float, ...] | None
    covered: tuple[bool, ...] | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SimulationReport:
    """Aggregates of one study; ``failure_counts`` maps error type -> failed replicates."""

    per_forcing: tuple[ForcingMetrics, ...]
    replicates: tuple[ReplicateRecord, ...]
    n_replicates: int
    n_failed: int
    elapsed_seconds: float
    failure_counts: dict[str, int]


def _record(index: int, fit, true_beta) -> ReplicateRecord:
    """A replicate's record from its FitResult, or from the FinprintError its fit raised."""
    if isinstance(fit, FinprintError):
        return ReplicateRecord(
            index=index,
            beta_hat=None,
            lambda_opt=None,
            ci_lower=None,
            ci_upper=None,
            covered=None,
            error=f"{type(fit).__name__}: {fit}",
        )
    lower = tuple(ci[0] for ci in fit.intervals)
    upper = tuple(ci[1] for ci in fit.intervals)
    covered = tuple(
        bool(lo <= b <= hi) for lo, hi, b in zip(lower, upper, true_beta)
    )
    return ReplicateRecord(
        index=index,
        beta_hat=tuple(float(b) for b in fit.beta_hat),
        lambda_opt=float(fit.lambda_opt),
        ci_lower=lower,
        ci_upper=upper,
        covered=covered,
    )


def stack_size(rank: int, grid_size: int) -> int:
    """Replicates per stacked grid pass for caches of ``rank`` kept eigenvalues.

    As many as fit STACK_ELEMENTS weights of grid_size x (rank+1) each, and
    at least one.
    """
    return max(1, STACK_ELEMENTS // (grid_size * (rank + 1)))


def _run_chunk(scenario: SimulationScenario, indices, options: FitOptions) -> list[ReplicateRecord]:
    """Records of the replicates ``indices``, fitted in stacks of equal-shape caches.

    A full-rank cache keeps min(N, m) eigenvalues (all N on the dense route);
    full-rank replicates share a stack, and any other one is a stack of one.
    """
    gen = ReplicateGenerator(scenario)
    sizes = np.asarray(scenario.ensemble_sizes)
    full_rank = min(scenario.n_dim, scenario.m_runs)
    cap = stack_size(full_rank, options.grid_size)
    records: list[ReplicateRecord] = []
    stack: list = []

    def fit(entries) -> None:
        fits = fit_stack([cache for _, cache in entries], sizes, options)
        records.extend(_record(i, f, scenario.true_beta) for (i, _), f in zip(entries, fits))

    for i in indices:
        ds = gen.make(i)
        try:
            cache = prepare_cache(ds)
        except FinprintError as exc:
            records.append(_record(i, exc, scenario.true_beta))
            continue
        if cache.eigvals.shape[-1] != full_rank:
            fit([(i, cache)])
            continue
        stack.append((i, cache))
        if len(stack) == cap:
            fit(stack)
            stack = []
    if stack:
        fit(stack)
    return records


def summarize_replicates(records, true_beta, elapsed_seconds: float = 0.0) -> SimulationReport:
    """Aggregate per-replicate records into per-forcing metrics.

    Failed replicates are excluded from every aggregate but counted in
    ``n_failed`` and, by error type, in ``failure_counts``; the sample SD
    uses divisor R-1.
    """
    records = tuple(sorted(records, key=lambda r: r.index))
    good = [r for r in records if r.ok]
    failures = Counter(r.error.split(":", 1)[0] for r in records if not r.ok)
    p = len(true_beta)
    if good:
        beta = np.array([r.beta_hat for r in good])
        lengths = np.array([r.ci_upper for r in good]) - np.array([r.ci_lower for r in good])
        covered = np.array([r.covered for r in good], dtype=float)
        per_forcing = tuple(
            ForcingMetrics(
                bias=float(beta[:, i].mean() - true_beta[i]),
                sd=float(beta[:, i].std(ddof=1)) if len(good) > 1 else 0.0,
                mean_ci_length=float(lengths[:, i].mean()),
                coverage_rate=float(covered[:, i].mean()),
            )
            for i in range(p)
        )
    else:
        per_forcing = tuple(
            ForcingMetrics(bias=np.nan, sd=np.nan, mean_ci_length=np.nan, coverage_rate=np.nan)
            for _ in range(p)
        )
    return SimulationReport(
        per_forcing=per_forcing,
        replicates=records,
        n_replicates=len(records),
        n_failed=len(records) - len(good),
        elapsed_seconds=elapsed_seconds,
        failure_counts=dict(sorted(failures.items())),
    )


def run_scenario(scenario: SimulationScenario, jobs: int = 1) -> SimulationReport:
    """Run the full Monte Carlo loop: generate, fit, interval, aggregate.

    Replicates are independent; ``jobs > 1`` fans them out over processes,
    each of which fits its share in stacks. Records and aggregates are
    identical for any jobs value and stack size because every replicate owns
    its seed-derived streams, its record is the one ``fit_optimal`` gives,
    and records are reduced in index order.
    """
    if jobs < 1:
        raise OutOfDomain(f"jobs must be >= 1, got {jobs}")
    options = scenario.fit_options
    start = time.perf_counter()
    indices = list(range(scenario.replicates))
    if jobs > 1 and scenario.replicates > 1:
        chunks = [indices[k::jobs] for k in range(jobs) if indices[k::jobs]]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(_run_chunk, scenario, chunk, options) for chunk in chunks]
            records = [rec for fut in futures for rec in fut.result()]
    else:
        records = _run_chunk(scenario, indices, options)
    elapsed = time.perf_counter() - start
    return summarize_replicates(records, scenario.true_beta, elapsed)
