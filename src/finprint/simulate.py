"""Generative models and the Monte Carlo harness.

Replicates a desk-scale version of the method's coverage/interval-length
study: draw control runs, noisy fingerprints, and observations from a known
covariance, fit with the optimally regularized weight matrix, and aggregate
bias, spread, interval length, and empirical coverage. Replicates are drawn
and decomposed one at a time and fitted in stacks (``variance.fit_stack``)
of at most ``stack_size`` replicates.

A scenario document is the JSON form of a ``SimulationScenario``: its keys
are the dataclass's fields, and each model is an object of its class's
fields under a ``kind`` key, with paths relative to the document.
"""

from __future__ import annotations

import concurrent.futures
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args

import numpy as np

from .dataset import DetectionDataset, as_count, as_real
from .errors import DimensionMismatch, FinprintError, NonFinite, NotPSD, OutOfDomain, SchemaError
from .io import read_json, read_matrix, resolve
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
    "generate_replicate",
    "run_scenario",
    "stack_size",
    "summarize_replicates",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
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
    """The dim x dim Toeplitz matrix rho^|i - j|, indexed from one vector of powers."""
    lags = np.arange(dim)
    return (rho ** lags)[np.abs(lags[:, None] - lags[None, :])]


def _psd_sqrt(sigma: np.ndarray) -> np.ndarray:
    """Symmetric square root; NotPSD for an eigenvalue below -PSD_TOL times
    the largest one, at any scale (negatives above that are clamped to zero)."""
    sigma = np.asarray(sigma, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    floor = -PSD_TOL * max(float(eigvals[-1]), 0.0)
    if eigvals[0] < floor:
        raise NotPSD(f"matrix has eigenvalue {eigvals[0]:.3e} below tolerance")
    return (eigvecs * np.sqrt(np.maximum(eigvals, 0.0))) @ eigvecs.T


# ---------------------------------------------------------------------------
# Scenario configuration


@dataclass(frozen=True)
class IdentitySigma:
    kind: str = field(default="identity", init=False)

    def build(self, n_dim: int) -> np.ndarray:
        return np.eye(n_dim)


@dataclass(frozen=True)
class SeparableAr1Sigma:
    """Separable spatio-temporal covariance.

    The correlation is the Kronecker product of spatial and temporal AR(1)
    correlation matrices (entry rho^|i-j|); ``variances`` scales the
    diagonal (unit variances when omitted). Index order is spatial-major:
    coordinate k = s * temporal_dim + t.
    """

    spatial_dim: int
    temporal_dim: int
    rho_spatial: float
    rho_temporal: float
    variances: tuple[float, ...] | None = None
    kind: str = field(default="separable_ar1", init=False)

    def __post_init__(self):
        object.__setattr__(self, "spatial_dim", as_count(self.spatial_dim, "spatial_dim"))
        object.__setattr__(self, "temporal_dim", as_count(self.temporal_dim, "temporal_dim"))
        for name in ("rho_spatial", "rho_temporal"):
            rho = as_real(getattr(self, name), name)
            if not abs(rho) < 1.0:
                raise OutOfDomain(f"{name}: AR(1) coefficient must satisfy |rho| < 1, got {rho}")
            object.__setattr__(self, name, rho)
        if self.variances is not None:
            v = tuple(as_real(x, "variances entry") for x in self.variances)
            n = self.spatial_dim * self.temporal_dim
            if len(v) != n:
                raise DimensionMismatch(f"variances must have length spatial_dim * temporal_dim = {n}, got {len(v)}")
            if not np.isfinite(v).all():
                raise NonFinite("variances contains NaN or infinite entries")
            if min(v) <= 0.0:
                raise OutOfDomain("variances must be positive")
            object.__setattr__(self, "variances", v)

    def check_n_dim(self, n_dim: int) -> None:
        """DimensionMismatch unless spatial_dim * temporal_dim equals ``n_dim``."""
        n = self.spatial_dim * self.temporal_dim
        if n != n_dim:
            raise DimensionMismatch(f"spatial_dim * temporal_dim = {n} must equal n_dim = {n_dim}")

    def build(self, n_dim: int) -> np.ndarray:
        self.check_n_dim(n_dim)
        corr = np.kron(
            _ar1_correlation(self.spatial_dim, self.rho_spatial),
            _ar1_correlation(self.temporal_dim, self.rho_temporal),
        )
        if self.variances is None:
            return corr
        root_v = np.sqrt(np.asarray(self.variances, dtype=float))
        return corr * np.outer(root_v, root_v)


@dataclass(frozen=True)
class UserMatrixSigma:
    path: str
    kind: str = field(default="user_matrix", init=False)

    def build(self, n_dim: int) -> np.ndarray:
        sigma = read_matrix(self.path)
        if sigma.shape != (n_dim, n_dim):
            raise DimensionMismatch(f"covariance file is {sigma.shape}, expected ({n_dim}, {n_dim})")
        return sigma


@dataclass(frozen=True)
class UnstructuredSigma:
    """Seeded unstructured SPD covariance: random orthogonal conjugation of a
    geometrically decaying spectrum, normalized to unit average eigenvalue."""

    seed: int
    condition_number: float = 1e3
    kind: str = field(default="unstructured", init=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", as_count(self.seed, "seed", 0))
        c = as_real(self.condition_number, "condition_number")
        if not 1.0 <= c < np.inf:
            raise OutOfDomain(f"condition_number must be finite and >= 1, got {c}")
        object.__setattr__(self, "condition_number", c)

    def build(self, n_dim: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        q, _ = np.linalg.qr(rng.standard_normal((n_dim, n_dim)))
        eigvals = np.geomspace(1.0, 1.0 / self.condition_number, n_dim)
        eigvals /= eigvals.mean()
        sigma = (q * eigvals) @ q.T
        return 0.5 * (sigma + sigma.T)


@dataclass(frozen=True)
class SyntheticFingerprints:
    """Seeded Gaussian fingerprints with equicorrelated columns."""

    seed: int
    column_correlation: float = 0.5
    kind: str = field(default="synthetic", init=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", as_count(self.seed, "seed", 0))
        r = as_real(self.column_correlation, "column_correlation")
        if not -1.0 < r < 1.0:
            raise OutOfDomain(f"column_correlation must be in (-1, 1), got {r}")
        object.__setattr__(self, "column_correlation", r)

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
        for name, minimum in (("n_dim", 1), ("m_runs", 1), ("replicates", 1), ("base_seed", 0)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, minimum))
        object.__setattr__(self, "gamma", as_real(self.gamma, "gamma"))
        object.__setattr__(self, "alpha", as_real(self.alpha, "alpha"))
        object.__setattr__(self, "true_beta", tuple(as_real(b, "true_beta entry") for b in self.true_beta))
        object.__setattr__(self, "ensemble_sizes", tuple(as_count(n, "ensemble sizes") for n in self.ensemble_sizes))
        if len(self.true_beta) != len(self.ensemble_sizes):
            raise DimensionMismatch("true_beta and ensemble_sizes must have equal length")
        if not self.true_beta:
            raise OutOfDomain("need at least one forcing: true_beta and ensemble_sizes are empty")
        if not np.isfinite(self.true_beta).all():
            raise NonFinite("true_beta contains NaN or infinite entries")
        if not 0.0 <= self.gamma < np.inf:
            raise OutOfDomain(f"gamma must be finite and nonnegative, got {self.gamma}")
        self.fit_options  # building the FitOptions checks alpha
        if isinstance(self.sigma_model, SeparableAr1Sigma):
            self.sigma_model.check_n_dim(self.n_dim)

    @property
    def n_forcings(self) -> int:
        return len(self.true_beta)

    @property
    def fit_options(self) -> FitOptions:
        """The options every replicate is fitted with: the default grid at ``alpha``."""
        return FitOptions(alpha=self.alpha)


# ---------------------------------------------------------------------------
# Scenario documents

_MODEL_KINDS = {
    name: {cls.kind: cls for cls in get_args(union)}
    for name, union in (("sigma_model", SigmaModel), ("true_x", FingerprintModel))
}


def _model_from_dict(doc, label: str, base: Path | None):
    kinds = _MODEL_KINDS[label]
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError(f"{label} must be an object with a 'kind' key")
    kind = doc["kind"]
    if kind not in kinds:
        raise SchemaError(f"unknown {label} kind {kind!r}; expected one of {sorted(kinds)}")
    kwargs = {k: v for k, v in doc.items() if k != "kind"}
    if "path" in kwargs and base is not None:
        kwargs["path"] = str(resolve(base, kwargs["path"]))
    try:
        return kinds[kind](**kwargs)
    except TypeError as exc:
        raise SchemaError(f"bad fields for {label} kind {kind!r}: {exc}") from exc


def scenario_from_dict(doc: dict, base: Path | None = None) -> SimulationScenario:
    """The SimulationScenario of a scenario document; unknown top-level keys are ignored."""
    missing = {f.name for f in fields(SimulationScenario) if f.default is MISSING} - doc.keys()
    if missing:
        raise SchemaError(f"scenario missing keys: {sorted(missing)}")
    kwargs = {f.name: doc[f.name] for f in fields(SimulationScenario) if f.name in doc}
    for label in _MODEL_KINDS:
        kwargs[label] = _model_from_dict(doc[label], label, base)
    return SimulationScenario(**kwargs)


def load_scenario(path) -> SimulationScenario:
    """Read a SimulationScenario from a scenario document."""
    path = Path(path)
    doc = read_json(path)
    try:
        return scenario_from_dict(doc, base=path.parent)
    except (TypeError, ValueError, OverflowError, FinprintError) as exc:  # a field of the wrong type or range
        raise SchemaError(f"{path}: {exc}") from exc


def scenario_to_dict(scn: SimulationScenario) -> dict:
    """The scenario document of ``scn``, ready for ``json.dumps``; each model's ``kind`` comes first."""
    doc = asdict(scn)
    for label in _MODEL_KINDS:
        doc[label] = {"kind": doc[label].pop("kind"), **doc[label]}
    return doc


def _stream_rng(base_seed: int, rep_index: int, stream: int) -> np.random.Generator:
    # Independent, reproducible streams per (replicate, source); parallel and
    # serial execution draw identical numbers.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(rep_index, stream))
    )


def _built(label: str, model, build):
    """``build()``, with an error's message prefixed by the model's role, kind and any file."""
    try:
        return build()
    except FinprintError as exc:
        path = f" ({model.path})" if getattr(model, "path", None) else ""
        raise type(exc)(f"{label} {model.kind!r}{path}: {exc}") from exc


class ReplicateGenerator:
    """Precomputes the covariance root and fingerprints for repeated draws.

    A model that cannot be built raises here, its message naming the model.
    """

    def __init__(self, scenario: SimulationScenario):
        self.scenario = scenario
        n, sigma, x = scenario.n_dim, scenario.sigma_model, scenario.true_x
        self.root = _built("sigma_model", sigma, lambda: _psd_sqrt(sigma.build(n)))
        self.x_true = _built("true_x", x, lambda: x.build(n, scenario.n_forcings))

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
    """Replicates per stacked grid pass for caches of ``rank`` eigenvalues.

    As many as fit STACK_ELEMENTS weights of grid_size x (rank+1) each, and
    at least one.
    """
    return max(1, STACK_ELEMENTS // (grid_size * (rank + 1)))


def _run_chunk(gen: ReplicateGenerator, indices, options: FitOptions) -> list[ReplicateRecord]:
    """Records of the replicates ``indices``, fitted in stacks of ``stack_size`` caches.

    Every replicate's cache holds min(N, m) eigenvalues, whatever the rank
    of its control runs, so any of them stack together.
    """
    scenario = gen.scenario
    sizes = np.asarray(scenario.ensemble_sizes)
    cap = stack_size(min(scenario.n_dim, scenario.m_runs), options.grid_size)
    records: list[ReplicateRecord] = []
    stack: list = []

    def fit(entries) -> None:
        fits = fit_stack([cache for _, cache in entries], sizes, options)
        records.extend(_record(i, f, scenario.true_beta) for (i, _), f in zip(entries, fits))

    for i in indices:
        try:
            cache = prepare_cache(gen.make(i))
        except FinprintError as exc:
            records.append(_record(i, exc, scenario.true_beta))
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
    uses divisor R-1, so it is NaN from a single successful replicate.
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
                sd=float(beta[:, i].std(ddof=1)) if len(good) > 1 else np.nan,
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
    and records are reduced in index order. Sigma's root and the
    fingerprints are built once, before any process starts.
    """
    jobs = as_count(jobs, "jobs")
    options = scenario.fit_options
    start = time.perf_counter()
    gen = ReplicateGenerator(scenario)
    indices = list(range(scenario.replicates))
    if jobs > 1 and scenario.replicates > 1:
        chunks = [indices[k::jobs] for k in range(jobs) if indices[k::jobs]]
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(_run_chunk, gen, chunk, options) for chunk in chunks]
            records = [rec for fut in futures for rec in fut.result()]
    else:
        records = _run_chunk(gen, indices, options)
    elapsed = time.perf_counter() - start
    return summarize_replicates(records, scenario.true_beta, elapsed)
