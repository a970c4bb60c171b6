"""Generative models and the Monte Carlo harness.

Replicates a desk-scale version of the method's coverage/interval-length
study: draw control runs, noisy fingerprints, and observations from a known
covariance, fit with the optimally regularized weight matrix, and aggregate
bias, spread, interval length, and empirical coverage. Each block of at
most ``stack_size`` replicates is seeded in one vectorized pass, drawn into
stacked arrays (``ReplicateGenerator.draw``) and decomposed in one batched
call (``spectral.build_cache``); a pass of several blocks is fitted at once
(``variance.fit_stack``), whose ``inference.StackedFit`` columns are the
pass's rows of the study's per-replicate columns. A pass that raises
anywhere, in a block's draw check or cache or in its fit, is fitted one
replicate at a time. ``jobs > 1`` splits the replicates into contiguous
shares over spawned processes with one BLAS thread each. The columns stay
arrays, in index order, up to the aggregates; ``ReplicateRecord``s are
formed from them only on reading ``SimulationReport.replicates``.

A scenario document is the JSON form of a ``SimulationScenario``: its keys
are the dataclass's fields, and each model is an object of its class's
fields under a ``kind`` key, with paths relative to the document.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import os
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ._symmetric import symmetrize
from .dataset import DetectionDataset, as_count, as_real
from .errors import DimensionMismatch, FinprintError, NoFeasiblePoint, NonFinite, NotPSD, OutOfDomain, SchemaError
from .io import read_json, read_matrix, resolve
from .spectral import STACKED, SpectralCache, build_cache, stack_size
from .variance import NO_FEASIBLE, FitOptions, fit_optimal, fit_stack

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


def _ar1_correlation(dim: int, rho: float) -> np.ndarray:
    """The dim x dim Toeplitz matrix rho^|i - j|, indexed from one vector of powers."""
    lags = np.arange(dim)
    return (rho ** lags)[np.abs(lags[:, None] - lags[None, :])]


def _psd_sqrt(sigma: np.ndarray) -> np.ndarray:
    """Symmetric square root; NotPSD for an eigenvalue below -PSD_TOL times
    the largest one, at any scale (negatives above that are clamped to zero)."""
    sigma = np.asarray(sigma, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(symmetrize(sigma))
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
        return symmetrize(sigma)


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


def _hash_constants(first: int, multiplier: int, count: int) -> np.ndarray:
    """SeedSequence's chain of ``count + 1`` uint32 hash constants: ``first`` times ``multiplier``^k mod 2^32."""
    chain = [first]
    for _ in range(count):
        chain.append(chain[-1] * multiplier & 0xFFFFFFFF)
    return np.array(chain, dtype=np.uint32)


def _hash(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, consecutive hashes along axis 0: hash k xors its word with constant k,
    multiplies by constant k + 1 and xors in the product's high half; words broadcast against constants."""
    mixed = (words ^ constants[:-1]) * constants[1:]
    return mixed ^ (mixed >> 16)


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a hashed word into pool words, as uint32 arithmetic."""
    mixed = pool * np.uint32(0xCA01F9DD) - hashed * np.uint32(0x4973F715)
    return mixed ^ (mixed >> 16)


class _StateWords(ISeedSequence):
    """A seed whose ``generate_state`` returns PCG64's four uint64 words, derived beforehand."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


class _SpawnedSeeds:
    """The streams ``default_rng(SeedSequence(entropy=base_seed, spawn_key=(i, s)))``, a block at a time.

    NumPy's SeedSequence (NEP 19, after O'Neill's seed_seq) hashes its
    entropy words, the base seed's (padded to four) and then the spawn key's,
    into a pool of four uint32 words, and hashes the pool into the state
    words PCG64 takes. The k-th hash of either step uses fixed constants. So
    the pool the base seed leaves is mixed once here, ``words`` mixes in
    only each (replicate, stream) key's words, for a whole block as uint32
    array operations, and ``streams`` hands each stream's PCG64 its words:
    the same bits as SeedSequence, without its per-stream Python work.
    """

    def __init__(self, base_seed: int):
        # The base seed's uint32 words, least significant first, padded with
        # zeros to four; a scenario's base seed is below 2^63.
        entropy = np.array([(base_seed >> 32 * k) & 0xFFFFFFFF for k in range(4)], dtype=np.uint32)
        # 4 hashes of the entropy and 12 of the all-pairs mix, then 4 per key
        # word, at most 3 key words (two for an index at or past 2^32, one for
        # the stream).
        chain = _hash_constants(0x43B0D7E5, 0x931E8875, 28)
        pool = _hash(entropy, chain[:5])
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            pool[dst] = _mix(pool[dst], _hash(pool[[src] * 3], chain[4 + 3 * src : 8 + 3 * src]))
        self.pool = pool[:, None]
        self.key_constants = chain[16:, None]
        self.state_constants = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)[:, None]

    def words(self, indices, n_streams: int) -> np.ndarray:
        """``SeedSequence(entropy=base_seed, spawn_key=(i, s)).generate_state(4, np.uint64)`` for
        every index i of ``indices`` and stream s below ``n_streams``, as an (R, n_streams, 4) array."""
        index = np.repeat(np.asarray(indices, dtype=np.uint64), n_streams)
        stream = np.tile(np.arange(n_streams, dtype=np.uint32), len(indices))
        low, high = (index & 0xFFFFFFFF).astype(np.uint32), (index >> 32).astype(np.uint32)
        two = high > 0  # an index of two words
        pool = _mix(self.pool, _hash(low, self.key_constants[:5]))
        pool = _mix(pool, _hash(np.where(two, high, stream), self.key_constants[4:9]))
        if two.any():
            pool = np.where(two, _mix(pool, _hash(stream, self.key_constants[8:13])), pool)
        state = _hash(np.concatenate([pool, pool]), self.state_constants).astype(np.uint64)
        words = state[0::2] | (state[1::2] << np.uint64(32))
        return np.ascontiguousarray(words.T).reshape(len(indices), n_streams, 4)

    def streams(self, indices, n_streams: int) -> list[list[np.random.Generator]]:
        """Row r holds the ``n_streams`` generators of replicate indices[r]."""
        return [
            [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in row]
            for row in self.words(indices, n_streams)
        ]


def _built(label: str, model, build):
    """``build()``, with an error's message prefixed by the model's role, kind and any file."""
    try:
        return build()
    except FinprintError as exc:
        path = f" ({model.path})" if getattr(model, "path", None) else ""
        raise type(exc)(f"{label} {model.kind!r}{path}: {exc}") from exc


class ReplicateGenerator:
    """Precomputes the covariance root, the fingerprints and the base seed's pool for repeated draws.

    A model that cannot be built raises here, its message naming the model.
    """

    def __init__(self, scenario: SimulationScenario):
        self.scenario = scenario
        n, sigma, x = scenario.n_dim, scenario.sigma_model, scenario.true_x
        self.root = _built("sigma_model", sigma, lambda: _psd_sqrt(sigma.build(n)))
        self.x_true = _built("true_x", x, lambda: x.build(n, scenario.n_forcings))
        self.seeds = _SpawnedSeeds(scenario.base_seed)

    def draw(self, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The replicates ``indices`` as stacked arrays y (R, N), x_tilde (R, N, p), Z (R, N, m).

        Row r is replicate indices[r], drawn from its own streams, those of
        ``default_rng(SeedSequence(entropy=base_seed, spawn_key=(indices[r], s)))``
        for s = 0 (the regression error), 1..p (each fingerprint's noise) and
        p + 1 (the control runs); the streams of the whole block are seeded
        in one vectorized pass (``_SpawnedSeeds``). The loop only fills each
        replicate's normals; Sigma^(1/2) then multiplies the block's (R, p+1,
        N, 1) stack of them (a matrix-vector product per replicate) and its
        (R, N, m) stack (one product per replicate) in one matmul each.
        Nothing is validated here; ``make`` builds a checked DetectionDataset.
        """
        scn = self.scenario
        n, p, count = scn.n_dim, scn.n_forcings, len(indices)
        signal = scn.gamma * self.x_true
        vectors = np.empty((count, p + 1, n, 1))
        runs = np.empty((count, n, scn.m_runs))
        for r, streams in enumerate(self.seeds.streams(indices, p + 2)):
            for s in range(p + 1):
                streams[_STREAM_EPS + s].standard_normal(out=vectors[r, s, :, 0])
            streams[_STREAM_CONTROL_OFFSET + p].standard_normal(out=runs[r])
        noise = np.matmul(self.root, vectors)[..., 0]
        y = signal @ np.asarray(scn.true_beta) + noise[:, 0]
        x_tilde = signal + noise[:, 1:].swapaxes(-1, -2) / np.sqrt(scn.ensemble_sizes)
        return y, x_tilde, np.matmul(self.root, runs)

    def make(self, rep_index: int) -> DetectionDataset:
        """Replicate ``rep_index`` as a DetectionDataset: ``draw`` of one, checked.

        A lone replicate pays the block's fixed seeding cost alone; only the
        fault refit and ``generate_replicate`` take this path.
        """
        (y,), (x_tilde,), (z,) = self.draw([as_count(rep_index, "rep_index", 0)])
        return DetectionDataset(
            y=y,
            x_tilde=x_tilde,
            ensemble_sizes=np.asarray(self.scenario.ensemble_sizes),
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


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Aggregates of one study and its per-replicate columns, row r for replicate r.

    The columns are those given to ``summarize_replicates``, plus
    ``covered`` (R, p), False on a failed row. ``failure_counts`` maps
    error type -> failed replicates. The report holds arrays, so it has no
    ``==``.
    """

    per_forcing: tuple[ForcingMetrics, ...]
    lambda_opt: np.ndarray
    beta_hat: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    covered: np.ndarray
    error: np.ndarray
    n_replicates: int
    n_failed: int
    elapsed_seconds: float
    failure_counts: dict[str, int]

    @property
    def replicates(self) -> tuple[ReplicateRecord, ...]:
        """One ReplicateRecord per row, in index order, formed from the columns on each read."""
        columns = (self.lambda_opt, self.beta_hat, self.ci_lower, self.ci_upper, self.covered, self.error)
        return tuple(
            ReplicateRecord(i, tuple(beta), lam, tuple(lower), tuple(upper), tuple(cov))
            if error is None
            else ReplicateRecord(i, None, None, None, None, None, error)
            for i, (lam, beta, lower, upper, cov, error) in enumerate(zip(*(c.tolist() for c in columns)))
        )


def _block_cache(gen: ReplicateGenerator, block) -> SpectralCache:
    """The stacked cache of the replicates ``block``, drawn in one call.

    Raises FinprintError when N < p + 1 or a replicate's y or x_tilde is not
    finite (the stacked fit would make those NoFeasiblePoint rows), and
    whatever the stacked cache raises, NonFinite for a non-finite Z.
    """
    y, x_tilde, z = gen.draw(block)
    if y.shape[-1] < x_tilde.shape[-1] + 1 or not (np.isfinite(y).all() and np.isfinite(x_tilde).all()):
        raise FinprintError("a replicate of the block has no valid dataset")
    return build_cache(z, x_tilde, y)


def _error_text(exc: FinprintError) -> str:
    """A failed replicate's error column: the exception's type name, a colon and its message."""
    return f"{type(exc).__name__}: {exc}"


def _run_chunk(gen: ReplicateGenerator, indices, options: FitOptions):
    """The columns of the replicates ``indices``: drawn and decomposed in blocks, fitted in passes.

    Row r is replicate indices[r]: ``lambda_opt`` (R,); ``beta_hat``,
    ``ci_lower`` and ``ci_upper`` (R, p), NaN on a failed row; ``error``
    (R,), "Type: message", None on a fitted row. A pass's rows are its
    ``StackedFit`` columns as they are, in index order.

    A block is ``stack_size`` replicates, whose weight stack fits
    STACK_ELEMENTS doubles; Z and S exist a block at a time. A pass holds
    whole blocks, at most as many as keep its (P, G, p+1, p+1) Gram stack,
    the largest array of the grid's per-point stage, within STACK_ELEMENTS
    too; ``indices`` take the fewest passes that fit, their blocks spread
    evenly (two passes of four blocks of 13 for 100 replicates at N = 48,
    p = 2, G = 100, where five would fit). One ``fit_stack`` fits a pass's
    blocks' caches, concatenated. Every cache holds min(N, m) eigenvalues,
    whatever the rank of its control runs, so any of them stack. This is
    the one place a failure is isolated, and the pass is its unit: when a
    block's draw check, a block's cache or the pass's fit raises, every
    replicate of the pass is refitted alone through ``fit_optimal``, so
    each error stays with its replicate and every row holds what
    ``fit_optimal`` gives.
    """
    scenario, p = gen.scenario, gen.scenario.n_forcings
    count = len(indices)
    block = stack_size(min(scenario.n_dim, scenario.m_runs), options.grid_size)
    # (p+1)^2 Gram entries per grid point: the weight row of (p+1)^2 - 1 eigenvalues.
    most = block * max(1, stack_size(p * (p + 2), options.grid_size) // block)
    passes = max(1, -(-count // most))
    per_pass = block * max(1, -(-count // (block * passes)))
    lambda_opt = np.full(count, np.nan)
    beta_hat, ci_lower, ci_upper = (np.full((count, p), np.nan) for _ in range(3))
    error = np.full(count, None, dtype=object)

    def fit_alone(rows):
        for r in rows:
            try:
                fit = fit_optimal(gen.make(indices[r]), options)
            except FinprintError as exc:
                error[r] = _error_text(exc)
            else:
                lambda_opt[r], beta_hat[r] = fit.lambda_opt, fit.beta_hat
                ci_lower[r], ci_upper[r] = zip(*fit.intervals)

    for start in range(0, count, per_pass):
        rows = slice(start, min(start + per_pass, count))
        try:
            caches = [_block_cache(gen, indices[first : first + block]) for first in range(start, rows.stop, block)]
            stack = replace(caches[0], **{f: np.concatenate([getattr(c, f) for c in caches]) for f in STACKED})
            fit = fit_stack(stack, scenario.ensemble_sizes, options)
        except FinprintError:
            fit_alone(range(count)[rows])
        else:
            lambda_opt[rows], beta_hat[rows] = fit.lambda_opt, fit.beta_hat
            ci_lower[rows], ci_upper[rows] = fit.ci_lower, fit.ci_upper
            error[rows][~fit.feasible] = _error_text(NoFeasiblePoint(NO_FEASIBLE))
    return lambda_opt, beta_hat, ci_lower, ci_upper, error


def summarize_replicates(
    lambda_opt, beta_hat, ci_lower, ci_upper, error, true_beta, elapsed_seconds: float = 0.0
) -> SimulationReport:
    """Aggregate per-replicate columns, row r for replicate r, into per-forcing metrics.

    The columns are ``_run_chunk``'s, as arrays or lists: ``lambda_opt``
    (R,); ``beta_hat``, ``ci_lower`` and ``ci_upper`` (R, p); ``error``
    (R,), None on a fitted row. A fitted row covers forcing i when
    ci_lower <= true_beta[i] <= ci_upper. Failed replicates are excluded
    from every aggregate but counted in ``n_failed`` and, by error type, in
    ``failure_counts``; the sample SD uses divisor R-1, so it is NaN from a
    single successful replicate.
    """
    lambda_opt, beta_hat, ci_lower, ci_upper = map(np.asarray, (lambda_opt, beta_hat, ci_lower, ci_upper))
    error = np.asarray(error, dtype=object)
    truth = np.asarray(true_beta, dtype=float)
    covered = (ci_lower <= truth) & (truth <= ci_upper)
    good = np.equal(error, None)
    n_good = int(np.count_nonzero(good))
    beta, lengths, hits = beta_hat[good], (ci_upper - ci_lower)[good], covered[good].astype(float)
    per_forcing = tuple(
        ForcingMetrics(
            bias=float(beta[:, i].mean() - true_beta[i]),
            sd=float(beta[:, i].std(ddof=1)) if n_good > 1 else np.nan,
            mean_ci_length=float(lengths[:, i].mean()),
            coverage_rate=float(hits[:, i].mean()),
        )
        if n_good
        else ForcingMetrics(np.nan, np.nan, np.nan, np.nan)
        for i in range(len(true_beta))
    )
    failures = Counter(e.split(":", 1)[0] for e in error[~good].tolist())
    return SimulationReport(
        per_forcing=per_forcing,
        lambda_opt=lambda_opt,
        beta_hat=beta_hat,
        ci_lower=ci_lower,
        ci_upper=ci_upper,
        covered=covered,
        error=error,
        n_replicates=len(error),
        n_failed=len(error) - n_good,
        elapsed_seconds=elapsed_seconds,
        failure_counts=dict(sorted(failures.items())),
    )


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A process pool of ``workers`` spawned processes, each with one BLAS thread.

    A forked worker would keep the parent's BLAS thread pool, and J such
    pools oversubscribe the cores. A spawned worker imports NumPy afresh and
    sizes its pool from the thread variables, which are 1 while the pool
    runs and are restored, set or unset as they were, afterwards; the
    parent's own BLAS pool, set up at its import, does not change.
    """
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {name: os.environ.get(name) for name in names}
    os.environ.update(dict.fromkeys(names, "1"))
    try:
        # The pool class loads concurrent.futures.process, and multiprocessing
        # (its ``mp``) with it, only here.
        executor = concurrent.futures.ProcessPoolExecutor
        spawn = concurrent.futures.process.mp.get_context("spawn")
        with executor(max_workers=workers, mp_context=spawn) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_scenario(scenario: SimulationScenario, jobs: int = 1) -> SimulationReport:
    """Run the full Monte Carlo loop: generate, fit, interval, aggregate.

    Replicates are independent; with ``jobs > 1`` each of J = min(jobs,
    replicates) spawned processes with one BLAS thread (``_worker_pool``)
    fits the contiguous share R*k//J up to R*(k+1)//J in stacks, so the
    columns the shares return, concatenated, are in index order.
    Columns and aggregates are identical for any jobs value (at one BLAS
    thread, as in a worker) and stack size because every replicate owns its
    seed-derived streams, its row is what ``fit_optimal`` gives, and rows
    are reduced in index order. Sigma's root and the fingerprints are built
    once, before any process starts.
    """
    jobs = as_count(jobs, "jobs")
    options = scenario.fit_options
    start = time.perf_counter()
    gen = ReplicateGenerator(scenario)
    indices = range(scenario.replicates)
    workers = min(jobs, scenario.replicates)
    if workers > 1:
        cuts = [scenario.replicates * k // workers for k in range(workers + 1)]
        with _worker_pool(workers) as pool:
            futures = [pool.submit(_run_chunk, gen, indices[a:b], options) for a, b in zip(cuts, cuts[1:])]
            parts = [fut.result() for fut in futures]
        columns = [np.concatenate(column) for column in zip(*parts)]
    else:
        columns = _run_chunk(gen, indices, options)
    elapsed = time.perf_counter() - start
    return summarize_replicates(*columns, scenario.true_beta, elapsed)
