import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import settings

import finprint as fp
from finprint import dataset

# Every hypothesis failure prints the @reproduce_failure blob that replays
# its draw. The profile inherits the active one (hypothesis's "ci" profile
# under CI), so example counts, deadlines and randomization are unchanged.
settings.register_profile("finprint", parent=settings.default, print_blob=True)
settings.load_profile("finprint")


def random_arrays(seed=0, n=8, p=2, m=12):
    """Seeded random ``(control runs, x_tilde, y)``."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, m))
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return z, x, y


def random_problem(seed=0, n=8, p=2, m=12):
    """Seeded random ``(sample covariance, x_tilde, y)``."""
    z, x, y = random_arrays(seed, n, p, m)
    return fp.compute_sample_covariance(z), x, y


def random_cache(seed=0, n=8, p=2, m=12):
    """Spectral cache built from a seeded random problem instance."""
    return fp.build_cache(*random_problem(seed, n, p, m))


def random_dataset(seed=0, n=12, p=2, m=20, ensemble_sizes=(3, 5)):
    rng = np.random.default_rng(seed)
    return fp.DetectionDataset(
        y=rng.standard_normal(n),
        x_tilde=rng.standard_normal((n, p)),
        ensemble_sizes=np.asarray(ensemble_sizes),
        control_runs=rng.standard_normal((n, m)),
    )


def reported_interval(beta, xi, n_dim, alpha=0.05):
    """The interval ``build_fit_result`` reports for one forcing with estimate
    ``beta`` and variance ``xi``: a one-replicate curve on a one-point grid."""
    curve = fp.LambdaCurve(
        grid=np.ones((1, 1)),
        beta_hat=np.full((1, 1, 1), beta),
        k_hat=np.zeros((1, 1)),
        xi_hat=np.full((1, 1, 1, 1), xi),
        stability=np.ones((1, 1)),
        reason=np.full((1, 1), None),
        n_near_degenerate=np.zeros(1, dtype=int),
    )
    fit = fp.inference.build_fit_result(curve, n_dim, alpha)
    return float(fit.ci_lower[0, 0]), float(fit.ci_upper[0, 0])


@pytest.fixture
def cache_factory():
    return random_cache


@pytest.fixture
def dataset_factory():
    return random_dataset


@pytest.fixture
def validate_calls(monkeypatch):
    """The datasets validate_dataset is called on, through whichever module binds it."""
    calls = []
    original = dataset.validate_dataset

    def counted(ds):
        calls.append(ds)
        return original(ds)

    names = [m.name for m in pkgutil.iter_modules(fp.__path__) if m.name != "__main__"]
    for module in [fp, *(importlib.import_module(f"finprint.{name}") for name in names)]:
        if getattr(module, "validate_dataset", None) is original:
            monkeypatch.setattr(module, "validate_dataset", counted)
    return calls
