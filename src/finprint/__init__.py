"""Regularized fingerprinting for errors-in-variables regression.

Total-least-squares scaling-factor estimation with linear-shrinkage weight
matrices, a consistent plug-in estimate of the estimator's asymptotic
covariance, data-driven selection of the regularization level, confidence
intervals with detection/attribution verdicts, and a Monte Carlo harness.
"""

__version__ = "0.1.0"

from .dataset import (
    DetectionDataset,
    SampleCovariance,
    compute_sample_covariance,
    validate_dataset,
)
from .errors import (
    DimensionMismatch,
    EigenFailure,
    FinprintError,
    InputError,
    NoFeasiblePoint,
    NonFinite,
    NotPSD,
    OutOfDomain,
    SchemaError,
)
from .inference import FitResult, Verdict, da_verdict
from .spectral import build_cache
from .simulate import (
    IdentitySigma,
    SeparableAr1Sigma,
    SimulationScenario,
    SyntheticFingerprints,
    UnstructuredSigma,
    UserMatrixFingerprints,
    UserMatrixSigma,
    generate_replicate,
    run_scenario,
)
from .tls import tls_fit
from .variance import (
    FitOptions,
    LambdaCurve,
    delta1_hat,
    delta2_hat,
    evaluate_lambda,
    fit_optimal,
    select_lambda,
    xi_hat,
)

# The documented API. Every other public type and helper stays importable
# from its own module (finprint.simulate.SimulationReport, ...).
__all__ = [
    "__version__",
    # dataset
    "DetectionDataset",
    "SampleCovariance",
    "compute_sample_covariance",
    "validate_dataset",
    # spectral
    "build_cache",
    # tls
    "tls_fit",
    # variance
    "LambdaCurve",
    "FitOptions",
    "delta1_hat",
    "delta2_hat",
    "xi_hat",
    "evaluate_lambda",
    "select_lambda",
    "fit_optimal",
    # inference
    "FitResult",
    "Verdict",
    "da_verdict",
    # simulate
    "SimulationScenario",
    "IdentitySigma",
    "SeparableAr1Sigma",
    "UserMatrixSigma",
    "UnstructuredSigma",
    "SyntheticFingerprints",
    "UserMatrixFingerprints",
    "generate_replicate",
    "run_scenario",
    # errors
    "FinprintError",
    "InputError",
    "SchemaError",
    "NonFinite",
    "DimensionMismatch",
    "OutOfDomain",
    "NotPSD",
    "EigenFailure",
    "NoFeasiblePoint",
]
