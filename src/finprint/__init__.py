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
    ValidationReport,
    compute_sample_covariance,
    ensemble_mean,
    validate_dataset,
)
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    EigenFailure,
    FinprintError,
    InvalidCorrelation,
    NearDegenerateWarning,
    NoConvergence,
    NoFeasiblePoint,
    NonFinite,
    NonpositiveVariance,
    NotPSD,
    OutOfDomain,
    SingularDelta1,
    SingularXi,
    VerticalSolution,
)
from .inference import (
    FitResult,
    JointRegionResult,
    Verdict,
    da_verdict,
    joint_region_test,
    marginal_ci,
    quantile_chisq,
    quantile_normal,
)
from .spectral import (
    RmtFunctionals,
    SpectralCache,
    build_cache,
    g_forms,
    q1,
    q2,
    rmt_functionals,
    stability_margin,
    theta1,
    theta2,
    whiten,
)
from .simulate import (
    ForcingMetrics,
    IdentitySigma,
    ReplicateRecord,
    SeparableAr1Sigma,
    SimulationReport,
    SimulationScenario,
    SyntheticFingerprints,
    UnstructuredSigma,
    UserMatrixFingerprints,
    UserMatrixSigma,
    build_sigma_st,
    build_sigma_un,
    generate_replicate,
    run_scenario,
    sample_mvn,
    summarize_replicates,
)
from .tls import TlsSolution, tls_fit, tls_objective
from .variance import (
    FitOptions,
    LambdaCurve,
    XiEstimate,
    delta1_hat,
    delta2_hat,
    evaluate_lambda,
    fit_optimal,
    k_hat,
    select_lambda,
    xi_hat,
)

__all__ = [
    "__version__",
    # dataset
    "DetectionDataset",
    "SampleCovariance",
    "ValidationReport",
    "compute_sample_covariance",
    "ensemble_mean",
    "validate_dataset",
    # spectral
    "SpectralCache",
    "RmtFunctionals",
    "build_cache",
    "q1",
    "q2",
    "theta1",
    "theta2",
    "g_forms",
    "whiten",
    "rmt_functionals",
    "stability_margin",
    # tls
    "TlsSolution",
    "tls_fit",
    "tls_objective",
    # variance
    "XiEstimate",
    "LambdaCurve",
    "FitOptions",
    "delta1_hat",
    "delta2_hat",
    "k_hat",
    "xi_hat",
    "evaluate_lambda",
    "select_lambda",
    "fit_optimal",
    # inference
    "FitResult",
    "Verdict",
    "JointRegionResult",
    "marginal_ci",
    "joint_region_test",
    "da_verdict",
    "quantile_normal",
    "quantile_chisq",
    # simulate
    "SimulationScenario",
    "SimulationReport",
    "ForcingMetrics",
    "ReplicateRecord",
    "IdentitySigma",
    "SeparableAr1Sigma",
    "UserMatrixSigma",
    "UnstructuredSigma",
    "SyntheticFingerprints",
    "UserMatrixFingerprints",
    "build_sigma_st",
    "build_sigma_un",
    "sample_mvn",
    "generate_replicate",
    "run_scenario",
    "summarize_replicates",
    # errors
    "FinprintError",
    "NonFinite",
    "DimensionMismatch",
    "EigenFailure",
    "DegenerateDenominator",
    "VerticalSolution",
    "SingularDelta1",
    "NoFeasiblePoint",
    "NonpositiveVariance",
    "SingularXi",
    "OutOfDomain",
    "InvalidCorrelation",
    "NotPSD",
    "NoConvergence",
    "NearDegenerateWarning",
]
