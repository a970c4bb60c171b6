"""Exception and warning types shared across the package."""

__all__ = [
    "FinprintError",
    "NonFinite",
    "DimensionMismatch",
    "EigenFailure",
    "VerticalSolution",
    "NoFeasiblePoint",
    "NonpositiveVariance",
    "SingularXi",
    "OutOfDomain",
    "InvalidCorrelation",
    "NotPSD",
    "NearDegenerateWarning",
]


class FinprintError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(FinprintError):
    """Input contains NaN or infinite entries."""


class DimensionMismatch(FinprintError):
    """Array shapes are inconsistent with each other or with metadata."""


class EigenFailure(FinprintError):
    """The symmetric eigensolver failed to converge."""


class VerticalSolution(FinprintError):
    """No finite scaling-factor solution: the minimizing eigenvector has a
    (numerically) zero last component."""


class NoFeasiblePoint(FinprintError):
    """Every grid point in the regularization search was infeasible."""


class NonpositiveVariance(FinprintError):
    """A variance estimate required to be positive was <= 0."""


class SingularXi(FinprintError):
    """The estimated asymptotic covariance cannot be inverted."""


class OutOfDomain(FinprintError, ValueError):
    """Argument outside the domain of the function: an input-range check failed."""


class InvalidCorrelation(FinprintError):
    """AR(1) coefficient outside (-1, 1) or nonpositive variances."""


class NotPSD(FinprintError):
    """Matrix required to be positive semidefinite is not."""


class NearDegenerateWarning(UserWarning):
    """Smallest eigenvalue of the augmented Gram matrix is nearly tied;
    the reported solution is numerically non-unique."""
