"""Exception types: every one the package raises."""

__all__ = [
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


class FinprintError(Exception):
    """Base class for all errors raised by this package."""


class InputError(FinprintError):
    """Base class for errors in the input: a command that raises one exits 2."""


class SchemaError(InputError):
    """Manifest or scenario document is missing or misusing a field."""


class NonFinite(InputError):
    """Input contains NaN or infinite entries."""


class DimensionMismatch(InputError):
    """Array shapes are inconsistent with each other or with metadata."""


class OutOfDomain(InputError, ValueError):
    """Argument outside the domain of the function: an input-range check failed."""


class NotPSD(InputError):
    """Matrix required to be positive semidefinite is not."""


class EigenFailure(FinprintError):
    """The symmetric eigensolver failed to converge."""


class NoFeasiblePoint(FinprintError):
    """Every grid point in the regularization search was infeasible."""

