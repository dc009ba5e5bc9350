"""Exception types shared across the package."""


class _RefusedValue(ValueError):
    """A refused value.  names lists the parameters the refusing check read,
    by their names where it was raised, so a caller that set them can say where."""

    def __init__(self, message: str, *names: str):
        super().__init__(message)
        self.names = names


class ParameterError(_RefusedValue):
    """A numeric parameter violates its admissible range."""


class DomainError(_RefusedValue):
    """A point or geometric datum lies outside the domain it refers to."""


class BoundaryEvaluationError(ValueError):
    """A weight was evaluated at the boundary where it is singular or vanishes."""


class OrderingError(ValueError):
    """A lower bound field exceeds its upper bound field somewhere."""


class AssemblyError(RuntimeError):
    """A non-finite value appeared while assembling a discrete operator."""


class LinearSolveError(RuntimeError):
    """Tridiagonal elimination hit a vanishing or non-finite pivot."""


class ActivationRadiusError(RuntimeError):
    """The activation-radius root could not be bracketed inside the domain."""


class FitError(RuntimeError):
    """A rate fit was requested on data that cannot support it."""


class CertificationError(RuntimeError):
    """A computed field failed its two-sided bound certificate."""


class ConfigError(ValueError):
    """A run configuration file is malformed or violates a precondition."""
