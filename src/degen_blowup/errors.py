"""Exception types shared across the package: one per way a run can fail,
which cli._EXIT_TABLE maps to its exit code."""


class ConfigError(ValueError):
    """A run configuration file is malformed or violates a precondition."""


class ParameterError(ValueError):
    """An input breaks a hypothesis: a value out of range, a point outside
    its domain, crossed bounds, a fit window without data.  names lists the
    parameters the refusing check read, by their names where it was raised,
    so a caller that set them can say where."""

    def __init__(self, message: str, *names: str):
        super().__init__(message)
        self.names = names


class SolverError(RuntimeError):
    """A discrete solve failed: a non-finite operator entry or a vanishing pivot."""


class CertificationError(RuntimeError):
    """A computed field failed its two-sided bound certificate."""
