"""Exception hierarchy shared across the package."""


class CasdriftError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CasdriftError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ModelValidityError(CasdriftError):
    """A fitted material model produced an unphysical value (e.g. tau <= 0)."""


class EvaluationError(CasdriftError):
    """A formula could not be evaluated at the given mode coordinates.

    Carries the offending (k, xi) pair when available.
    """

    def __init__(self, message, k=None, xi=None):
        if k is not None or xi is not None:
            message = f"{message} [k={k!r} 1/cm, xi={xi!r} rad/s]"
        super().__init__(message)
        self.k = k
        self.xi = xi


class SummationError(CasdriftError):
    """Matsubara summation failed; carries the partial result and diagnostics."""

    def __init__(self, message, partial=None, diagnostics=None):
        super().__init__(message)
        self.partial = partial
        self.diagnostics = dict(diagnostics or {})


class NormalizationError(CasdriftError):
    """A ratio could not be formed because the reference value is ~ 0."""


class ConfigError(CasdriftError):
    """Invalid run configuration (unknown key, bad value, bad combination)."""
