"""Exception hierarchy shared across the package."""


class CasdriftError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CasdriftError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ModelValidityError(CasdriftError):
    """A fitted material model produced an unphysical value (e.g. tau <= 0)."""


class EvaluationError(CasdriftError):
    """A formula could not be evaluated at the given mode coordinates.

    Carries the offending k and xi when available.
    """

    def __init__(self, message, k=None, xi=None):
        where = [f"k={k!r} 1/cm"] * (k is not None) + [f"xi={xi!r} rad/s"] * (xi is not None)
        if where:
            message = f"{message} [{', '.join(where)}]"
        super().__init__(message)
        self.k = k
        self.xi = xi


class SummationError(CasdriftError):
    """Matsubara summation failed; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class NormalizationError(CasdriftError):
    """A ratio could not be formed because the reference value is ~ 0."""


class ConfigError(CasdriftError):
    """Invalid run configuration (unknown key, bad value, bad combination)."""
