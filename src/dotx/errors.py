"""Exception types shared across the package."""


class DotxError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(DotxError, ValueError):
    """A physical parameter is outside its allowed range."""


class ParameterOverflowError(InvalidParameterError):
    """Parameters in range give an input of J past the float range (d^2,
    b d^2, chi^2/d^2 or c sqrt(b)); a sweep raises it, where it marks a
    point out of range singular."""


class InvalidArgumentError(DotxError, ValueError):
    """A numerical argument is unusable (NaN, wrong domain)."""


class SingularConfigurationError(DotxError, ValueError):
    """The configuration degenerates (coincident dots, d = 0)."""


class QuadratureError(DotxError, RuntimeError):
    """An integral failed to converge.

    Carries the best available estimate so callers can still report a
    partial result.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class NoRootInBracketError(DotxError, ValueError):
    """The objective has the same sign at both bracket endpoints."""


class RootConvergenceError(DotxError, RuntimeError):
    """Root refinement hit its iteration cap; carries the best bracket."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class ScenarioError(DotxError, ValueError):
    """A switching trajectory cannot be realized with the given settings."""
