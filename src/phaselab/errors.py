"""Exception types shared across the library."""

__all__ = ["GridMismatchError", "HypothesisViolation", "NotApplicableError", "ParameterError",
           "UndefinedShiftError"]


class ParameterError(ValueError):
    """A parameter violates an operation's domain requirements."""


class HypothesisViolation(ParameterError):
    """A named hypothesis on (s, a, beta, gamma) fails for the requested bound."""


class GridMismatchError(ParameterError):
    """The frequency grid cannot host the requested construction."""


class UndefinedShiftError(ParameterError):
    """t**beta is undefined at t = 0 for beta <= 0."""


class NotApplicableError(ParameterError):
    """The time sequence fails the summability condition the experiment needs."""
