"""Error taxonomy shared across the package, and its scalar input rules.

Split by what went wrong rather than where: configuration problems
(dimensions, invalid parameter combinations), numerical rank failures,
and convergence failures of numeric routines. The CLI maps each class
to a distinct exit code. The scalar input rules are written here once:
`check_count` (a positive integer), `check_index` (an integer >= 0),
`check_positive` (finite and > 0) and `check_nonnegative` (finite and
>= 0); the stream-index rule is `channel.check_stream`. Each returns the
checked value, never truncated.
"""

import math
import numbers


class ConfigurationError(ValueError):
    """Invalid or inconsistent configuration (dimensions, flags, domains)."""


class NumericalRankError(ArithmeticError):
    """A matrix that must have full column rank numerically does not."""


class NumericError(ArithmeticError):
    """A numeric routine failed to reach its requested tolerance."""

    def __init__(self, message, achieved_tolerance=None):
        super().__init__(message)
        self.achieved_tolerance = achieved_tolerance


def check_count(value, name):
    """``value`` as an int if it is an integer >= 1; a bool or a float is not."""
    return _check_integer(value, name, 1, "a positive integer")


def check_index(value, name):
    """``value`` as an int if it is an integer >= 0; a bool or a float is not."""
    return _check_integer(value, name, 0, "an integer >= 0")


def _check_integer(value, name, low, what):
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    return int(value)


def check_positive(value, name):
    """``value`` as a float if it is finite and > 0."""
    v = float(value)
    if not (math.isfinite(v) and v > 0):
        raise ConfigurationError(f"{name} must be finite and > 0, got {v}")
    return v


def check_nonnegative(value, name):
    """``value`` as a float if it is finite and >= 0."""
    v = float(value)
    if not (math.isfinite(v) and v >= 0):
        raise ConfigurationError(f"{name} must be finite and >= 0, got {v}")
    return v
