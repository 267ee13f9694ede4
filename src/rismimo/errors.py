"""Error taxonomy shared across the package, and its scalar input rules.

Split by what went wrong rather than where: configuration problems
(dimensions, invalid parameter combinations), numerical rank failures,
and convergence failures of numeric routines. The CLI maps each class
to a distinct exit code. The scalar input rules are written here once:
`check_count` (a positive integer), `check_index` (an integer >= 0),
`check_positive` (finite and > 0) and `check_nonnegative` (finite and
>= 0); the stream-index rule is `channel.check_stream`. Each returns the
checked value, never truncated. The last two also check every entry of
an array, such as the grid a closed-form law is evaluated over.
"""

import math
import numbers

import numpy as np


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


# what check_positive and check_nonnegative check entry by entry
_GRIDS = (np.ndarray, list, tuple)


def check_positive(value, name):
    """``value`` as a float if it is finite and > 0; an array as a float
    array if every entry is."""
    if isinstance(value, _GRIDS):
        return _check_grid(value, name, np.greater, "> 0")
    v = float(value)
    if not (math.isfinite(v) and v > 0):
        raise ConfigurationError(f"{name} must be finite and > 0, got {v}")
    return v


def check_nonnegative(value, name):
    """``value`` as a float if it is finite and >= 0; an array as a float
    array if every entry is."""
    if isinstance(value, _GRIDS):
        return _check_grid(value, name, np.greater_equal, ">= 0")
    v = float(value)
    if not (math.isfinite(v) and v >= 0):
        raise ConfigurationError(f"{name} must be finite and >= 0, got {v}")
    return v


def _check_grid(value, name, compare, bound):
    v = np.array(value, dtype=np.float64)
    bad = ~(np.isfinite(v) & compare(v, 0.0))
    if bad.any():
        raise ConfigurationError(f"{name} must be finite and {bound}, got {v[bad][0]}")
    return v
