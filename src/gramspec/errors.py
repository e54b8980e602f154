"""Exception types shared across the package, and the argument rules that
every module applies the same way."""

import cmath
import math


class InvalidInput(ValueError):
    """An argument violates a documented precondition."""


class NoConvergence(RuntimeError):
    """An iterative solve exhausted its iteration budget."""


class DegenerateDenominator(RuntimeError):
    """A fixed-point denominator fell below the safe-division floor."""


class NumericalFailure(RuntimeError):
    """A linear-algebra kernel failed or a numerical sanity check broke."""


class ConfigError(InvalidInput):
    """A run configuration failed validation; carries the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


def upper_half_plane(z, name="z"):
    """``complex(z)``; raises :class:`InvalidInput` unless z is finite with
    Im z > 0."""
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag > 0):
        raise InvalidInput(f"{name} must be a finite point of the upper half plane, got {z!r}")
    return z


def positive_height(y, name):
    """``float(y)``; raises :class:`InvalidInput` unless y is finite and > 0,
    the height rule of :func:`upper_half_plane`."""
    y = float(y)
    if not (math.isfinite(y) and y > 0):
        raise InvalidInput(f"{name} must be finite and > 0, got {y!r}")
    return y


def check_ratio(c, name="c"):
    """``float(c)``; raises :class:`InvalidInput` unless c lies in (0, 1]."""
    if not 0 < c <= 1:
        raise InvalidInput(f"{name} must lie in (0, 1]")
    return float(c)
