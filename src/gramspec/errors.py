"""Exception types shared across the package, and the argument rules and
the one Stieltjes-class rule that every module applies the same way."""

import cmath
import math

import numpy as np


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


def stieltjes_limits(z):
    """``(slack, bound)`` of :func:`check_stieltjes` per unit of numerator."""
    return 1e-10 * (1.0 + abs(z)), 1.0 / z.imag + 1e-9 * (1.0 + 1.0 / z.imag)


def check_stieltjes(z, s, num):
    """Raise :class:`NumericalFailure` unless every weight ``s_k`` lies in
    the Stieltjes class at z: ``Im s_k >= 0``, ``Im(z s_k) >= 0`` and
    ``|s_k| <= num_k / Im z``, up to the :func:`stieltjes_limits` times the
    numerator ``num_k`` (an array like ``s``, or one number).  The solver's
    weights and a resolvent's ``q_ii`` (numerator 1) pass it; a kernel's
    mass, whose numerators sum to 1, passes it by addition."""
    slack, bound = stieltjes_limits(z)
    for rule, excess in (("Im s_k >= 0", -num * slack - s.imag),
                         ("Im(z*s_k) >= 0", -num * slack - (z * s).imag),
                         ("|s_k| <= num_k/Im(z)", np.abs(s) - num * bound)):
        k = int(np.argmax(excess))      # the first NaN, if there is one
        if not excess[k] <= 0:
            raise NumericalFailure(f"weight {k} breaks {rule} by {excess[k]:.3e} at z={z}")
