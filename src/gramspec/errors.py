"""Exception types shared across the package, the one Stieltjes-class rule,
and the argument rules: every real argument with a range passes
:func:`check_range` (finite and inside its interval, so NaN fails), every
count :func:`check_count`, every point z :func:`upper_half_plane`, and
every density grid :func:`check_x_grid`."""

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


# an array up to this size is tested entry by entry, which costs less than
# the two numpy reductions that test a longer one
_SHORT = 16


def check_range(values, name, low=0.0, high=math.inf, *, open_low=False):
    """``float(values)`` for a number, else ``np.asarray(values, dtype=float)``;
    raises :class:`InvalidInput` unless every entry is finite and lies in
    ``[low, high]``, or in ``(low, high]`` with ``open_low`` (``low`` finite).
    A long array is tested at its min and max, which carry any NaN."""
    if isinstance(values, (float, int, np.floating, np.integer)):
        values = float(values)
        entries = (values,)
    else:
        values = np.asarray(values, dtype=float)
        if values.ndim == 0:
            return check_range(float(values), name, low, high, open_low=open_low)
        entries = (values.ravel().tolist() if values.size <= _SHORT
                   else (values.min(), values.max()))
    for v in entries:
        # the test each entry must pass, so a NaN fails it
        if not ((low < v if open_low else low <= v) and v <= high and v < math.inf):
            rule = (f"be finite and {'>' if open_low else '>='} {low:.12g}" if high == math.inf
                    else f"lie in {'(' if open_low else '['}{low:.12g}, {high:.12g}]")
            raise InvalidInput(f"{name} must {rule}, got {float(v)!r}")
    return values


def positive_height(y, name):
    """``float(y)``; raises :class:`InvalidInput` unless y is finite and > 0."""
    return check_range(y, name, open_low=True)


def check_ratio(c, name="c"):
    """``float(c)``; raises :class:`InvalidInput` unless c lies in (0, 1]."""
    return check_range(c, name, 0.0, 1.0, open_low=True)


def check_x_grid(x_grid):
    """``x_grid`` as a float array; raises :class:`InvalidInput` unless it
    holds at least two points in strictly increasing finite steps."""
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InvalidInput("x_grid must hold at least two points")
    check_range(np.diff(x), "strictly increasing x_grid: each step", open_low=True)
    return x


def check_count(value, name, floor=0, bits=None):
    """``value``; raises :class:`InvalidInput` unless it is a Python or numpy
    integer, not a bool, at or above ``floor`` (and below ``2**bits`` when
    ``bits`` is given).  A tuple passes when each of its entries does."""
    for v in value if isinstance(value, tuple) else (value,):
        if not (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                and floor <= v and (bits is None or v < 2 ** bits)):
            kind = "integers" if isinstance(value, tuple) else "an integer"
            span = f">= {floor}" if bits is None else f"in [{floor}, 2**{bits})"
            raise InvalidInput(f"{name} must be {kind} {span}, got {value!r}")
    return value


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
