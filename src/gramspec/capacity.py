"""Channel capacity functionals of a spectrum, empirical and limiting.

The per-channel-use statistic of an N x n channel with Gram eigenvalues
mu_k and noise variance s_sq is (1/n) sum_k log(1 + mu_k / s_sq).  Its
large-system limit is c times the same log moment of the limiting Gram
spectrum.  Natural log by default; pass bits=True for log2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure, check_ratio
from .spectra import MASS_WINDOW


@dataclass
class NoiseLevel:
    """Additive-noise variance (not to be confused with the profile)."""

    s_sq: float

    def __post_init__(self):
        if not self.s_sq > 0:
            raise InvalidInput("s_sq must be > 0")


def capacity_from_spectrum(sample, noise, bits=False):
    """(1/n) sum_k log(1 + mu_k / s_sq) over a finite spectrum sample."""
    n = sample.dims[1]
    val = float(np.log1p(sample.eigenvalues / noise.s_sq).sum() / n)
    return val / math.log(2.0) if bits else val


def capacity_from_limit(curve, c, noise, bits=False):
    """c times the log moment of the limiting Gram spectrum.

    Only the primal (Gram-side) curve is meaningful here; curves carrying a
    point mass at zero describe the transposed side and are rejected.  The
    sampled density is renormalized to unit mass before integrating.
    """
    if curve.atom_at_zero > 1e-12:
        raise InvalidInput("capacity is defined on the Gram-side curve "
                           "(atom at zero must be 0)")
    check_ratio(c)
    mass = curve.mass()
    if not MASS_WINDOW[0] <= mass <= MASS_WINDOW[1]:
        raise NumericalFailure(f"curve mass {mass:.4f} outside {MASS_WINDOW}")
    integrand = np.log1p(curve.x_grid / noise.s_sq) * curve.values
    val = c * float(np.trapezoid(integrand, curve.x_grid)) / mass
    return val / math.log(2.0) if bits else val
