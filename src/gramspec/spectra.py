"""From Stieltjes transforms to densities, distribution functions and masses.

The inversion recipe is standard: the spectral density at x is
Im f(x + i eps) / pi for a small height eps.  Point masses are never
recovered from the inversion (it smears them over a Cauchy profile of
width eps); the only atom we ever need, mass 1-c at zero on the transposed
Gram side, follows analytically from the transform relation
f_tilde(z) = c f(z) - (1-c)/z.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInput, NumericalFailure, check_count, check_range, check_ratio,
                     check_x_grid, positive_height)
from . import master_solver

__all__ = ["DensityCurve", "stieltjes_pair", "density_from_stieltjes",
           "limit_density", "check_curve_mass", "cdf_with_atom", "support_bound",
           "default_x_grid"]

_NEG_CLAMP = 1e-12
MASS_WINDOW = (0.95, 1.05)


@dataclass
class DensityCurve:
    """Sampled spectral density plus an optional point mass at zero."""

    x_grid: np.ndarray
    values: np.ndarray
    epsilon: float
    atom_at_zero: float = 0.0

    def __post_init__(self):
        self.x_grid = check_x_grid(self.x_grid)
        self.values = np.asarray(self.values, dtype=float)
        if self.x_grid.shape != self.values.shape:
            raise InvalidInput("values must match x_grid in length")
        check_range(self.values, "density values")
        self.epsilon = positive_height(self.epsilon, "epsilon")
        self.atom_at_zero = check_range(self.atom_at_zero, "atom_at_zero", 0.0, 1.0)

    def mass(self):
        """Atom plus trapezoid integral of the sampled density."""
        return self.atom_at_zero + float(np.trapezoid(self.values, self.x_grid))


def _clamped_density(f_values, where):
    vals = np.asarray([fz.imag / np.pi for fz in f_values])
    ok = np.isfinite(vals) & (vals >= -_NEG_CLAMP)
    if not ok.all():
        raise NumericalFailure(f"density {vals[np.argmin(ok)]:.3e} from inversion is not "
                               f"finite and >= -{_NEG_CLAMP:g} ({where})")
    return np.clip(vals, 0.0, None)


def stieltjes_pair(report, c, z):
    """Both transforms of a converged solve and their relation residual.

    The transposed Gram side satisfies f_tilde = c f - (1-c)/z because both
    matrices share the nonzero spectrum; the residual of that relation is a
    cheap global consistency check of a solve.
    """
    z = complex(z)
    f = complex(report.f)
    f_tilde = complex(report.f_tilde)
    residual = abs(f_tilde - (c * f - (1.0 - c) / z))
    return f, f_tilde, residual


def density_from_stieltjes(f_at, x_grid, epsilon):
    """Invert an evaluator z -> f(z) into a density curve on x_grid.

    Negative inversion values are clamped to zero when they stay above
    -1e-12; anything lower raises NumericalFailure.  Evaluator exceptions
    propagate per grid point; the grid is checked before any call.
    """
    epsilon = positive_height(epsilon, "epsilon")
    x = check_x_grid(x_grid)
    f_values = [complex(f_at(complex(xi, epsilon))) for xi in x]
    values = _clamped_density(f_values, f"epsilon={epsilon}")
    return DensityCurve(x, values, epsilon)


def limit_density(H, profile, quad, c, x_grid, epsilon, opts=None, transpose=False):
    """Density curve of the limiting spectrum via the kernel solver.

    Sweeps the solver along Im(z) = epsilon with
    :func:`~gramspec.master_solver.sweep_line`, which starts each point from
    the linear extrapolation of the answers at its two left neighbours.
    With ``transpose=True`` the curve describes the transposed Gram side:
    its absolutely continuous part is c times the primal density and it
    carries the analytic point mass 1-c at zero.  Height, ratio, then grid are
    checked before any solve.
    """
    positive_height(epsilon, "epsilon")
    check_ratio(c)
    x = check_x_grid(x_grid)
    reports = master_solver.sweep_line(x, epsilon, c, H, profile, quad, opts)
    values = _clamped_density([rep.f for rep in reports], f"epsilon={epsilon}")
    if transpose:
        return DensityCurve(x, c * values, epsilon, atom_at_zero=1.0 - c)
    return DensityCurve(x, values, epsilon)


def check_curve_mass(total):
    """``total``, the sampled mass of a density curve; raises
    :class:`NumericalFailure` unless it lies in ``MASS_WINDOW``."""
    if not MASS_WINDOW[0] <= total <= MASS_WINDOW[1]:
        raise NumericalFailure(f"curve mass {total:.4f} outside {MASS_WINDOW}; refine the grid")
    return total


def cdf_with_atom(curve):
    """Distribution function of a density curve, renormalized to end at 1.

    The sampled mass (atom plus integral) must land within 5% of 1;
    quadrature and inversion smearing both leak a little.  Returns a
    vectorized callable x -> [0, 1].
    """
    x = curve.x_grid
    v = curve.values
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(x))])
    total = check_curve_mass(curve.atom_at_zero + cum[-1])
    scale = 1.0 / total
    atom = curve.atom_at_zero * scale
    cum = cum * scale

    def cdf(q):
        q = np.asarray(q, dtype=float)
        out = np.interp(q, x, cum, left=0.0, right=cum[-1]) + atom * (q >= 0)
        return out if q.shape else float(out)

    return cdf


def support_bound(profile, H, c):
    """Heuristic upper edge: (sqrt(c s2max) + sqrt(s2max))^2 + max lambda."""
    s2 = profile.sigma_max_sq
    return (np.sqrt(c * s2) + np.sqrt(s2)) ** 2 + float(H.lam.max())


def default_x_grid(profile, H, c, points):
    """Uniform grid of ``points`` points from 0 to 1.2 times the support bound."""
    check_count(points, "points", 2)
    return np.linspace(0.0, 1.2 * support_bound(profile, H, c), points)
