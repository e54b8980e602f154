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

from .errors import InvalidInput, NumericalFailure, positive_height, upper_half_plane
from . import master_solver

__all__ = ["DensityCurve", "stieltjes_pair", "density_from_stieltjes",
           "limit_density", "mass_check", "cdf_with_atom", "support_bound",
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
        self.x_grid = np.asarray(self.x_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.x_grid.ndim != 1 or self.x_grid.size < 2:
            raise InvalidInput("x_grid must hold at least two points")
        if np.any(np.diff(self.x_grid) <= 0):
            raise InvalidInput("x_grid must be strictly increasing")
        if self.x_grid.shape != self.values.shape:
            raise InvalidInput("values must match x_grid in length")
        if np.any(self.values < 0):
            raise InvalidInput("density values must be >= 0")
        self.epsilon = positive_height(self.epsilon, "epsilon")
        if not 0 <= self.atom_at_zero <= 1:
            raise InvalidInput("atom_at_zero must lie in [0, 1]")

    def mass(self):
        """Atom plus trapezoid integral of the sampled density."""
        return self.atom_at_zero + float(np.trapezoid(self.values, self.x_grid))


def _clamped_density(f_values, where):
    vals = np.asarray([fz.imag / np.pi for fz in f_values])
    if np.any(vals < -_NEG_CLAMP):
        worst = float(vals.min())
        raise NumericalFailure(
            f"negative density {worst:.3e} from inversion ({where})")
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


def density_from_stieltjes(f_at, x_grid, epsilon, atom_at_zero=0.0):
    """Invert an evaluator z -> f(z) into a density curve on x_grid.

    Negative inversion values are clamped to zero when they stay above
    -1e-12; anything lower raises NumericalFailure.  Evaluator exceptions
    propagate per grid point.
    """
    epsilon = positive_height(epsilon, "epsilon")
    x = np.asarray(x_grid, dtype=float)
    zs = [upper_half_plane(complex(xi, epsilon)) for xi in x]
    f_values = [complex(f_at(z)) for z in zs]
    values = _clamped_density(f_values, f"epsilon={epsilon}")
    return DensityCurve(x, values, epsilon, atom_at_zero)


def limit_density(H, profile, quad, c, x_grid, epsilon, opts=None, transpose=False):
    """Density curve of the limiting spectrum via the kernel solver.

    Sweeps the solver along Im(z) = epsilon with warm starts.  With
    ``transpose=True`` the curve describes the transposed Gram side: its
    absolutely continuous part is c times the primal density and it carries
    the analytic point mass 1-c at zero.
    """
    reports = master_solver.sweep_line(x_grid, epsilon, c, H, profile, quad, opts)
    values = _clamped_density([rep.f for rep in reports], f"epsilon={epsilon}")
    if transpose:
        return DensityCurve(np.asarray(x_grid, float), c * values, epsilon,
                            atom_at_zero=1.0 - c)
    return DensityCurve(np.asarray(x_grid, float), values, epsilon)


def mass_check(f_at, y_sequence):
    """Total-mass probe Re(-i y f(iy)) along increasing heights y.

    For the transform of a probability measure the values approach 1 at a
    rate O(1/y).
    """
    ys = [positive_height(y, "y") for y in np.asarray(y_sequence, dtype=float).tolist()]
    return [float((-1j * y * complex(f_at(complex(0.0, y)))).real) for y in ys]


def cdf_with_atom(curve):
    """Distribution function of a density curve, renormalized to end at 1.

    The sampled mass (atom plus integral) must land within 5% of 1;
    quadrature and inversion smearing both leak a little.  Returns a
    vectorized callable x -> [0, 1].
    """
    x = curve.x_grid
    v = curve.values
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(x))])
    total = curve.atom_at_zero + cum[-1]
    if not MASS_WINDOW[0] <= total <= MASS_WINDOW[1]:
        raise NumericalFailure(
            f"curve mass {total:.4f} outside {MASS_WINDOW}; refine the grid")
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


def default_x_grid(profile, H, c, points=2000, pad=1.2):
    """Uniform grid from 0 to pad times the support bound."""
    if points < 2:
        raise InvalidInput("points must be >= 2")
    return np.linspace(0.0, pad * support_bound(profile, H, c), points)
