"""Reduced-case oracles used to cross-validate the kernel solver.

Three independent routes to the limiting Stieltjes transform exist in
special regimes and are implemented here without touching the coupled
kernel machinery:

* constant profile, zero offset: a scalar quadratic (Marchenko-Pastur);
* constant profile, general offset law: a scalar fixed point over the
  offset distribution alone;
* zero offset, general profile: a one-kernel nested fixed point for the
  density k(u, z) of the limiting kernel in the position variable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDenominator, InvalidInput, NoConvergence, check_ratio,
                     upper_half_plane)
from .measures import offset_law

__all__ = ["ScalarFixedPointOptions", "mp_stieltjes", "mp_density", "mp_cdf",
           "iid_noncentered_f", "centered_profile_k"]


# factor on the new value in the damped iterations of the scalar oracles
DAMPING = 0.5


@dataclass
class ScalarFixedPointOptions:
    tol: float = 1e-14
    max_iters: int = 100000

    def __post_init__(self):
        if not self.tol > 0:
            raise InvalidInput("tol must be > 0")
        if self.max_iters < 1:
            raise InvalidInput("max_iters must be >= 1")


def mp_stieltjes(z, c, sigma_sq):
    """Upper-half-plane root of  z c s2 f^2 + (z - (1-c) s2) f + 1 = 0.

    This is the Stieltjes transform of the Marchenko-Pastur law with ratio
    c and scale sigma_sq, i.e. the constant-profile, zero-offset limit.
    """
    z = upper_half_plane(z)
    check_ratio(c)
    if not sigma_sq > 0:
        raise InvalidInput("sigma_sq must be > 0")
    a = z * c * sigma_sq
    b = z - (1.0 - c) * sigma_sq
    sq = np.sqrt(complex(b * b - 4.0 * a))
    r1 = (-b + sq) / (2.0 * a)
    r2 = (-b - sq) / (2.0 * a)
    # exactly one root lies in the upper half plane; prefer larger Im
    return complex(r1 if r1.imag >= r2.imag else r2)


def mp_density(x, c, sigma_sq):
    """Marchenko-Pastur density at x (vectorized), zero off the bulk.

    Support is [s2 (1 - sqrt(c))^2, s2 (1 + sqrt(c))^2]; inside, the value
    is sqrt((x+ - x)(x - x-)) / (2 pi s2 c x).
    """
    check_ratio(c)
    if not sigma_sq > 0:
        raise InvalidInput("sigma_sq must be > 0")
    x = np.asarray(x, dtype=float)
    lo = sigma_sq * (1.0 - np.sqrt(c)) ** 2
    hi = sigma_sq * (1.0 + np.sqrt(c)) ** 2
    out = np.zeros(x.shape if x.shape else (1,))
    xb = np.atleast_1d(x)
    mask = (xb > lo) & (xb < hi)
    xm = xb[mask]
    out_flat = out.reshape(-1)
    sel = mask.reshape(-1)
    out_flat[sel] = np.sqrt((hi - xm) * (xm - lo)) / (2.0 * np.pi * sigma_sq * c * xm)
    return out if x.shape else float(out[0])


def mp_cdf(c, sigma_sq, points=8001):
    """Distribution function of the Marchenko-Pastur law as a callable.

    Integrates the density under the substitution x = lo + (hi-lo) sin^2(t),
    which removes the square-root edge factors, then interpolates the
    cumulative table.  Accurate to ~1e-8 at the default resolution.
    """
    lo = sigma_sq * (1.0 - np.sqrt(c)) ** 2
    hi = sigma_sq * (1.0 + np.sqrt(c)) ** 2
    theta = np.linspace(0.0, np.pi / 2.0, points)
    xs = lo + (hi - lo) * np.sin(theta) ** 2
    integrand = mp_density(xs, c, sigma_sq) * (hi - lo) * np.sin(2.0 * theta)
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(theta))])
    cum /= cum[-1]

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, xs, cum, left=0.0, right=1.0)
        return out if x.shape else float(out)

    return cdf


def iid_noncentered_f(z, c, sigma_sq, h_lambda, opts=None):
    """Stieltjes transform for a constant profile and offset law h_lambda.

    Solves the scalar fixed point

        f = sum_k w_k / ( -z (1 + c s2 f) + (1-c) s2 + lambda_k / (1 + c s2 f) )

    by damped iteration from f = -1/z, for a finite ``sigma_sq >= 0`` and
    an :func:`~gramspec.measures.offset_law`.  The iteration runs on Python
    complex scalars: the offset law has a handful of atoms, too few for
    array arithmetic to pay for its per-call overhead.
    """
    z = upper_half_plane(z)
    check_ratio(c)
    if not 0.0 <= sigma_sq < np.inf:
        raise InvalidInput(f"sigma_sq must be finite and >= 0, got {sigma_sq!r}")
    opts = opts or ScalarFixedPointOptions()
    atoms = list(zip(*offset_law(h_lambda)))
    cs2 = c * sigma_sq
    shift = (1.0 - c) * sigma_sq
    f = -1.0 / z
    for _ in range(opts.max_iters):
        den1 = 1.0 + cs2 * f
        if abs(den1) < 1e-14:
            raise DegenerateDenominator(f"1 + c s2 f vanished at z={z}")
        base = -z * den1 + shift
        f_new = 0j
        for lam_k, w_k in atoms:
            den = base + lam_k / den1
            if abs(den) < 1e-14:
                raise DegenerateDenominator(f"resolvent denominator vanished at z={z}")
            f_new += w_k * (1.0 / den)
        f_next = DAMPING * f_new + (1.0 - DAMPING) * f
        delta = abs(f_next - f)
        f = f_next
        if delta <= opts.tol:
            return f
    raise NoConvergence(f"scalar fixed point stalled at z={z}, |delta|={delta:.3e}")


def centered_profile_k(z, c, profile, u_grid, opts=None, quad_count=None):
    """Position density k(u, z) of the limiting kernel for zero offsets.

    Solves, on the given u grid (treated as midpoints of equal cells),

        k(u) = 1 / ( -z + int_0^1 sigma2(u, t) / (1 + c J(t)) dt ),
        J(t) = int_0^1 sigma2(x, t) k(x) dx,

    by damped iteration from k = -1/z.  The t integral uses midpoint nodes
    on [0, c] at the u-grid positions scaled by c, joined with midpoint
    nodes on [c, 1] (`quad_count` of them, default the u-grid size), which
    mirrors the node layout the kernel solver induces and keeps the two
    routes comparable down to iteration tolerance.

    Returns the array of k values; integrate against the grid (mean value)
    for the Stieltjes transform.
    """
    z = upper_half_plane(z)
    check_ratio(c)
    opts = opts or ScalarFixedPointOptions()
    u = np.asarray(u_grid, dtype=float)
    if u.ndim != 1 or u.size == 0 or np.any(u < 0) or np.any(u > 1):
        raise InvalidInput("u_grid must be a nonempty 1-d array in [0, 1]")
    m = u.size
    if c == 1.0:
        t = u
        tw = np.full(m, 1.0 / m)
    else:
        q = quad_count or m
        t_hi = c + (1.0 - c) * (np.arange(q) + 0.5) / q
        t = np.concatenate([c * u, t_hi])
        tw = np.concatenate([np.full(m, c / m), np.full(q, (1.0 - c) / q)])
    sig = np.asarray(profile.evaluate(u[:, None], t[None, :]))  # (m, T)
    w_u = 1.0 / m
    k = np.full(m, -1.0 / z, dtype=complex)
    for _ in range(opts.max_iters):
        inner = 1.0 + c * (sig.T @ k) * w_u
        if np.min(np.abs(inner)) < 1e-14:
            raise DegenerateDenominator(f"inner denominator vanished at z={z}")
        denom = -z + sig @ (tw / inner)
        if np.min(np.abs(denom)) < 1e-14:
            raise DegenerateDenominator(f"outer denominator vanished at z={z}")
        k_new = DAMPING / denom + (1.0 - DAMPING) * k
        delta = float(np.max(np.abs(k_new - k)))
        k = k_new
        if delta <= opts.tol:
            return k
    raise NoConvergence(f"profile fixed point stalled at z={z}, delta={delta:.3e}")
