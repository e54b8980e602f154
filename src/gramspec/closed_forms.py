"""Reduced-case oracles used to cross-validate the kernel solver.

Three independent routes to the limiting Stieltjes transform exist in
special regimes and are implemented here without touching the coupled
kernel machinery:

* constant profile, zero offset: a scalar quadratic (Marchenko-Pastur);
* constant profile, general offset law: a scalar fixed point over the
  offset distribution alone, finished by Newton steps that are kept only
  inside the Stieltjes class;
* zero offset, general profile: a one-kernel nested fixed point for the
  density k(u, z) of the limiting kernel in the position variable.
"""

import numpy as np

from .errors import (DegenerateDenominator, InvalidInput, NoConvergence, check_range,
                     check_ratio, upper_half_plane)
from .measures import offset_law

__all__ = ["mp_stieltjes", "mp_density", "mp_cdf", "iid_noncentered_f",
           "centered_profile_k"]


# the iterations of the two fixed-point oracles: factor on the new value of
# a damped step, stop once a step (damped, or Newton in iid_noncentered_f)
# moves the iterate by at most TOL (a Newton step of iid_noncentered_f also
# stops at TOL |f|), give up after MAX_ITERS steps or on a denominator of
# magnitude below MIN_DENOMINATOR
DAMPING = 0.5
TOL = 1e-14
MAX_ITERS = 100000
MIN_DENOMINATOR = 1e-14
# iid_noncentered_f tries a Newton step once a damped step is at most this
# fraction of |f|.  On the 500 points of the Monte Carlo reference curve
# (Im z = 1e-3) damped steps alone took 63 112 steps, at most 3974 per call;
# from a tenth they take 7376, at most 36.  From a third, Newton steps left
# the class or cycled.
_NEWTON_START = 0.1


def mp_stieltjes(z, c, sigma_sq):
    """Upper-half-plane root of  z c s2 f^2 + (z - (1-c) s2) f + 1 = 0.

    This is the Stieltjes transform of the Marchenko-Pastur law with ratio
    c and scale sigma_sq, i.e. the constant-profile, zero-offset limit.
    """
    z = upper_half_plane(z)
    c = check_ratio(c)
    sigma_sq = check_range(sigma_sq, "sigma_sq", open_low=True)
    a = z * c * sigma_sq
    b = z - (1.0 - c) * sigma_sq
    sq = np.sqrt(complex(b * b - 4.0 * a))
    if (b.conjugate() * sq).real < 0.0:
        sq = -sq
    # b and sq point into one half plane, so -b - sq does not cancel; the
    # other root follows from the product of the roots, 1/a
    r1 = (-b - sq) / (2.0 * a)
    r2 = 1.0 / (a * r1)
    # exactly one root lies in the upper half plane; prefer larger Im
    return complex(r1 if r1.imag >= r2.imag else r2)


def mp_density(x, c, sigma_sq):
    """Marchenko-Pastur density at x (vectorized), zero off the bulk.

    Support is [s2 (1 - sqrt(c))^2, s2 (1 + sqrt(c))^2]; inside, the value
    is sqrt((x+ - x)(x - x-)) / (2 pi s2 c x).
    """
    c = check_ratio(c)
    sigma_sq = check_range(sigma_sq, "sigma_sq", open_low=True)
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


def mp_cdf(c, sigma_sq):
    """Distribution function of the Marchenko-Pastur law as a callable.

    Integrates the density under the substitution x = lo + (hi-lo) sin^2(t),
    which removes the square-root edge factors, then interpolates the
    cumulative table of 8001 points.  Accurate to ~1e-8.
    """
    c = check_ratio(c)
    sigma_sq = check_range(sigma_sq, "sigma_sq", open_low=True)
    lo = sigma_sq * (1.0 - np.sqrt(c)) ** 2
    hi = sigma_sq * (1.0 + np.sqrt(c)) ** 2
    theta = np.linspace(0.0, np.pi / 2.0, 8001)
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


def iid_noncentered_f(z, c, sigma_sq, h_lambda):
    """Stieltjes transform for a constant profile and offset law h_lambda.

    Solves the scalar fixed point

        f = sum_k w_k / ( -z (1 + c s2 f) + (1-c) s2 + lambda_k / (1 + c s2 f) )

    for a finite ``sigma_sq >= 0`` and an
    :func:`~gramspec.measures.offset_law`.  Damped steps from f = -1/z
    carry the iterate into Newton's basin.  Once a damped step is at most
    |f|/10, each step tries Newton on F(f) = f - G(f), with G'(f) summed
    over the atoms in the same loop, and takes it only if the new iterate
    stays in the Stieltjes class (Im f >= 0, Im zf >= 0, |f| <= 1/Im z);
    otherwise it takes the damped step.  It returns after a step of at most
    ``TOL``, or a Newton step of at most ``TOL |f|``: after a Newton step,
    where convergence is quadratic, that bounds the error, not only the
    step.  The Newton steps of a large ``f`` (near the origin at c = 1,
    say) end in rounding noise of a few ulps of ``f``, which an absolute
    ``TOL`` alone never reached.  The iteration runs on Python
    complex scalars: the offset law has a handful of atoms, too few for
    array arithmetic to pay for its per-call overhead.
    """
    z = upper_half_plane(z)
    c = check_ratio(c)
    sigma_sq = check_range(sigma_sq, "sigma_sq")
    atoms = list(zip(*offset_law(h_lambda)))
    cs2 = c * sigma_sq
    shift = (1.0 - c) * sigma_sq
    f = -1.0 / z
    bound = 1.0 / z.imag
    for _ in range(MAX_ITERS):
        den1 = 1.0 + cs2 * f
        if abs(den1) < MIN_DENOMINATOR:
            raise DegenerateDenominator(f"1 + c s2 f vanished at z={z}")
        base = -z * den1 + shift
        g = slope = 0j                  # G(f), and G'(f) up to the factor c s2
        for lam_k, w_k in atoms:
            den = base + lam_k / den1
            if abs(den) < MIN_DENOMINATOR:
                raise DegenerateDenominator(f"resolvent denominator vanished at z={z}")
            inv = 1.0 / den
            g += w_k * inv
            slope += w_k * (z + lam_k / (den1 * den1)) * inv * inv
        f_next = DAMPING * g + (1.0 - DAMPING) * f
        delta = abs(f_next - f)
        slope *= cs2
        if delta <= _NEWTON_START * abs(f) and slope != 1.0:
            f_newton = f + (g - f) / (1.0 - slope)
            size = abs(f_newton)
            if f_newton.imag >= 0.0 and (z * f_newton).imag >= 0.0 and size <= bound:
                f_next = f_newton
                delta = abs(f_newton - f)
                if delta <= TOL * size:
                    return f_newton
        f = f_next
        if delta <= TOL:
            return f
    raise NoConvergence(f"scalar fixed point stalled at z={z}, |delta|={delta:.3e}")


def centered_profile_k(z, c, profile, u_grid):
    """Position density k(u, z) of the limiting kernel for zero offsets.

    Solves, on the given u grid (treated as midpoints of equal cells),

        k(u) = 1 / ( -z + int_0^1 sigma2(u, t) / (1 + c J(t)) dt ),
        J(t) = int_0^1 sigma2(x, t) k(x) dx,

    by damped iteration from k = -1/z.  The t integral uses midpoint nodes
    on [0, c] at the u-grid positions scaled by c, joined with midpoint
    nodes on [c, 1], as many as the u grid has points.  That mirrors the
    node layout the kernel solver induces and keeps the two routes
    comparable down to iteration tolerance.

    Returns the array of k values; integrate against the grid (mean value)
    for the Stieltjes transform.
    """
    z = upper_half_plane(z)
    check_ratio(c)
    u = np.asarray(u_grid, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise InvalidInput("u_grid must be a nonempty 1-d array")
    check_range(u, "u_grid", 0.0, 1.0)
    m = u.size
    if c == 1.0:
        t = u
        tw = np.full(m, 1.0 / m)
    else:
        t = np.concatenate([c * u, c + (1.0 - c) * (np.arange(m) + 0.5) / m])
        tw = np.concatenate([np.full(m, c / m), np.full(m, (1.0 - c) / m)])
    sig = np.asarray(profile.evaluate(u[:, None], t[None, :]))  # (m, T)
    w_u = 1.0 / m
    k = np.full(m, -1.0 / z, dtype=complex)
    for _ in range(MAX_ITERS):
        inner = 1.0 + c * (sig.T @ k) * w_u
        if np.min(np.abs(inner)) < MIN_DENOMINATOR:
            raise DegenerateDenominator(f"inner denominator vanished at z={z}")
        denom = -z + sig @ (tw / inner)
        if np.min(np.abs(denom)) < MIN_DENOMINATOR:
            raise DegenerateDenominator(f"outer denominator vanished at z={z}")
        k_new = DAMPING / denom + (1.0 - DAMPING) * k
        delta = float(np.max(np.abs(k_new - k)))
        k = k_new
        if delta <= TOL:
            return k
    raise NoConvergence(f"profile fixed point stalled at z={z}, delta={delta:.3e}")
