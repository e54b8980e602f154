"""Variance profiles, discrete joint measures, quadrature, and complex kernels.

The limiting-spectrum machinery works with four ingredients:

* a variance profile, an evaluable map ``(x, y) in [0,1]^2 -> sigma^2 >= 0``;
* a discrete probability measure on ``[0,1] x R+`` holding atoms
  ``(u_i, lambda_i, w_i)`` where ``lambda`` is the squared diagonal offset;
* a quadrature rule for the Lebesgue component living on ``[c, 1]``;
* complex weighted point measures whose weights are iterated by the solver.

All types are immutable after construction and all operations are pure, so
instances can be shared freely across threads.
"""

import math

import numpy as np

from .errors import InvalidInput, check_count, check_range, check_ratio

_MASS_TOL = 1e-12


class VarianceProfile:
    """Evaluable variance profile on the unit square.

    Four closed-form kinds are supported, each built only by the classmethod
    of its ``kind`` name.  Every kind guarantees ``0 <= sigma2(x, y) <=
    sigma_max_sq`` and bit-reproducible evaluation.  All kinds except the
    block profile are continuous.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("build a profile with constant, separable, bilinear or blocks")

    @classmethod
    def _build(cls, kind, sigma_max_sq, params):
        profile = object.__new__(cls)
        profile.kind, profile.sigma_max_sq, profile._params = kind, sigma_max_sq, params
        return profile

    @classmethod
    def constant(cls, value):
        """sigma2(x, y) = value."""
        value = check_range(float(value), "constant profile value")
        return cls._build("constant", value, (value,))

    @classmethod
    def separable(cls, g_values, h_values):
        """sigma2(x, y) = g(x) * h(y), g and h piecewise linear on [0, 1].

        ``g_values`` and ``h_values`` are sampled on uniform grids over
        [0, 1] (at least two points each) and must be nonnegative.
        """
        g = np.asarray(g_values, dtype=float)
        h = np.asarray(h_values, dtype=float)
        for name, arr in (("g_values", g), ("h_values", h)):
            if arr.ndim != 1 or arr.size < 2:
                raise InvalidInput(f"{name} must be a 1-d sequence, length >= 2")
            check_range(arr, name)
        gx = np.linspace(0.0, 1.0, g.size)
        hx = np.linspace(0.0, 1.0, h.size)
        smax = float(g.max() * h.max())
        return cls._build("separable", smax, (g, gx, h, hx))

    @classmethod
    def bilinear(cls, values):
        """Bilinear interpolation of an (R+1) x (R+1) grid of sigma2 values.

        With i = floor(x*R), s = x*R - i (and j, t likewise in y):

            sigma2 = (1-s)(1-t) v[i,j] + s(1-t) v[i+1,j]
                     + (1-s)t v[i,j+1] + s t v[i+1,j+1]

        The interpolant attains its maximum at grid nodes, so
        ``sigma_max_sq = values.max()``.
        """
        v = np.asarray(values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] < 2:
            raise InvalidInput("bilinear grid must be square, at least 2x2")
        check_range(v, "bilinear grid values")
        return cls._build("bilinear", float(v.max()), (v,))

    @classmethod
    def blocks(cls, values):
        """Piecewise-constant profile: sigma2 is v[i, j] on block (i, j)."""
        v = np.asarray(values, dtype=float)
        if v.ndim != 2 or v.size == 0:
            raise InvalidInput("block values must form a 2-d array")
        check_range(v, "block values")
        return cls._build("blocks", float(v.max()), (v,))

    def evaluate(self, x, y):
        """Vectorized sigma2(x, y); x and y broadcast together."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        if self.kind == "constant":
            out = np.full(x.shape, self._params[0])
        elif self.kind == "separable":
            g, gx, h, hx = self._params
            out = (np.interp(x.ravel(), gx, g).reshape(x.shape)
                   * np.interp(y.ravel(), hx, h).reshape(y.shape))
        elif self.kind == "bilinear":
            (v,) = self._params
            r = v.shape[0] - 1
            i, s = _cell(x, r)
            j, t = _cell(y, r)
            out = ((1 - s) * (1 - t) * v[i, j] + s * (1 - t) * v[i + 1, j]
                   + (1 - s) * t * v[i, j + 1] + s * t * v[i + 1, j + 1])
        else:
            (v,) = self._params
            out = v[_cell(x, v.shape[0])[0], _cell(y, v.shape[1])[0]]
        return out if out.shape else float(out)

    def transposed(self, scale):
        """The profile ``scale * sigma2(y, x)``, of the same kind.

        An N x n matrix with entries ``sigma(i/N, j/n) X_ij / sqrt(n)`` has
        as its transpose the n x N matrix with entries ``sigma'(j/n, i/N)
        X_ij / sqrt(N)``, where ``sigma'^2 = transposed(N / n)``.  Each kind
        has one exact rule: a constant is scaled, the factors of a
        separable profile swap (``g' = scale h``, ``h' = g``), and a
        bilinear or block grid is transposed and scaled.  ``scale`` is
        finite and > 0.
        """
        scale = check_range(scale, "scale", open_low=True)
        if self.kind == "constant":
            return type(self).constant(scale * self._params[0])
        if self.kind == "separable":
            g, _, h, _ = self._params
            return type(self).separable(scale * h, g)
        grid = scale * self._params[0].T
        return type(self).bilinear(grid) if self.kind == "bilinear" else type(self).blocks(grid)

    def factors(self, x, y):
        """Separable factors ``(phi(x), V, psi(y))`` of the profile on two
        point sets, with

            phi(x) @ V @ psi(y).T == evaluate(x[:, None], y[None, :])

        for 1-d ``x`` and ``y``: exactly for the constant, separable and
        block kinds, up to rounding for the bilinear kind.  ``phi(x)`` has
        one row per point of ``x`` and ``psi(y)`` one per point of ``y``.
        The rank, the column count of both bases, is 1 for the constant
        and separable kinds (``V = [[value]]`` and ``[[1]]``); R + 1 for
        an (R+1) x (R+1) bilinear grid, whose bases are the hat functions
        of the interpolation formula (at most 2 nonzeros per row) and whose
        ``V`` is the grid; and bx and by for a bx x by block profile, whose
        bases are the block indicators (1 nonzero per row) and whose ``V``
        is the block values.
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        if self.kind == "constant":
            (value,) = self._params
            return np.ones((x.size, 1)), np.array([[value]]), np.ones((y.size, 1))
        if self.kind == "separable":
            g, gx, h, hx = self._params
            return (np.interp(x, gx, g)[:, None], np.ones((1, 1)),
                    np.interp(y, hx, h)[:, None])
        v = self._params[0].copy()
        if self.kind == "bilinear":
            r = v.shape[0] - 1
            return _hat_basis(x, r), v, _hat_basis(y, r)
        bx, by = v.shape
        return _indicator_basis(x, bx), v, _indicator_basis(y, by)

    def __repr__(self):
        return f"VarianceProfile(kind={self.kind!r}, sigma_max_sq={self.sigma_max_sq})"


def _cell(x, r):
    """Cell index ``i = floor(x r)``, clipped to [0, r - 1], of points in
    [0, 1] split into r equal cells, and the offset ``x r - i``."""
    i = np.clip(np.floor(x * r).astype(int), 0, r - 1)
    return i, x * r - i


def _hat_basis(x, r):
    """The r + 1 hat functions of the uniform grid on [0, 1] at 1-d ``x``."""
    i, s = _cell(x, r)
    rows = np.arange(x.size)
    out = np.zeros((x.size, r + 1))
    out[rows, i] = 1.0 - s
    out[rows, i + 1] = s
    return out


def _indicator_basis(x, b):
    """Indicators of the b equal cells of [0, 1] at 1-d ``x``."""
    out = np.zeros((x.size, b))
    out[np.arange(x.size), _cell(x, b)[0]] = 1.0
    return out


class JointLimitMeasure:
    """Discrete probability measure on [0,1] x R+ as atoms (u, lambda, w).

    ``lambda`` stores squared diagonal offsets, so it is nonnegative by
    construction and the sign of the offset itself is irrelevant.
    """

    def __init__(self, u, lam, w):
        u = np.asarray(u, dtype=float)
        lam = np.asarray(lam, dtype=float)
        w = np.asarray(w, dtype=float)
        if not (u.ndim == lam.ndim == w.ndim == 1) or not (u.size == lam.size == w.size):
            raise InvalidInput("u, lam, w must be 1-d sequences of equal length")
        if u.size == 0:
            raise InvalidInput("measure needs at least one atom")
        check_range(u, "positions u", 0.0, 1.0)
        check_range(lam, "lambda values")
        _check_mass(w, 1.0, "weights")
        self.u = u
        self.lam = lam
        self.w = w

    @property
    def size(self):
        return self.u.size

    @property
    def atoms(self):
        return list(zip(self.u.tolist(), self.lam.tolist(), self.w.tolist()))

    def __repr__(self):
        return f"JointLimitMeasure({self.size} atoms)"


class ComplexKernel:
    """Complex weighted point measure: fixed points, iterated complex weights."""

    def __init__(self, t, zeta, weights):
        t = np.asarray(t, dtype=float)
        zeta = np.asarray(zeta, dtype=float)
        weights = np.asarray(weights, dtype=complex)
        if not (t.ndim == zeta.ndim == weights.ndim == 1):
            raise InvalidInput("kernel arrays must be 1-d")
        if not (t.size == zeta.size == weights.size):
            raise InvalidInput("points and weights must have equal length")
        self.t = t
        self.zeta = zeta
        self.weights = weights

    def total(self):
        """Total mass, the integral of 1 against the kernel."""
        return complex(self.weights.sum())

    def __len__(self):
        return self.t.size

    def __repr__(self):
        return f"ComplexKernel({len(self)} points, total={self.total():.6g})"


class QuadratureRule:
    """Positive quadrature on [c, 1] with total weight 1 - c.

    Empty when c == 1 (the interval degenerates).  The default construction
    is the composite midpoint rule, which keeps all weights positive and
    never evaluates at the endpoints.
    """

    def __init__(self, lower, nodes, weights):
        lower = check_ratio(lower, "lower endpoint")
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise InvalidInput("nodes and weights must be 1-d of equal length")
        # nodes may repeat: on an interval a few ulps wide, distinct
        # midpoints round to the same double
        check_range(np.diff(nodes), "nondecreasing nodes: each step")
        check_range(nodes, "nodes", lower, 1.0)
        _check_mass(weights, 1.0 - lower, "weights")
        self.lower = lower
        self.nodes = nodes
        self.weights = weights

    @classmethod
    def midpoint(cls, lower, count):
        lower = check_ratio(lower, "lower endpoint")
        check_count(count, "count", 1)
        if lower == 1.0:
            return cls(1.0, np.empty(0), np.empty(0))
        width = 1.0 - lower
        nodes = lower + width * (np.arange(count) + 0.5) / count
        weights = np.full(count, width / count)
        return cls(lower, nodes, weights)

    def __len__(self):
        return self.nodes.size


def empirical_H_from_diagonal(lambda_diag):
    """Atoms (i/N, Lambda_ii^2, 1/N) from a length-N diagonal of offsets."""
    lam = np.asarray(lambda_diag, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise InvalidInput("diagonal must be a nonempty 1-d sequence")
    n = lam.size
    u = np.arange(1, n + 1) / n
    return JointLimitMeasure(u, lam ** 2, np.full(n, 1.0 / n))


def _check_mass(weights, total, name):
    """Raise :class:`InvalidInput` unless the ``weights`` (an array, or a list
    of Python floats, which ``math.fsum`` adds faster) are finite, > 0 and
    sum to ``total`` within ``_MASS_TOL``."""
    w = check_range(weights, name, open_low=True)
    mass = math.fsum(weights) if isinstance(weights, list) else float(w.sum())
    if not abs(mass - total) <= _MASS_TOL:
        raise InvalidInput(f"{name} must sum to {total:.12g}, got {mass!r}")


def offset_law(h_lambda):
    """The float lists ``(lam, probs)`` of a nonempty list of ``(lambda^2, p)``
    pairs: each lambda^2 finite and >= 0, the probabilities finite, > 0 and
    summing to 1 within ``_MASS_TOL``."""
    pairs = list(h_lambda)
    lam, probs = [float(p[0]) for p in pairs], [float(p[1]) for p in pairs]
    if not pairs:
        raise InvalidInput("h_lambda must be nonempty")
    check_range(lam, "lambda values")
    _check_mass(probs, 1.0, "h_lambda weights")
    return lam, probs


def product_H(h_lambda, count):
    """Discretize du (x) H_lambda into `count` atoms at positions i/count.

    The lambda values are interleaved along u with a largest-deficit quota
    rule, so each value's total weight stays within 1/count of its target
    and the u-marginal is independent of lambda in the large-count limit.
    """
    lam_vals, probs = offset_law(h_lambda)
    check_count(count, f"count for {len(probs)} lambda values", len(probs))
    # Python floats: one numpy call per atom would cost three times as much
    assigned, lam = [0] * len(probs), []
    for i in range(1, count + 1):
        deficits = [i * p - a for p, a in zip(probs, assigned)]
        k = deficits.index(max(deficits))
        assigned[k] += 1
        lam.append(lam_vals[k])
    u = np.arange(1, count + 1) / count
    return JointLimitMeasure(u, np.array(lam), np.full(count, 1.0 / count))


def uniform_H(count, lam=0.0):
    """Midpoint discretization of du (x) delta_lam with `count` atoms."""
    check_count(count, "count", 1)
    u = (np.arange(count) + 0.5) / count
    return JointLimitMeasure(u, np.full(count, float(lam)), np.full(count, 1.0 / count))


def lambda_moment(measure):
    """First lambda moment: sum of w_i * lambda_i."""
    return float(np.dot(measure.w, measure.lam))
