"""Fixed-point solver for the coupled kernel system: Picard iteration,
Anderson-mixed below the contraction height.

For a ratio ``c = lim N/n`` in (0, 1], a variance profile ``sigma2`` and a
discrete limit measure ``H`` with atoms ``(u_i, lambda_i, w_i)``, the
deterministic limiting spectrum of the Gram matrices is characterized by a
pair of complex kernels ``(pi_z, pi_tilde_z)`` solving, at each z in the
upper half plane,

    pi weight at (u_i, lambda_i):
        w_i / [ -z (1 + A_i) + lambda_i / (1 + c B_i) ]

    pi_tilde atomic weight at (c u_i, lambda_i):
        c w_i / [ -z (1 + c B_i) + lambda_i / (1 + A_i) ]

    pi_tilde quadrature weight at (t_j, 0), t_j in [c, 1]:
        omega_j / [ -z (1 + c C_j) ]

where A_i integrates ``sigma2(u_i, .)`` against pi_tilde, while B_i and C_j
integrate ``sigma2(., c u_i)`` and ``sigma2(., t_j)`` against pi.  The
Stieltjes transforms of the limiting spectra (Gram and transposed Gram
side) are the total masses ``f = sum(pi)`` and ``f_tilde = sum(pi_tilde)``.

The iterate is one complex vector ``s = [p | pa | r]`` of length 2m + q:
the m weights of pi on H's atoms, then the m atomic and q quadrature
weights of pi_tilde.  The profile enters only through its separable
factors (:meth:`VarianceProfile.factors`), ``sigma2(x, y) = phi(x) V
psi(y)^T`` of rank k, kept as two thin real matrices: ``Phi = phi(u) V``
(m x k) and ``Psi = psi([c u; t])`` ((m + q) x k).  The integrals of a step
are ``A = Phi (Psi^T s[m:])`` and ``[B; C] = Psi (Phi^T s[:m])``, real
products on the (re, im) pairs of the weights that cost O((m + q) k); the
dense m x (m + q) profile matrix is never formed.  Damping, the residual
and the masses are single expressions on ``s``.

The map G is iterated from the cold start ``s = -num / z``: each weight
is its numerator ``num = [w | c w | omega]`` times ``-1/z``, so both
kernels have mass ``-1/z`` and the start lies in the iterate layout.
Above the contraction height (see :func:`contraction_start_height`) plain
Picard contracts geometrically in total variation.  Below it the solver
mixes the iterates with type-II Anderson acceleration (window
``ANDERSON_WINDOW``, factor ``ANDERSON_BETA``) on the real view of ``s``.
A mixed iterate with a negative imaginary part in any weight has left the
Stieltjes class, so the mixer then drops its history and takes the plain
step ``s + beta (G(s) - s)``: the damped Picard step, which is also what it
does with an empty history.  The system has one solution in the Stieltjes
class, so this is the only iteration policy.  At every height the solve
stops once the undamped residual ``|G(s) - s|_1`` is at most ``tol`` and
returns ``G(s)``.  A denominator of the map below ``MIN_DENOMINATOR`` in
magnitude raises :class:`DegenerateDenominator`.

A converged ``G(s)`` must lie in the Stieltjes class weight by weight
(:func:`~gramspec.errors.check_stieltjes`): each weight ``s_k`` with
numerator ``num_k`` has ``Im s_k >= 0``, ``Im(z s_k) >= 0`` and
``|s_k| <= num_k / Im z`` (up to a small slack), or the solve raises
:class:`NumericalFailure`.  The masses ``f`` and ``f_tilde`` need no check:
each kernel's numerators sum to 1, so the weights' rules imply the same
rules on the masses with numerator 1, up to rounding.

Each target is solved once, straight from the cold start at the target (or
from a neighbour's iterate along a line).  Only when that solve fails does
the imaginary-axis continuation ladder run: down from the contraction
height by a constant factor, each rung warm-started from the one above,
solved to full ``tol``.  The contraction argument makes its top rung safe.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dposv

from .errors import (DegenerateDenominator, InvalidInput, NoConvergence, NumericalFailure,
                     check_count, check_range, check_ratio, check_stieltjes, positive_height,
                     upper_half_plane)
from .measures import ComplexKernel, lambda_moment

__all__ = [
    "SolverOptions", "SolveReport", "contraction_start_height", "theta_bound",
    "init_kernels", "picard_step", "solve_master",
    "solve_with_continuation", "sweep_line",
]

# smallest magnitude a denominator of the map may take
MIN_DENOMINATOR = 1e-14
# Anderson mixing below the contraction height: differences kept, and the
# factor on the residual in the mixed step
ANDERSON_WINDOW = 6
ANDERSON_BETA = 0.5
# factor by which the continuation ladder lowers Im z from rung to rung
LADDER_FACTOR = 0.7


@dataclass
class SolverOptions:
    """Stopping rule and budget of the fixed-point iteration.

    A solve stops once the undamped residual ``|G(s) - s|_1`` is at most
    ``tol``; ``max_iters`` bounds the applications of the map in one solve.
    The iteration itself is fixed: undamped Picard when Im(z) is at or
    above the contraction height, safeguarded Anderson mixing below it.
    """

    tol: float = 1e-12
    max_iters: int = 10000

    def __post_init__(self):
        check_range(self.tol, "tol", open_low=True)
        check_count(self.max_iters, "max_iters", 1)


@dataclass
class SolveReport:
    """Converged kernels, their total masses, and the residual history.

    ``iterations``, ``residuals`` and ``restarts`` describe the solve that
    produced the answer, at the answer's z.  ``iterations`` counts every
    application of the fixed-point map in it, the cold start and mixed
    steps included; ``residuals`` has one entry per application after the
    first iterate.  ``restarts`` counts the times the Anderson mixer
    cleared its history because a mixed iterate left the Stieltjes class or
    could not be formed (0 when no mixing ran).

    ``total_iterations`` counts every map application behind the answer:
    the same as ``iterations`` for a direct solve, and for a rescued one
    also the failed first attempt and every rung of the continuation
    ladder.  ``rescued`` is True when the first attempt failed and the
    answer came from the ladder.
    """

    pi: ComplexKernel
    pi_tilde: ComplexKernel
    f: complex
    f_tilde: complex
    residuals: list = field(default_factory=list)
    iterations: int = 0
    restarts: int = 0
    total_iterations: int = 0
    rescued: bool = False


def _contraction_bounds(sigma_max_sq, c, lambda_m1):
    """The contraction bounds 2 c s2 m1 / y^2, sqrt(2) s2 / y, 3 s2 / y and
    2 s2 m1 / y^2 as ``(a, p)`` pairs, a bound being ``a / y**p``; s2 =
    sigma_max_sq and m1, the first lambda moment, are finite and >= 0."""
    s2 = check_range(sigma_max_sq, "sigma_max_sq")
    m1 = check_range(lambda_m1, "lambda_m1")
    c = check_ratio(c)
    return ((2.0 * c * s2 * m1, 2), (math.sqrt(2.0) * s2, 1), (3.0 * s2, 1),
            (2.0 * s2 * m1, 2))


def contraction_start_height(sigma_max_sq, c, lambda_m1):
    """Smallest Im(z) above which all four contraction bounds of
    :func:`theta_bound` are < 1/2: ``a / y**p = 1/2`` at ``y = (2 a)**(1/p)``."""
    return max(2.0 * a if p == 1 else math.sqrt(2.0 * a)
               for a, p in _contraction_bounds(sigma_max_sq, c, lambda_m1))


def theta_bound(sigma_max_sq, c, lambda_m1, im_z):
    """Largest of the four contraction bounds at height Im(z) = im_z."""
    im_z = positive_height(im_z, "im_z")
    return max(a / im_z ** p for a, p in _contraction_bounds(sigma_max_sq, c, lambda_m1))


class _System:
    """The layout of the system at (H, quad, c): pi on H's atoms, and
    pi_tilde on the image points (c u_i, lambda_i) joined with the
    quadrature nodes (t_j, 0), stacked as one iterate whose weights have
    the numerators ``num = [w | c w | omega]``.  Rejects a ``c`` outside
    (0, 1] and a ``quad`` not on [c, 1]."""

    def __init__(self, H, quad, c):
        self.c = c = check_ratio(c)
        if abs(quad.lower - c) > 1e-12:
            raise InvalidInput(f"quadrature built for c={quad.lower}, not c={c}")
        self.H = H
        self.m = H.u.size
        self.tilde_t = np.concatenate([c * H.u, quad.nodes])
        self.tilde_zeta = np.concatenate([H.lam, np.zeros(len(quad))])
        self.num = np.concatenate([H.w, c * H.w, quad.weights])

    def pack(self, s):
        """The (pi, pi_tilde) pair of the stacked iterate ``s``."""
        m = self.m
        return (ComplexKernel(self.H.u, self.H.lam, s[:m]),
                ComplexKernel(self.tilde_t, self.tilde_zeta, s[m:]))

    def unpack(self, pi, pi_tilde):
        """The stacked iterate of a (pi, pi_tilde) pair from outside; the
        inverse of :meth:`pack`."""
        for kernel, t, zeta in ((pi, self.H.u, self.H.lam),
                                (pi_tilde, self.tilde_t, self.tilde_zeta)):
            if (kernel.t.size != t.size or not np.allclose(kernel.t, t)
                    or not np.allclose(kernel.zeta, zeta)):
                raise InvalidInput("kernels do not match the system layout")
        return np.concatenate([pi.weights, pi_tilde.weights])


def init_kernels(H, quad, z, c):
    """The cold start ``s = -num / z`` as a (pi, pi_tilde) pair in the
    iterate layout: pi has weights ``-w/z`` on H's atoms, pi_tilde has
    ``-[c w | omega]/z`` on (c u_i, lambda_i) and (t_j, 0).  Each kernel
    has mass ``-1/z``; this is the solver's own start.
    """
    z = upper_half_plane(z)
    system = _System(H, quad, c)
    return system.pack(-system.num / z)


def _weights_from_integrals(z, c, lam, num, A, BC):
    """One application of the fixed-point map given the integrals ``A`` and
    ``BC = [B; C]``; ``num = [w | c w | omega]`` holds the numerators.

    Returns the new weights stacked as ``[p | pa | r]``.  The floor
    ``MIN_DENOMINATOR`` applies to ``1 + A``, ``1 + c B`` and every
    denominator, which share one buffer.
    """
    m = lam.size
    buf = np.empty(2 * m + num.size, complex)
    one = buf[:2 * m]            # [1 + A | 1 + c B]
    den = buf[2 * m:]            # [d_big | d_big_tilde | kappa]
    one[:m] = A
    np.multiply(BC[:m], c, out=one[m:])
    one += 1.0
    np.multiply(one, -z, out=den[:2 * m])
    np.multiply(BC[m:], -c * z, out=den[2 * m:])
    den[2 * m:] -= z             # kappa = -z (1 + c C)
    den[:m] += lam / one[m:]
    den[m:2 * m] += lam / one[:m]
    floor = np.abs(buf).min()
    if floor < MIN_DENOMINATOR:
        raise DegenerateDenominator(
            f"denominator magnitude {floor:.3e} below floor {MIN_DENOMINATOR:.3e} at z={z}")
    return num / den


def _real_lowrank(left, right, v):
    """``left @ (right.T @ v)`` for real thin matrices and a contiguous
    complex vector, computed on the ``(re, im)`` pairs so nothing is upcast."""
    return (left @ (right.T @ v.view(np.float64).reshape(-1, 2))).view(complex).ravel()


class _Stepper(_System):
    """The fixed-point map on the stacked iterate of a :class:`_System`,
    and the system's contraction ``height``.

    Holds the profile as the thin factors ``Phi`` (m x k) and ``Psi``
    ((m + q) x k) of the module docstring, so no array it keeps grows like
    m (m + q).
    """

    def __init__(self, H, profile, quad, c):
        super().__init__(H, quad, c)
        self.height = contraction_start_height(profile.sigma_max_sq, c, lambda_moment(H))
        phi, V, self.Psi = profile.factors(H.u, self.tilde_t)
        self.Phi = phi @ V

    def cold(self, z):
        """The first iterate: one step from the cold start ``-num / z``."""
        return self.step(z, -self.num / z)

    def step(self, z, s):
        m = self.m
        return _weights_from_integrals(
            z, self.c, self.H.lam, self.num,
            _real_lowrank(self.Phi, self.Psi, s[m:]), _real_lowrank(self.Psi, self.Phi, s[:m]))


def picard_step(z, c, H, profile, quad, pi_prev, pi_tilde_prev):
    """One application of the fixed-point map to a (pi, pi_tilde) pair in
    the iterate layout, such as :func:`init_kernels` returns.

    The profile is evaluated densely here, once on H's atoms against the
    iterate points, not through its factors, so this stays an independent
    reference for the solver's own step.
    """
    z = upper_half_plane(z)
    system = _System(H, quad, c)
    s = system.unpack(pi_prev, pi_tilde_prev)
    m = system.m
    sig = np.asarray(profile.evaluate(H.u[:, None], system.tilde_t[None, :]))
    return system.pack(_weights_from_integrals(z, system.c, H.lam, system.num,
                                               sig @ s[m:], sig.T @ s[:m]))


class _Anderson:
    """Type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011)
    on the float64 view of the stacked iterate.

    Given an iterate ``x`` and its residual ``f = G(x) - x``, :meth:`next`
    returns ``x + beta f - (dX + beta dF)^T gamma``.  The rows of ``dX`` and
    ``dF`` are the last ``window`` differences of iterates and residuals,
    and ``gamma`` minimizes ``|f - dF^T gamma|_2``, solved through the
    ``j x j`` Gram matrix ``dF dF^T``.  ``dF`` and ``dX + beta dF`` live in
    two preallocated ``(window, 2 len(x))`` ring buffers.

    A mixed iterate with a negative imaginary part in any weight has left
    the Stieltjes class.  It is rejected: the history is cleared, the
    restart counted, and the plain step ``x + beta f`` taken instead.  A
    Gram matrix that is not numerically positive definite restarts the same
    way.  With an empty history the plain step is the damped Picard step.
    """

    def __init__(self, size, window, beta):
        self.beta = beta
        self.df = np.empty((window, 2 * size))
        self.dg = np.empty((window, 2 * size))     # dX + beta dF
        self.gram = np.empty((window, window))
        self.prev = None     # the last (x, f), kept by reference
        self.count = 0       # stored differences, in ring slots [0, count)
        self.slot = 0        # ring slot of the next difference
        self.restarts = 0

    def next(self, s, f):
        x = s.view(np.float64)
        f = f.view(np.float64)
        if self.prev is not None:
            window = len(self.df)
            k = self.slot
            np.subtract(f, self.prev[1], out=self.df[k])
            np.subtract(x, self.prev[0], out=self.dg[k])
            self.dg[k] += self.beta * self.df[k]
            self.count = min(self.count + 1, window)
            self.slot = (k + 1) % window
            row = self.df[:self.count] @ self.df[k]
            self.gram[k, :self.count] = row
            self.gram[:self.count, k] = row
        self.prev = (x, f)
        plain = x + self.beta * f
        j = self.count
        if j:
            _, gamma, info = dposv(self.gram[:j, :j], self.df[:j] @ f)
            if info == 0:
                mixed = plain - gamma @ self.dg[:j]
                if mixed[1::2].min() >= 0.0:
                    return mixed.view(complex)
            self.count = self.slot = 0
            self.restarts += 1
        return plain.view(complex)


_SOLVE_FAILURES = (NoConvergence, DegenerateDenominator, NumericalFailure)


def _solve(z, stepper, opts, start):
    """One solve at ``z`` from the stacked iterate ``start``, or from the
    cold start when it is None.  Returns the report and the converged
    stacked iterate.  A failure carries the map applications it spent as
    ``exc.iterations``."""
    z = complex(z)
    mixer = (_Anderson(stepper.num.size, ANDERSON_WINDOW, ANDERSON_BETA)
             if z.imag < stepper.height else None)
    m = stepper.m
    residuals = []
    iterations = 0
    try:
        if start is None:
            iterations = 1
            s = stepper.cold(z)
        else:
            s = start
        while iterations < opts.max_iters:
            iterations += 1
            g = stepper.step(z, s)
            r = g - s
            res = float(np.abs(r).sum())
            residuals.append(res)
            if res <= opts.tol:
                check_stieltjes(z, g, stepper.num)
                pi, pi_tilde = stepper.pack(g)
                restarts = 0 if mixer is None else mixer.restarts
                return SolveReport(pi, pi_tilde, complex(g[:m].sum()), complex(g[m:].sum()),
                                   residuals, iterations, restarts, total_iterations=iterations), g
            s = g if mixer is None else mixer.next(s, r)
        last = f"{residuals[-1]:.3e}" if residuals else "n/a"
        raise NoConvergence(
            f"no convergence at z={z} after {iterations} iterations, "
            f"last residual {last}, tol {opts.tol:.1e}")
    except _SOLVE_FAILURES as exc:
        exc.iterations = iterations
        raise


def solve_master(z, c, H, profile, quad, opts=None, initial=None):
    """Solve the coupled system at one z in the upper half plane.

    ``initial`` optionally warm-starts the iteration from a (pi, pi_tilde)
    pair in the iterate layout, e.g. the kernels of a neighbouring solve.
    Raises :class:`InvalidInput` unless ``c`` lies in (0, 1] and ``quad``
    is the quadrature on [c, 1], :class:`NoConvergence` when the iteration
    budget runs out, :class:`DegenerateDenominator` on numerical breakdown
    and :class:`NumericalFailure` when the answer leaves the Stieltjes class.
    """
    z = upper_half_plane(z)
    opts = opts or SolverOptions()
    stepper = _Stepper(H, profile, quad, c)
    start = None if initial is None else stepper.unpack(*initial)
    return _solve(z, stepper, opts, start)[0]


def _rungs(y_from, y_to, factor):
    """Heights from max(y_from, y_to) down to y_to, shrinking by ``factor``."""
    rungs = [max(y_from, y_to)]
    while rungs[-1] > y_to * (1 + 1e-12):
        rungs.append(max(y_to, factor * rungs[-1]))
    return rungs


def _solve_or_climb(z, stepper, opts, start, y_from, factor, where):
    """Solve at ``z`` once from ``start`` (the cold start when None); if that
    fails, rescue it with the continuation ladder ``_rungs(y_from, Im z,
    factor)``, the top rung cold and each further rung warm-started from
    the one above.

    Returns the report and its stacked iterate.  A failed rung re-raises its
    own error type with ``where`` and the rung height added.
    """
    try:
        return _solve(z, stepper, opts, start)
    except _SOLVE_FAILURES as exc:
        spent = exc.iterations
        rungs = _rungs(y_from, z.imag, factor)
        if start is None and len(rungs) == 1:
            # the ladder would repeat this very solve
            raise type(exc)(
                f"{where}: rung Im={rungs[0]:.6g} failed: {exc}") from exc
    s = None
    for y in rungs:
        try:
            report, s = _solve(complex(z.real, y), stepper, opts, s)
        except _SOLVE_FAILURES as exc:
            raise type(exc)(f"{where}: rung Im={y:.6g} failed: {exc}") from exc
        spent += report.iterations
    report.total_iterations = spent
    report.rescued = True
    return report, s


def solve_with_continuation(z_targets, c, H, profile, quad, opts=None, *,
                            factor=LADDER_FACTOR, y_start=None):
    """Solve at each target z, by continuation down the imaginary axis
    where a direct solve fails.

    Each target is first solved from the cold start at the target.  If that
    fails, it is solved at Im(z) = max(y_start, Im z), ``y_start`` (finite
    and > 0) being the contraction height by default, and the height is
    then reduced geometrically by ``factor``, warm-starting every rung from
    the previous one, until the target is reached; its report has
    ``rescued`` set.
    Returns a dict mapping each target z to its SolveReport.  A failed rung
    re-raises its error type with the target and the rung height added.
    Raises :class:`InvalidInput` unless ``c`` lies in (0, 1] and ``quad``
    is the quadrature on [c, 1].
    """
    targets = [upper_half_plane(zt, "target") for zt in z_targets]
    if not 0 < factor < 1:
        raise InvalidInput("factor must lie in (0, 1)")
    y_start = None if y_start is None else positive_height(y_start, "y_start")
    opts = opts or SolverOptions()
    stepper = _Stepper(H, profile, quad, c)
    y_from = stepper.height if y_start is None else y_start
    return {zt: _solve_or_climb(zt, stepper, opts, None, y_from, factor,
                                f"target z={zt}")[0]
            for zt in targets}


def sweep_line(x_values, epsilon, c, H, profile, quad, opts=None):
    """Solve along the horizontal line Im(z) = epsilon, warm-starting
    each point from its left neighbour.

    Points where the warm-started solve fails (no convergence, a degenerate
    denominator, or an answer that fails its checks) are rescued by the
    continuation ladder from the contraction height down to epsilon by
    ``LADDER_FACTOR``; a failed rescue re-raises its error type with x and
    the rung height added.  Returns the list of SolveReports in x order.
    Raises :class:`InvalidInput` unless ``c`` lies in (0, 1] and ``quad``
    is the quadrature on [c, 1].
    """
    epsilon = positive_height(epsilon, "epsilon")
    points = [upper_half_plane(complex(x, epsilon))
              for x in np.asarray(x_values, dtype=float).tolist()]
    opts = opts or SolverOptions()
    stepper = _Stepper(H, profile, quad, c)
    reports = []
    state = None
    for z in points:
        report, state = _solve_or_climb(z, stepper, opts, state, stepper.height,
                                        LADDER_FACTOR, f"rescue at x={z.real!r}")
        reports.append(report)
    return reports
