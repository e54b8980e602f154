"""Fixed-point solver for the coupled kernel system: one loop on the reduced
unknowns, plain Picard steps at or above the contraction height and Newton
steps below it.

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
psi(y)^T`` of rank k, kept as two thin matrices: ``Phi = phi(u) V`` (m x
k) and ``Psi = psi([c u; t])`` ((m + q) x k).  They are real, but the
solver keeps contiguous complex copies of them and of their transposes, so
that every product of a step is one complex matrix product on contiguous
operands.  The integrals of a step are ``A = Phi (Psi^T s[m:])`` and ``[B;
C] = Psi (Phi^T s[:m])``, complex matrix-vector products that cost O((m +
q) k); the dense m x (m + q) profile matrix is never formed.  The
residual and the masses are single expressions on ``s``.

Every solve without a start of its own starts from the mean-field start
(:meth:`_Stepper.start`): the answer of the system with ``sigma2`` and
``lambda`` replaced by their means, which the scalar oracle
:func:`~gramspec.closed_forms.iid_noncentered_f` gives, mapped into the
layout by one application of the map.  It lies in the Stieltjes class,
where the cold start ``s = -num / z`` (each weight its numerator ``num =
[w | c w | omega]`` times ``-1/z``, so both kernels have mass ``-1/z``)
often lets Newton converge to a root outside it.  The weights depend only
on the ``2k`` reduced unknowns ``x = [alpha | beta]``, with ``alpha = Psi^T
s[m:]`` and ``beta = Phi^T s[:m]``, and one loop (:func:`_solve`) iterates
on ``x``.  At or above the contraction height (see
:func:`contraction_start_height`) its every step is the plain step, so it
is Picard, which contracts geometrically in total variation from any
start.  Below it the steps are Newton's: the map is holomorphic in ``x``,
and its ``2k x 2k`` Jacobian has a closed form (:meth:`_Stepper.jacobian`).
At every height the solve stops once the undamped residual ``|G(s) -
s|_1`` of weights ``s`` is at most ``tol`` and returns ``G(s)``.  A
denominator of the map below ``MIN_DENOMINATOR`` in magnitude raises
:class:`DegenerateDenominator`.

A converged ``G(s)`` must lie in the Stieltjes class weight by weight
(:func:`~gramspec.errors.check_stieltjes`): each weight ``s_k`` with
numerator ``num_k`` has ``Im s_k >= 0``, ``Im(z s_k) >= 0`` and
``|s_k| <= num_k / Im z`` (up to a small slack), or the solve raises
:class:`NumericalFailure`.  The masses ``f`` and ``f_tilde`` need no check:
each kernel's numerators sum to 1, so the weights' rules imply the same
rules on the masses with numerator 1, up to rounding.

Each target is solved once, straight from its own start at the target,
or along a sweep from a start extrapolated from the answers at its two
left neighbours.  When a solve from a sweep's start fails, one retry from
the target's own start comes first.  Only when that fails too, most often
because Newton converged to a root outside the Stieltjes class, does the
rescue run: a ladder down the imaginary axis whose top rung is a solve
from the cold start at the contraction height (or at ``Im z``, if that
is higher), where the contraction argument makes plain Picard safe and no
oracle is called.  From each
solved rung the ladder tries the target itself, warm-started; a failed
attempt is retried halfway (in log height) back to the last solved rung,
and the rescue gives up once a failed attempt was within the factor
``LADDER_FACTOR`` of that rung.  Every rung is one solve to full ``tol``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import iid_noncentered_f
from .errors import (DegenerateDenominator, InvalidInput, NoConvergence, NumericalFailure,
                     check_count, check_range, check_ratio, check_stieltjes, positive_height,
                     upper_half_plane)
from .measures import ComplexKernel, lambda_moment

__all__ = [
    "SolverOptions", "SolveReport", "contraction_start_height", "init_kernels",
    "picard_step", "solve_with_continuation", "sweep_line",
]

# smallest magnitude a denominator of the map may take
MIN_DENOMINATOR = 1e-14
# finest step of the rescue ladder: it gives up once a failed attempt was at
# least this fraction of the last solved height
LADDER_FACTOR = 0.7
# sweep_line extrapolates only while a step is at most this many times the
# one before it: past that the secant misses, costing steps and rescues
_MAX_STEP_RATIO = 1.25


@dataclass
class SolverOptions:
    """Stopping rule and budget of the fixed-point iteration.

    A solve stops once the undamped residual ``|G(s) - s|_1`` is at most
    ``tol``; ``max_iters`` bounds the applications of the map in one solve.
    The iteration itself is fixed: one loop on the reduced unknowns, with
    plain Picard steps when Im(z) is at or above the contraction height and
    Newton steps below it.
    A failed solve is rescued by a ladder of such solves down the imaginary
    axis, each with its own budget (see :func:`solve_with_continuation`).
    """

    tol: float = 1e-12
    max_iters: int = 10000

    def __post_init__(self):
        check_range(self.tol, "tol", open_low=True)
        check_count(self.max_iters, "max_iters", 1)


@dataclass
class SolveReport:
    """Converged kernels, their total masses, and the residual history.

    ``iterations``, ``residuals`` and ``newton_steps`` describe the
    iteration that produced the answer, at the answer's z.  ``iterations``
    counts every application of the fixed-point map in it, Newton steps
    included, and the one that makes the mean-field start when the
    iteration began from it; ``residuals`` has one entry per application
    after the start: the change of the weights, whose last entry is the
    undamped residual.  ``newton_steps`` counts the Newton steps (0 at or
    above the contraction height, where Picard produced the answer).

    ``total_iterations`` counts every map application behind the answer:
    the same as ``iterations`` for a direct solve, and otherwise also the
    failed first attempt and every later attempt, failed ones included.
    ``rescued`` is True when the first attempt failed and the answer came
    from the retry (from the mean-field start at the target, after a
    failed start along a sweep) or the ladder.
    """

    pi: ComplexKernel
    pi_tilde: ComplexKernel
    f: complex
    f_tilde: complex
    residuals: list = field(default_factory=list)
    iterations: int = 0
    total_iterations: int = 0
    rescued: bool = False
    newton_steps: int = 0


def contraction_start_height(sigma_max_sq, c, lambda_m1):
    """Smallest Im(z) = y above which the map contracts with ratio < 1/2.

    The paper bounds the contraction ratio by the largest of four terms,
    ``2 c s2 m1 / y^2``, ``sqrt(2) s2 / y``, ``3 s2 / y`` and ``2 s2 m1 /
    y^2``, with s2 = sigma_max_sq and m1 = lambda_m1, the first lambda
    moment (both finite and >= 0).  For c in (0, 1] the first is at most
    the fourth and the second at most the third, so only ``3 s2 / y`` and
    ``2 s2 m1 / y^2`` bind; each equals 1/2 at ``y = 6 s2`` and ``y =
    sqrt(4 s2 m1)``, and the height is the larger.  Rounding is monotone,
    so in floating point too the dropped bounds never exceed the two kept.
    """
    s2 = check_range(sigma_max_sq, "sigma_max_sq")
    m1 = check_range(lambda_m1, "lambda_m1")
    check_ratio(c)
    return max(2.0 * (3.0 * s2), math.sqrt(2.0 * (2.0 * s2 * m1)))


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
        s = np.concatenate([pi.weights, pi_tilde.weights])
        check_range(np.abs(s), "kernel weights |pi|, |pi_tilde|")
        return s


def init_kernels(H, quad, z, c):
    """The cold start ``s = -num / z`` as a (pi, pi_tilde) pair in the
    iterate layout: pi has weights ``-w/z`` on H's atoms, pi_tilde has
    ``-[c w | omega]/z`` on (c u_i, lambda_i) and (t_j, 0).  Each kernel
    has mass ``-1/z``.  It is the reference start of :func:`picard_step`,
    and the rescue ladder's top rung starts from it; every other solve
    starts from the mean-field start.
    """
    z = upper_half_plane(z)
    system = _System(H, quad, c)
    return system.pack(-system.num / z)


def _weights_from_integrals(z, c, lam, num, A, BC):
    """One application of the fixed-point map given the integrals ``A`` and
    ``BC = [B; C]``; ``num = [w | c w | omega]`` holds the numerators.

    Returns the new weights stacked as ``[p | pa | r]``, and ``[1 + A | 1 +
    c B]``.  The floor ``MIN_DENOMINATOR`` applies to ``1 + A``, ``1 + c B``
    and every denominator, which share one buffer.
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
    return num / den, one


class _Stepper(_System):
    """The fixed-point map on the stacked iterate of a :class:`_System`, its
    Jacobian in the reduced unknowns, and the system's contraction
    ``height``.

    Holds the profile as the thin factors ``Phi`` (m x k) and ``Psi``
    ((m + q) x k) of the module docstring and their transposes, each a
    contiguous complex copy, so every product of a step is one complex
    matrix product and no array it keeps grows like m (m + q).
    """

    def __init__(self, H, profile, quad, c):
        super().__init__(H, quad, c)
        self.lam_mean = lambda_moment(H)
        self.height = contraction_start_height(profile.sigma_max_sq, c, self.lam_mean)
        phi, V, Psi = profile.factors(H.u, self.tilde_t)
        Phi = phi @ V
        # the mean of sigma2 against the numerators of pi and pi_tilde, each
        # of mass 1
        self.s2_mean = float((H.w @ Phi) @ (self.num[self.m:] @ Psi))
        self.Phi = np.ascontiguousarray(Phi, dtype=complex)
        self.Psi = np.ascontiguousarray(Psi, dtype=complex)
        self.PhiT = np.ascontiguousarray(self.Phi.T)
        self.PsiT = np.ascontiguousarray(self.Psi.T)
        # [c lam; lam]: the offsets of the dp/dB and dpa/dA coefficients
        self.lam2 = np.array([c * H.lam, H.lam], dtype=complex)

    def reduce(self, s):
        """The reduced unknowns ``x = [alpha | beta]`` of the stacked weights
        ``s``: ``alpha = Psi^T s[m:]`` and ``beta = Phi^T s[:m]``."""
        m = self.m
        return np.concatenate([self.PsiT @ s[m:], self.PhiT @ s[:m]])

    def weights(self, z, x):
        """The map at the reduced unknowns ``x``: the weights from ``A = Phi
        alpha`` and ``[B; C] = Psi beta``, and ``[1 + A | 1 + c B]``."""
        k = self.Phi.shape[1]
        return _weights_from_integrals(z, self.c, self.H.lam, self.num,
                                       self.Phi @ x[:k], self.Psi @ x[k:])

    def start(self, z):
        """The mean-field start at ``z``: the answer of the system with
        ``sigma2`` and ``lambda`` replaced by their means ``s2_mean`` and
        ``lam_mean``, whose ``f`` the scalar oracle
        :func:`~gramspec.closed_forms.iid_noncentered_f` gives, mapped into
        the iterate layout by one map application from the integrals ``A =
        s2_mean f_tilde`` and ``[B; C] = s2_mean f``.  It lies in the
        Stieltjes class, and on a constant profile with one offset it is
        the answer itself."""
        c, s2 = self.c, self.s2_mean
        f = iid_noncentered_f(z, c, s2, [(self.lam_mean, 1.0)])
        f_tilde = c * f - (1.0 - c) / z
        return _weights_from_integrals(z, c, self.H.lam, self.num, s2 * f_tilde,
                                       np.full(self.num.size - self.m, s2 * f))[0]

    def jacobian(self, z, g, one):
        """The ``2k x 2k`` Jacobian of ``F(x) = reduce(weights(x))`` at the
        point where :meth:`weights` returned ``(g, one)``.

        Each weight is ``num / den``, so ``dg = -(g^2 / num) dden``, and
        ``dden`` is diagonal in ``(A, B, C)``; with ``h = g^2 / num`` the
        four k x k blocks are products ``X^T diag(a) Y`` of the factors:

            dalpha/dalpha = Psi[:m]^T diag(lam h_pa / (1 + A)^2) Phi
            dalpha/dbeta  = z c Psi^T diag(h[m:]) Psi
            dbeta/dalpha  = z Phi^T diag(h_p) Phi
            dbeta/dbeta   = Phi^T diag(c lam h_p / (1 + c B)^2) Psi[:m]

        O((m + q) k^2) in all.
        """
        m, k = self.m, self.Phi.shape[1]
        h = g * g
        h /= self.num
        # rows [c lam h_p / (1 + c B)^2; lam h_pa / (1 + A)^2]
        off = self.lam2 * h[:2 * m].reshape(2, m) / one.reshape(2, m)[::-1] ** 2
        J = np.empty((2 * k, 2 * k), complex)
        J[:k, :k] = (self.PsiT[:, :m] * off[1]) @ self.Phi
        J[:k, k:] = (self.PsiT * h[m:]) @ self.Psi
        J[:k, k:] *= z * self.c
        J[k:, :k] = (self.PhiT * h[:m]) @ self.Phi
        J[k:, :k] *= z
        J[k:, k:] = (self.PhiT * off[0]) @ self.Psi[:m]
        return J


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
                                               sig @ s[m:], sig.T @ s[:m])[0])


_SOLVE_FAILURES = (NoConvergence, DegenerateDenominator, NumericalFailure)


def _no_convergence(z, iterations, residuals, opts):
    last = f"{residuals[-1]:.3e}" if residuals else "n/a"
    return NoConvergence(f"no convergence at z={z} after {iterations} iterations, "
                         f"last residual {last}, tol {opts.tol:.1e}")


def _answer(z, stepper, g, residuals, iterations, **counts):
    """The report of a converged solve whose last map application gave the
    weights ``g``, once they pass the Stieltjes-class rule."""
    check_stieltjes(z, g, stepper.num)
    m = stepper.m
    pi, pi_tilde = stepper.pack(g)
    return SolveReport(pi, pi_tilde, complex(g[:m].sum()), complex(g[m:].sum()), residuals,
                       iterations, **counts), g


def _solve(z, stepper, opts, start):
    """One solve at ``z`` on ``x = [alpha | beta]`` from the stacked iterate
    ``start``, or from the mean-field start :meth:`_Stepper.start` when it
    is None.  That start's one map application counts as the solve's
    first, with no residual; a failure of the scalar oracle or of that
    application fails the solve.

    Each map application at ``x`` gives the weights ``g`` and ``F(x)``, the
    reduced unknowns of ``g``; the change of the weights from one
    application to the next is the residual history.  A plain step ``x =
    F(x)`` makes the next change the undamped residual ``|G(s) - s|_1`` of
    the weights ``s``, and at most ``tol`` it ends the solve.  At or above
    the contraction height every step is plain: Picard.  Below it the next
    ``x`` solves ``(J - I) (x_new - x) = F(x) - x`` (Newton), until the last
    two Newton steps predict, at quadratic convergence, a next change of at
    most ``tol``; then one step is plain, and Newton goes on after it if
    the residual is above ``tol``.

    A singular Newton system or weights that are not finite fail the solve
    with :class:`NumericalFailure`; so does a converged answer outside the
    Stieltjes class.  Returns the report and the converged stacked iterate;
    a failure carries its map applications as ``exc.iterations``."""
    newton = z.imag < stepper.height
    residuals = []
    iterations = steps = 0
    plain = True                   # x = F(prev): this change is prev's residual
    moved = last = math.inf        # weight changes of the last two Newton steps
    try:
        if start is None:
            start = stepper.start(z)
            iterations = 1
        prev = start
        x = stepper.reduce(start)
        eye = np.eye(x.size)
        while iterations < opts.max_iters:
            g, one = stepper.weights(z, x)
            iterations += 1
            change = float(np.abs(g - prev).sum())
            residuals.append(change)
            if plain and change <= opts.tol:
                return _answer(z, stepper, g, residuals, iterations, newton_steps=steps,
                               total_iterations=iterations)
            if not change < math.inf:
                raise NumericalFailure(f"weights not finite at z={z}")
            if not plain:
                last, moved = moved, change
            y = stepper.reduce(g)
            plain = not (newton and (plain or not (
                moved < last < math.inf and moved ** 3 <= opts.tol * last ** 2)))
            if plain:
                x = y
            else:
                try:
                    delta = np.linalg.solve(stepper.jacobian(z, g, one) - eye, x - y)
                except np.linalg.LinAlgError as exc:
                    raise NumericalFailure(f"singular Newton system at z={z}") from exc
                x = x + delta
                steps += 1
            prev = g
        raise _no_convergence(z, iterations, residuals, opts)
    except _SOLVE_FAILURES as exc:
        exc.iterations = iterations
        raise


def _solve_or_climb(z, stepper, opts, start, y_from, factor, where):
    """Solve at ``z`` once from ``start`` (the mean-field start when None:
    see :func:`_solve`).  If a solve from a given start fails, retry once
    from the mean-field start at ``z``; if that fails too, or the first
    solve had no given start, rescue it with a step-controlled ladder down
    the imaginary axis.

    The top rung, at ``max(y_from, Im z)``, starts from the cold start
    ``-num / z`` there, so the rescue never calls the scalar oracle.  From
    each solved rung the next attempt goes straight to ``Im z``,
    warm-started from that rung; a failed attempt is retried at the
    geometric mean of its height and the last solved one.  Returns the
    report and its stacked iterate, whose ``total_iterations`` counts every
    attempt, failed ones included, and whose ``rescued`` is set when the
    first attempt failed.  Once a failed attempt was at least ``factor``
    times the last solved height (or was the top rung), the rescue
    re-raises its error type with ``where`` and the attempt's height added.
    """
    try:
        return _solve(z, stepper, opts, start)
    except _SOLVE_FAILURES as exc:
        spent = exc.iterations
    if start is not None:
        # one retry from the mean-field start at the target
        try:
            report, s = _solve(z, stepper, opts, None)
        except _SOLVE_FAILURES as exc:
            spent += exc.iterations
        else:
            report.total_iterations += spent
            report.rescued = True
            return report, s
    y = max(y_from, z.imag)
    solved, start = None, -stepper.num / complex(z.real, y)
    while True:
        try:
            report, s = _solve(complex(z.real, y), stepper, opts, start)
        except _SOLVE_FAILURES as exc:
            if solved is None or y >= factor * solved:
                raise type(exc)(f"{where}: rung Im={y:.6g} failed: {exc}") from exc
            spent += exc.iterations
            y = math.sqrt(y * solved)
            continue
        spent += report.total_iterations
        if y == z.imag:
            break
        solved, start, y = y, s, z.imag
    report.total_iterations = spent
    report.rescued = True
    return report, s


def solve_with_continuation(z_targets, c, H, profile, quad, opts=None, *,
                            factor=LADDER_FACTOR, y_start=None):
    """Solve at each target z, by continuation down the imaginary axis
    where a direct solve fails.

    Each target is first solved from its own start at the target, the
    mean-field start.  If that fails, the rescue ladder solves it from the
    cold start at Im(z) = max(y_start, Im z), ``y_start`` (finite and > 0)
    being the contraction height by default, then tries the target
    warm-started from there.  A failed attempt is retried at the geometric
    mean of its height and the last solved one, and every solved rung is
    the warm start of a new attempt at the target; the report of a rescued
    target has ``rescued`` set.  ``factor`` in (0, 1) is the finest step
    the rescue tries: once a failed attempt was at least ``factor`` times
    the last solved height, the rescue gives up.  Returns a dict mapping
    each target z to its SolveReport.  A failed rescue raises
    :class:`NoConvergence` when the iteration budget runs out,
    :class:`DegenerateDenominator` on numerical breakdown and
    :class:`NumericalFailure` when the answer leaves the Stieltjes class,
    each with the target and the rung height added.  Raises
    :class:`InvalidInput` unless ``c`` lies in (0, 1] and ``quad`` is the
    quadrature on [c, 1].
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
    """Solve along the horizontal line Im(z) = epsilon, starting each point
    from the linear extrapolation of the answers at the two points before it.

    The first point starts from its own start, the mean-field start, and
    the second from the first's weights.  Each later point starts from
    ``s_{k-1} + min(r, 1) (s_{k-1} - s_{k-2})``, a predictor step (Allgower
    & Georg, *Introduction to Numerical Continuation Methods*, SIAM 2003)
    with ``r = (x_k - x_{k-1}) / (x_{k-1} - x_{k-2})``, if ``0 < r <=
    _MAX_STEP_RATIO`` (1.25), else from ``s_{k-1}`` alone.  The start is
    only a guess: the solve from it keeps the stopping rule and the class
    check of every solve.  A later point whose solve fails (no convergence,
    a degenerate denominator, or an answer that fails its checks) is solved
    once more from the mean-field start at that point.  Points that still
    fail are rescued by the ladder of :func:`solve_with_continuation` from
    the contraction height (or from epsilon, if that is higher), with the
    finest step ``LADDER_FACTOR``; a failed rescue re-raises its error type
    with x and the rung height added.  Returns the list of SolveReports in
    x order.  Raises :class:`InvalidInput` unless ``c`` lies in (0, 1] and
    ``quad`` is the quadrature on [c, 1].
    """
    epsilon = positive_height(epsilon, "epsilon")
    points = [upper_half_plane(complex(x, epsilon))
              for x in np.asarray(x_values, dtype=float).tolist()]
    opts = opts or SolverOptions()
    stepper = _Stepper(H, profile, quad, c)
    reports = []
    prev = last = None           # the answers at the two left neighbours
    for k, z in enumerate(points):
        start = last
        if prev is not None:
            before = points[k - 1].real - points[k - 2].real
            ratio = (z.real - points[k - 1].real) / before if before else 0.0
            if 0 < ratio <= _MAX_STEP_RATIO:
                start = last + min(1.0, ratio) * (last - prev)
        report, state = _solve_or_climb(z, stepper, opts, start, stepper.height,
                                        LADDER_FACTOR, f"rescue at x={z.real!r}")
        reports.append(report)
        prev, last = last, state
    return reports
