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

One solve iterates a stack of points in lockstep (:func:`_solve`): each
step applies the map, the reduction, the Jacobians and one batched Newton
solve to all the points still in the stack, as products on arrays with
one row per point, written into buffers that the stack allocates once
(:class:`_Stack`).  Each point keeps its own plain/Newton choice, stop,
residuals, budget and class check, in Python scalars, and leaves the
stack when it converges or fails; a failure fails only its own point.
:func:`solve_with_continuation` sends its distinct targets through stacks
of up to ``_STACK_SIZE`` points and rescues the failed ones one at a
time.  A sweep (:func:`sweep_line`) cuts its points into up to
``_STACK_SIZE`` contiguous segments, each started from the answers before
it, and solves the next point of every segment in one stack.  The rungs of
a ladder each start from the answer before them, so they are stacks of one
point; every product keeps the profile's factor on the left, so a stack of
one takes the arithmetic of a single vector and gives the same answer bit
for bit.
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
# the most targets solve_with_continuation iterates in one lockstep stack.
# Its buffers grow by about 60 KB per point at m = q = 256, while the time
# per point falls little past 8: on 64 targets of the zgrid benchmark
# (rank-1 profile, one BLAS thread, medians of five rounds) it took 279,
# 274 and 264 us per target with 8, 16 and 32 points per stack, against
# about 390 us one at a time, for a traced peak of 1.6, 2.1 and 3.2 MB
_STACK_SIZE = 8


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


class _Parts:
    """The pieces of a map buffer ``[1 + A | 1 + c B | den]`` along its last
    axis, where ``den = [d_big | d_big_tilde | kappa]`` holds every
    denominator.  On arrival ``A`` is in ``one_a`` and ``[B; C]`` in
    ``buf[..., 3m:]``: ``B`` in ``b``, the span that ``d_big_tilde`` takes
    once ``B`` is read, and ``C`` in ``kappa``."""

    def __init__(self, buf, m):
        self.one, self.den = buf[..., :2 * m], buf[..., 2 * m:]
        self.one_a, self.one_b = buf[..., :m], buf[..., m:2 * m]
        self.den_pp = buf[..., 2 * m:4 * m]
        self.den_p, self.den_pa = buf[..., 2 * m:3 * m], buf[..., 3 * m:4 * m]
        self.b, self.kappa = buf[..., 3 * m:4 * m], buf[..., 4 * m:]


def _denominators(z, mz, mcz, c, lam, parts, scratch=None):
    """Fill the map buffer of :class:`_Parts` ``parts`` in place, from the
    integrals ``A`` and ``[B; C]`` in it.  ``mz = -z`` and ``mcz = -c z``;
    ``z`` and they are scalars, or columns holding one point's value per
    row of the buffer.  ``scratch`` takes the quotients ``lam / (1 + ...)``
    when given."""
    np.multiply(parts.b, c, out=parts.one_b)
    parts.one += 1.0
    np.multiply(parts.kappa, mcz, out=parts.kappa)
    parts.kappa -= z             # kappa = -z (1 + c C)
    np.multiply(parts.one, mz, out=parts.den_pp)
    parts.den_p += np.divide(lam, parts.one_b, out=scratch)
    parts.den_pa += np.divide(lam, parts.one_a, out=scratch)


def _degenerate(z, floor):
    return DegenerateDenominator(
        f"denominator magnitude {floor:.3e} below floor {MIN_DENOMINATOR:.3e} at z={z}")


def _weights_from_integrals(z, c, lam, num, A, BC):
    """One application of the fixed-point map given the integrals ``A`` and
    ``BC = [B; C]``, each an array or one value for every weight; ``num =
    [w | c w | omega]`` holds the numerators.

    Returns the new weights stacked as ``[p | pa | r]``, and ``[1 + A | 1 +
    c B]``.  The floor ``MIN_DENOMINATOR`` applies to ``1 + A``, ``1 + c B``
    and every denominator, which share one buffer.
    """
    m = lam.size
    buf = np.empty(2 * m + num.size, complex)
    buf[:m] = A
    buf[3 * m:] = BC
    parts = _Parts(buf, m)
    _denominators(z, -z, -c * z, c, lam, parts)
    floor = np.abs(buf).min()
    if floor < MIN_DENOMINATOR:
        raise _degenerate(z, floor)
    return num / parts.den, parts.one


class _Stepper(_System):
    """The fixed-point map of a :class:`_System` on the rows of a
    :class:`_Stack`, its Jacobian in the reduced unknowns, the mean-field
    start and the system's contraction ``height``.

    Holds the profile as the thin factors ``Phi`` (m x k) and ``Psi``
    ((m + q) x k) of the module docstring and their transposes, each a
    contiguous complex copy, so every product of a step is one complex
    matrix product and no array it keeps grows like m (m + q).  Every
    product keeps the factor on the left, so that a stack of one point
    takes the same matrix-vector product as a single vector would.
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
        self.PsiT_m, self.Psi_m = self.PsiT[:, :self.m], self.Psi[:self.m]
        self.k = self.Phi.shape[1]
        # c lam and lam: the offsets of the dp/dB and dpa/dA coefficients
        self.lam_p = np.asarray(c * H.lam, dtype=complex)
        self.lam_pa = np.asarray(H.lam, dtype=complex)
        self._stack = None

    def stack(self, size):
        """An empty :class:`_Stack` for ``size`` points.  The stepper keeps
        one stack and reuses its buffers and views while it has room for
        ``size`` points, so a sweep, whose rounds shrink, and the ladders
        that rescue its points allocate them once."""
        stack = self._stack
        if stack is None or stack.size < size:
            stack = self._stack = _Stack(self.m, self.k, self.num.size, size)
        stack.points, stack.outcomes = [], [None] * size
        return stack

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
        return _weights_from_integrals(z, c, self.H.lam, self.num, s2 * f_tilde, s2 * f)[0]

    def reduce(self, src, alpha, beta):
        """The reduced unknowns ``x = [alpha | beta]`` of the weights in
        the :class:`_WeightRows` ``src``, ``alpha = Psi^T s[m:]`` and
        ``beta = Phi^T s[:m]``, into the transposed views ``alpha`` and
        ``beta`` of a stack's rows."""
        np.matmul(self.PsiT, src.alpha_src, out=alpha)
        np.matmul(self.PhiT, src.beta_src, out=beta)

    def weights(self, stack):
        """The map at the live rows of the stack's ``x``: the weights into
        the step's half of ``gs``, from ``A = Phi alpha`` and ``[B; C] = Psi
        beta``, and ``[1 + A | 1 + c B]`` into ``buf``.  A point with a
        denominator (or ``1 + A``, ``1 + c B``) below ``MIN_DENOMINATOR`` in
        magnitude leaves with :class:`DegenerateDenominator` before the
        division."""
        v = stack.rows()
        np.matmul(self.Phi, v.xa, out=v.a_out)
        np.matmul(self.Psi, v.xb, out=v.bc_out)
        _denominators(v.z, v.mz, v.mcz, self.c, self.H.lam, v.parts,
                      v.weights[stack.flip].head)
        if np.abs(v.buf, out=v.mag).min() < MIN_DENOMINATOR:
            floors = v.mag.min(axis=1).tolist()
            for r in reversed(range(v.n)):
                if floors[r] < MIN_DENOMINATOR:
                    stack.drop(r, _degenerate(stack.points[r].z, floors[r]))
            if not stack.points:
                return
            v = stack.rows()
        np.divide(self.num, v.parts.den, out=v.weights[stack.flip].all)

    def jacobian(self, stack):
        """The ``2k x 2k`` Jacobians of ``F(x) = reduce(weights(x))`` at the
        live rows of the stack, where :meth:`weights` wrote the step's
        weights ``g`` and ``buf``, into ``jac``; ``buf`` and the other half
        of ``gs`` are spent.

        Each weight is ``num / den``, so ``dg = -(g^2 / num) dden``, and
        ``dden`` is diagonal in ``(A, B, C)``; with ``h = g^2 / num`` the
        four k x k blocks are products ``X^T diag(a) Y`` of the factors:

            dalpha/dalpha = Psi[:m]^T diag(lam h_pa / (1 + A)^2) Phi
            dalpha/dbeta  = z c Psi^T diag(h[m:]) Psi
            dbeta/dalpha  = z Phi^T diag(h_p) Phi
            dbeta/dbeta   = Phi^T diag(c lam h_p / (1 + c B)^2) Psi[:m]

        O((m + q) k^2) per point in all.
        """
        v = stack.rows()
        g, spare = v.weights[stack.flip].all, v.weights[1 - stack.flip]
        h = np.multiply(g, g, out=v.parts.den)
        h /= self.num
        np.multiply(self.PsiT, v.h_tilde3, out=v.w)
        np.matmul(v.w, self.Psi, out=v.j_ab)
        v.j_ab *= v.zc3
        np.multiply(self.PhiT, v.h_p3, out=v.w_m)
        np.matmul(v.w_m, self.Phi, out=v.j_ba)
        v.j_ba *= v.z3
        # c lam h_p / (1 + c B)^2 and lam h_pa / (1 + A)^2
        np.square(v.parts.one, out=v.parts.one)
        np.multiply(self.lam_p, v.h_p, out=spare.head)
        spare.head /= v.parts.one_b
        np.multiply(self.lam_pa, v.h_pa, out=spare.mid)
        spare.mid /= v.parts.one_a
        np.multiply(self.PsiT_m, spare.mid3, out=v.w_m)
        np.matmul(v.w_m, self.Phi, out=v.j_aa)
        np.multiply(self.PhiT, spare.head3, out=v.w_m)
        np.matmul(v.w_m, self.Psi_m, out=v.j_bb)


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


class _Point:
    """The bookkeeping of one point of a :class:`_Stack`, in Python
    scalars: where its outcome goes (``index``), its map applications,
    residuals and Newton steps, whether it iterates by Newton (below the
    contraction height), and its plain/Newton choice."""

    __slots__ = ("index", "z", "newton", "iterations", "residuals", "steps", "plain",
                 "moved", "last")

    def __init__(self, index, z, newton, iterations):
        self.index, self.z, self.newton, self.iterations = index, z, newton, iterations
        self.residuals = []
        self.steps = 0
        self.plain = True            # x = F(prev): this change is prev's residual
        self.moved = self.last = math.inf   # weight changes of the last two Newton steps


class _WeightRows:
    """Views of one weight buffer of a stack on its first n rows: all of
    them, their ``[:m]`` and ``[m:2m]`` columns, as rows and as (n, 1,
    columns) for the Jacobian's broadcasts, and the transposed ``[m:]`` and
    ``[:m]`` columns that the reduction takes."""

    def __init__(self, weights, n, m):
        self.all = weights[:n]
        self.head, self.mid = self.all[:, :m], self.all[:, m:2 * m]
        self.head3, self.mid3 = self.head[:, None, :], self.mid[:, None, :]
        self.alpha_src, self.beta_src = self.all[:, m:].T, self.all[:, :m].T


class _Rows:
    """Views of a stack's buffers on their first ``n`` rows, the live ones.
    They are built once for each count of live points, so that a step
    slices no array: numpy takes about as long to make a view as to apply
    a small operation to it."""

    def __init__(self, stack, n):
        m, k = stack.m, stack.k
        self.n = n
        self.x, self.y = stack.x[:n], stack.y[:n]
        self.xa, self.xb = self.x[:, :k].T, self.x[:, k:].T
        self.ya, self.yb = self.y[:, :k].T, self.y[:, k:].T
        self.rhs = np.empty((n, 2 * k, 1), complex)
        self.rhs2 = self.rhs[:, :, 0]
        zeta = stack.zeta[:n]
        self.z, self.mz, self.mcz = zeta[:, :1], zeta[:, 1:2], zeta[:, 2:3]
        self.z3, self.zc3 = zeta[:, 0, None, None], zeta[:, 3, None, None]
        self.buf = stack.buf[:n]
        self.parts = _Parts(self.buf, m)
        self.a_out, self.bc_out = self.parts.one_a.T, self.buf[:, 3 * m:].T
        width, n_weights = stack.buf.shape[1], stack.gs.shape[2]
        self.mag = stack.mag[:n * width].reshape(n, width)
        self.mag_w = stack.mag[:n * n_weights].reshape(n, n_weights)
        h = self.parts.den
        self.h_p, self.h_pa = h[:, :m], h[:, m:2 * m]
        self.h_p3, self.h_tilde3 = self.h_p[:, None, :], h[:, None, m:]
        self.w, self.w_m = stack.w[:n], stack.w[:n, :, :m]
        self.jac = stack.jac[:n]
        self.j_aa, self.j_ab = self.jac[:, :k, :k], self.jac[:, :k, k:]
        self.j_ba, self.j_bb = self.jac[:, k:, :k], self.jac[:, k:, k:]
        self.weights = [_WeightRows(g, n, m) for g in stack.gs]


class _Stack:
    """Up to ``size`` points of one system with ``m`` atoms, rank ``k``
    and ``n_weights`` weights, iterated in lockstep by :func:`_solve`: row
    r of every buffer belongs to ``points[r]``, and the rows of the live
    points come first.

    The buffers are allocated once and every step writes into them: the
    reduced unknowns ``x`` and their image ``y`` (2k each), the weights of
    the step and of the step before in the two halves of ``gs`` (``flip``
    is the half of the step's), ``buf``, the map buffer of :class:`_Parts`,
    the magnitudes ``mag``, the Jacobians ``jac`` and their factor products
    ``w``.  ``zeta`` holds each row's ``[z, -z, -c z, z c]``.  A point that
    leaves hands its row to the last live one (:meth:`drop`), and its
    outcome goes to ``outcomes``.
    """

    def __init__(self, m, k, n_weights, size):
        self.m, self.k, self.size = m, k, size
        self.points = []
        self.outcomes = [None] * size
        self.zeta = np.empty((size, 4), complex)
        self.x = np.empty((size, 2 * k), complex)
        self.y = np.empty_like(self.x)
        self.gs = np.empty((2, size, n_weights), complex)
        self.flip = 0
        self.buf = np.empty((size, 2 * m + n_weights), complex)
        self.mag = np.empty(self.buf.size)
        self.w = np.empty((size, k, n_weights - m), complex)
        self.jac = np.empty((size, 2 * k, 2 * k), complex)
        # views for every count of live points, which falls each time a
        # point leaves; rows() runs only while points are live
        self._rows = [None] + [_Rows(self, n) for n in range(1, size + 1)]

    def rows(self):
        """The :class:`_Rows` of the live points."""
        return self._rows[len(self.points)]

    def add(self, point, c, start):
        """A new live row for ``point``, of a system with ratio ``c``, whose
        weights before the first step are ``start``."""
        r, z = len(self.points), point.z
        self.points.append(point)
        self.zeta[r] = (z, -z, -c * z, z * c)
        self.gs[1 - self.flip, r] = start

    def drop(self, r, outcome):
        """Row r's point leaves with ``outcome``: its report and iterate, or
        its failure, which then carries the map applications it spent as
        ``exc.iterations``.  The last live row moves into row r."""
        point = self.points[r]
        if isinstance(outcome, _SOLVE_FAILURES):
            outcome.iterations = point.iterations
        self.outcomes[point.index] = outcome
        last = self.points.pop()
        if r < len(self.points):
            self.points[r] = last
            n = len(self.points)
            self.zeta[r], self.x[r], self.y[r] = self.zeta[n], self.x[n], self.y[n]
            self.gs[:, r], self.buf[r] = self.gs[:, n], self.buf[n]

    def change(self):
        """``|g - prev|_1`` of each live row, with ``g`` the step's weights
        and ``prev`` those of the step before, as a list; ``prev`` is
        spent."""
        v = self.rows()
        g, prev = v.weights[self.flip].all, v.weights[1 - self.flip].all
        np.subtract(g, prev, out=prev)
        np.abs(prev, out=v.mag_w)
        return np.add.reduce(v.mag_w, axis=1).tolist()


def _finish(stepper, stack, r):
    """Row r's point converged with the weights in its row of the step's
    half of ``gs``: it leaves with its report and a copy of them, once they
    pass the Stieltjes-class rule, or with the rule's failure."""
    point = stack.points[r]
    g = stack.gs[stack.flip, r].copy()
    try:
        check_stieltjes(point.z, g, stepper.num)
    except _SOLVE_FAILURES as exc:
        stack.drop(r, exc.with_traceback(None))
        return
    m = stepper.m
    pi, pi_tilde = stepper.pack(g)
    stack.drop(r, (SolveReport(pi, pi_tilde, complex(g[:m].sum()), complex(g[m:].sum()),
                               point.residuals, point.iterations,
                               total_iterations=point.iterations,
                               newton_steps=point.steps), g))


def _newton(stepper, stack, eye):
    """The Newton steps ``delta`` of the stack's live rows, ``(J - I)
    delta = x - y``, solved as one stack.  A singular system fails only its
    own point, and only if that point takes a Newton step.  Returns the
    steps and the rows whose Newton system is singular, each with its
    error."""
    v = stack.rows()
    stepper.jacobian(stack)
    np.subtract(v.jac, eye, out=v.jac)
    np.subtract(v.x, v.y, out=v.rhs2)
    try:
        return np.linalg.solve(v.jac, v.rhs)[:, :, 0], []
    except np.linalg.LinAlgError:
        pass
    delta, singular = np.zeros_like(v.rhs2), []
    for r, point in enumerate(stack.points):
        if not point.plain:
            try:
                delta[r] = np.linalg.solve(v.jac[r], v.rhs2[r])
            except np.linalg.LinAlgError as exc:
                err = NumericalFailure(f"singular Newton system at z={point.z}")
                err.__cause__ = exc
                singular.append((r, err))
    return delta, singular


def _solve(zs, stepper, opts, starts):
    """Solve at each point of ``zs`` from its stacked iterate in
    ``starts``, or from the mean-field start :meth:`_Stepper.start` where
    that is None, with all points iterated in lockstep on one
    :class:`_Stack`.  Each step applies the map, the reduction to ``x =
    [alpha | beta]``, the Jacobians and the Newton solves once to all the
    points still in the stack; each point keeps its own plain/Newton
    choice, stop, residuals, map applications, ``max_iters`` budget and
    class check, and leaves the stack when it converges or fails.  A stack
    of one point takes the same arithmetic as a single vector, so it is the
    single solve.

    A mean-field start's one map application counts as its solve's first,
    with no residual; a failure of the scalar oracle or of that application
    fails the point with no map application counted.  Each map application
    at ``x`` gives the weights ``g`` and ``F(x)``, the reduced unknowns of
    ``g``; the change of the weights from one application to the next is
    the residual history.  A plain step ``x = F(x)`` makes the next change
    the undamped residual ``|G(s) - s|_1`` of the weights ``s``, and at most
    ``tol`` it ends the solve.  At or above the contraction height every
    step is plain: Picard.  Below it the next ``x`` solves ``(J - I) (x_new
    - x) = F(x) - x`` (Newton), until the last two Newton steps predict, at
    quadratic convergence, a next change of at most ``tol``; then one step
    is plain, and Newton goes on after it if the residual is above ``tol``.

    A denominator below ``MIN_DENOMINATOR`` fails a point with
    :class:`DegenerateDenominator`; a singular Newton system, weights that
    are not finite and a converged answer outside the Stieltjes class fail
    it with :class:`NumericalFailure`, and the budget with
    :class:`NoConvergence`.  Returns one outcome per point, in the order of
    ``zs``: the report and a copy of the converged stacked iterate, or the
    failure, which carries its map applications as ``exc.iterations``."""
    stack = stepper.stack(len(zs))
    for index, (z, start) in enumerate(zip(zs, starts)):
        iterations = 0
        if start is None:
            try:
                start = stepper.start(z)
            except _SOLVE_FAILURES as exc:
                exc.iterations = 0
                stack.outcomes[index] = exc.with_traceback(None)
                continue
            iterations = 1
        stack.add(_Point(index, z, z.imag < stepper.height, iterations), stepper.c, start)
    if stack.points:
        v = stack.rows()
        stepper.reduce(v.weights[1 - stack.flip], v.xa, v.xb)
    eye = np.eye(2 * stepper.k)
    tol = opts.tol
    while stack.points:
        for r in reversed(range(len(stack.points))):
            point = stack.points[r]
            if point.iterations >= opts.max_iters:
                stack.drop(r, _no_convergence(point.z, point.iterations, point.residuals,
                                              opts))
        if not stack.points:
            break
        stepper.weights(stack)
        if not stack.points:
            break
        changes = stack.change()
        # rows leave from the end first, so a row that moves in is done
        for r in reversed(range(len(changes))):
            point, change = stack.points[r], changes[r]
            point.iterations += 1
            point.residuals.append(change)
            if point.plain and change <= tol:
                _finish(stepper, stack, r)
                continue
            if not change < math.inf:
                stack.drop(r, NumericalFailure(f"weights not finite at z={point.z}"))
                continue
            if not point.plain:
                point.last, point.moved = point.moved, change
            point.plain = not (point.newton and (point.plain or not (
                point.moved < point.last < math.inf
                and point.moved ** 3 <= tol * point.last ** 2)))
        if not stack.points:
            break
        v = stack.rows()
        steps = [not point.plain for point in stack.points]
        if not any(steps):
            stepper.reduce(v.weights[stack.flip], v.xa, v.xb)
        else:
            stepper.reduce(v.weights[stack.flip], v.ya, v.yb)
            delta, singular = _newton(stepper, stack, eye)
            if all(steps):
                v.x += delta
            else:
                for r, step in enumerate(steps):
                    if step:
                        v.x[r] += delta[r]
                    else:
                        v.x[r] = v.y[r]
            for point, step in zip(stack.points, steps):
                point.steps += step
            for r, err in reversed(singular):
                stack.drop(r, err)
        stack.flip = 1 - stack.flip
    # the stack outlives the solve on its stepper, the outcomes need not
    outcomes, stack.outcomes = stack.outcomes, None
    return outcomes


def _rescue(z, stepper, opts, spent, retry, y_from, factor, where):
    """Rescue a failed solve at ``z`` that spent ``spent`` map
    applications: first, if ``retry``, one solve from the mean-field start
    at ``z``; if that fails too, or without ``retry``, a step-controlled
    ladder down the imaginary axis.  Every attempt is a stack of one point
    (see :func:`_solve`).

    The top rung, at ``max(y_from, Im z)``, starts from the cold start
    ``-num / z`` there, so the rescue never calls the scalar oracle.  From
    each solved rung the next attempt goes straight to ``Im z``,
    warm-started from that rung; a failed attempt is retried at the
    geometric mean of its height and the last solved one.  Returns the
    report and its stacked iterate, whose ``total_iterations`` counts every
    attempt, failed ones included, and whose ``rescued`` is set.  Once a
    failed attempt was at least ``factor`` times the last solved height (or
    was the top rung), the rescue re-raises its error type with ``where``
    and the attempt's height added.
    """
    if retry:
        outcome, = _solve([z], stepper, opts, [None])
        if not isinstance(outcome, _SOLVE_FAILURES):
            outcome[0].total_iterations += spent
            outcome[0].rescued = True
            return outcome
        spent += outcome.iterations
    y = max(y_from, z.imag)
    solved, start = None, -stepper.num / complex(z.real, y)
    while True:
        outcome, = _solve([complex(z.real, y)], stepper, opts, [start])
        if isinstance(outcome, _SOLVE_FAILURES):
            if solved is None or y >= factor * solved:
                raise type(outcome)(f"{where}: rung Im={y:.6g} failed: {outcome}") from outcome
            spent += outcome.iterations
            y = math.sqrt(y * solved)
            continue
        report, s = outcome
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

    Each distinct target is first solved from its own start at the target,
    the mean-field start, with up to ``_STACK_SIZE`` targets iterated in
    lockstep (see :func:`_solve`); a repeated target is solved once.  Only
    a target whose solve fails is rescued, one at a time in the order of
    the targets: the rescue ladder solves it from the cold start at Im(z)
    = max(y_start, Im z), ``y_start`` (finite and > 0) being the
    contraction height by default, then tries the target warm-started from
    there.  A failed attempt is retried at the geometric mean of its height
    and the last solved one, and every solved rung is the warm start of a
    new attempt at the target; the report of a rescued target has
    ``rescued`` set, and its ``total_iterations`` counts the failed first
    solve too.  ``factor`` in (0, 1) is the finest step the rescue tries:
    once a failed attempt was at least ``factor`` times the last solved
    height, the rescue gives up.  Returns a dict mapping each target z to
    its SolveReport.  The first target, in order, whose rescue fails
    raises :class:`NoConvergence` when the iteration budget runs out,
    :class:`DegenerateDenominator` on numerical breakdown and
    :class:`NumericalFailure` when the answer leaves the Stieltjes class,
    each with the target and the rung height added.  Raises
    :class:`InvalidInput` unless ``c`` lies in (0, 1] and ``quad`` is the
    quadrature on [c, 1].
    """
    targets = list(dict.fromkeys(upper_half_plane(zt, "target") for zt in z_targets))
    if not 0 < factor < 1:
        raise InvalidInput("factor must lie in (0, 1)")
    y_start = None if y_start is None else positive_height(y_start, "y_start")
    opts = opts or SolverOptions()
    stepper = _Stepper(H, profile, quad, c)
    y_from = stepper.height if y_start is None else y_start
    reports = {}
    for first in range(0, len(targets), _STACK_SIZE):
        chunk = targets[first:first + _STACK_SIZE]
        for zt, outcome in zip(chunk, _solve(chunk, stepper, opts, [None] * len(chunk))):
            if isinstance(outcome, _SOLVE_FAILURES):
                outcome = _rescue(zt, stepper, opts, outcome.iterations, False, y_from,
                                  factor, f"target z={zt}")
            reports[zt] = outcome[0]
    return reports


def _segments(n):
    """The contiguous, near-equal segments, as lists of indices, that
    :func:`sweep_line` cuts ``n`` points into: ``min(_STACK_SIZE, ceil(n /
    _STACK_SIZE))`` of them, the longer ones first, so that one point of
    each fills a stack and a grid of at most ``_STACK_SIZE`` points is one
    segment."""
    count = max(1, min(_STACK_SIZE, -(-n // _STACK_SIZE)))
    return [segment.tolist() for segment in np.array_split(np.arange(n), count)]


def sweep_line(x_values, epsilon, c, H, profile, quad, opts=None):
    """Solve along the horizontal line Im(z) = epsilon, starting each point
    from the linear extrapolation of the answers at the two points before it.

    The n points are cut into ``min(_STACK_SIZE, ceil(n / _STACK_SIZE))``
    contiguous segments of near-equal length, so a grid of at most
    ``_STACK_SIZE`` (8) points is one segment, and each segment is swept on
    its own.  Its first point starts from its own start, the mean-field
    start, and its second from the first's weights.  Each later point
    starts from ``s_{k-1} + min(r, 1) (s_{k-1} - s_{k-2})``, a predictor
    step (Allgower & Georg, *Introduction to Numerical Continuation
    Methods*, SIAM 2003) with ``r = (x_k - x_{k-1}) / (x_{k-1} -
    x_{k-2})``, if ``0 < r <= _MAX_STEP_RATIO`` (1.25), else from
    ``s_{k-1}`` alone.  The start is
    only a guess: the solve from it keeps the stopping rule and the class
    check of every solve.

    The segments advance in rounds: round j solves the j-th point of every
    segment that has one, in one lockstep stack (see :func:`_solve`), so
    the answers are those of sweeping each segment alone, within rounding.
    Then the points of the round whose solve failed (no convergence, a
    degenerate denominator, or an answer that fails its checks) are
    rescued one at a time in x order: a point with a given start is solved
    once more from the mean-field start at that point, and points that
    still fail are rescued by the ladder of :func:`solve_with_continuation`
    from the contraction height (or from epsilon, if that is higher), with
    the finest step ``LADDER_FACTOR``.  A failed rescue re-raises its error
    type with x and the rung height added, and ends the sweep: when
    several points would fail, the one that raises is the first in the
    order the rescues run, the lowest round first and the smallest x
    within a round.  Returns the list of SolveReports in x order.  Raises
    :class:`InvalidInput` unless ``c`` lies in (0, 1] and ``quad`` is the
    quadrature on [c, 1].
    """
    epsilon = positive_height(epsilon, "epsilon")
    points = [upper_half_plane(complex(x, epsilon))
              for x in np.asarray(x_values, dtype=float).tolist()]
    opts = opts or SolverOptions()
    stepper = _Stepper(H, profile, quad, c)
    # the iterate of each answer: its report's kernels are views of it, so
    # keeping it costs no memory
    reports, states = [None] * len(points), [None] * len(points)
    segments = _segments(len(points))
    for j in range(len(segments[0])):
        ks = [segment[j] for segment in segments if j < len(segment)]
        starts = []
        for k in ks:
            start = states[k - 1] if j else None
            if j > 1:
                before = points[k - 1].real - points[k - 2].real
                ratio = (points[k].real - points[k - 1].real) / before if before else 0.0
                if 0 < ratio <= _MAX_STEP_RATIO:
                    start = start + min(1.0, ratio) * (start - states[k - 2])
            starts.append(start)
        outcomes = _solve([points[k] for k in ks], stepper, opts, starts)
        for k, start, outcome in zip(ks, starts, outcomes):
            if isinstance(outcome, _SOLVE_FAILURES):
                z = points[k]
                outcome = _rescue(z, stepper, opts, outcome.iterations, start is not None,
                                  stepper.height, LADDER_FACTOR, f"rescue at x={z.real!r}")
            reports[k], states[k] = outcome
    return reports
