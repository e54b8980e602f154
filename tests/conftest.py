"""Test-suite settings and helpers: every hypothesis test draws the same
examples on every run and keeps no example database, so tier-1 is
deterministic and writes no ``.hypothesis/`` directory into the checkout;
``peak_bytes`` is the one memory probe of the memory tests.  The
reference checks live here too: the paper's four contraction bounds
(``theta_bound``, ``reference_height``), which the solver's contraction
height is tested against, the solver's Newton Jacobian formed through one
dense derivative matrix (``reference_jacobian``), which its own Jacobian is
tested against, and the row-deletion resolvent identity
(``schur_identity_check``), a finite-matrix check with its own dense
solves."""

import math
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from gramspec.errors import InvalidInput, NumericalFailure, upper_half_plane
from gramspec.simulator import _shifted_gram

settings.register_profile("gramspec", derandomize=True, deadline=None, database=None)
settings.load_profile("gramspec")


def pytest_configure(config):
    # hypothesis also caches the constants it reads from local modules
    # under its home directory, from test collection on; keep that in a
    # temporary directory removed at the end of the run
    home = Path(tempfile.mkdtemp(prefix="hypothesis-"))
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


def peak_bytes(fn, *args):
    """``(fn(*args), peak)``: the result and the most bytes traced by
    tracemalloc at any moment of the call, which numpy reports every array
    buffer to; arrays that exist before the call do not count."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def contraction_bounds(sigma_max_sq, c, lambda_m1):
    """The paper's four contraction bounds 2 c s2 m1 / y^2, sqrt(2) s2 / y,
    3 s2 / y and 2 s2 m1 / y^2 as ``(a, p)`` pairs, a bound being ``a /
    y**p``; s2 = sigma_max_sq and m1, the first lambda moment, are >= 0."""
    s2, m1 = sigma_max_sq, lambda_m1
    return ((2.0 * c * s2 * m1, 2), (math.sqrt(2.0) * s2, 1), (3.0 * s2, 1),
            (2.0 * s2 * m1, 2))


def theta_bound(sigma_max_sq, c, lambda_m1, im_z):
    """Largest of the four contraction bounds at height Im(z) = im_z."""
    return max(a / im_z ** p for a, p in contraction_bounds(sigma_max_sq, c, lambda_m1))


def reference_height(sigma_max_sq, c, lambda_m1):
    """Smallest Im(z) above which all four contraction bounds are < 1/2:
    ``a / y**p = 1/2`` at ``y = (2 a)**(1/p)``."""
    return max(2.0 * a if p == 1 else math.sqrt(2.0 * a)
               for a, p in contraction_bounds(sigma_max_sq, c, lambda_m1))


def reference_jacobian(stepper, profile, z, g, one):
    """The ``2k x 2k`` Jacobian of the stepper's reduced map at the point
    where ``stepper.weights`` returned ``(g, one)``, formed from the real
    factors of ``profile`` through the derivative of the weights.

    Each weight is ``num / den``, so ``dg = -(g^2 / num) dden``, and
    ``dden`` is diagonal in ``(A, B, C)``.  ``E = dg/dx`` is formed once,
    (2m + q) x 2k, and reduced by the factors: ``J = [Psi^T E[m:];
    Phi^T E[:m]]``, as real products on the (re, im) pairs of ``E``.
    """
    phi, V, Psi = profile.factors(stepper.H.u, stepper.tilde_t)
    Phi = phi @ V
    m, c, lam = stepper.m, stepper.c, stepper.H.lam
    k = Phi.shape[1]
    h = g * g / stepper.num
    E = np.zeros((g.size, 2 * k), complex)
    # dp/dA = z p^2/w and dp/dB = c lam p^2 / (w (1 + c B)^2)
    np.multiply((z * h[:m])[:, None], Phi, out=E[:m, :k])
    np.multiply((c * lam * h[:m] / one[m:] ** 2)[:, None], Psi[:m], out=E[:m, k:])
    # dpa/dA = lam pa^2 / (c w (1 + A)^2), dpa/dB = z pa^2/w, dr/dC = z c r^2/omega
    np.multiply((lam * h[m:2 * m] / one[:m] ** 2)[:, None], Phi, out=E[m:2 * m, :k])
    np.multiply((z * c * h[m:])[:, None], Psi, out=E[m:, k:])
    return np.concatenate([Psi.T @ E[m:].view(np.float64),
                           Phi.T @ E[:m].view(np.float64)]).view(complex)


def schur_identity_check(sigma, z, i):
    """Residual of the row-deletion resolvent identity at 1-based row i.

    Compares q_ii(z) against 1 / (-z - z xi (S_i* S_i - z)^{-1} xi*) where
    xi is row i and S_i is sigma with that row removed.  The identity is
    exact in exact arithmetic; the residual measures round-off only.
    """
    z = upper_half_plane(z)
    sigma = np.asarray(sigma)
    n_rows = sigma.shape[0]
    if not 1 <= i <= n_rows:
        raise InvalidInput(f"row index must lie in [1, {n_rows}]")
    import scipy.linalg as sla
    try:
        e_i = np.zeros(n_rows, dtype=complex)
        e_i[i - 1] = 1.0
        q_ii = sla.solve(_shifted_gram(sigma, z), e_i)[i - 1]
        xi = sigma[i - 1]
        rest = np.delete(sigma, i - 1, axis=0)
        # S_i* S_i is the Gram of S_i*
        inner = xi @ sla.solve(_shifted_gram(rest.conj().T, z), xi.conj())
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"linear solve failed: {exc}") from exc
    return float(abs(q_ii - 1.0 / (-z - z * inner)))
