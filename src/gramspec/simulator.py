"""Finite random-matrix realizations and their empirical spectral objects.

Samples N x n matrices Sigma = Y + Lambda with Y_ij = sigma(i/N, j/n) /
sqrt(n) * X_ij and a diagonal offset, computes Gram spectra, diagonal
resolvent kernels and empirical-vs-limit distances.  Sampling uses the
counter-based Philox generator keyed by the seed, so every sample is
reproducible independently of scheduling.

Each matrix has one buffer.  Sigma is allocated once and drawn, scaled by
the profile and normalized in place, a block of whole rows at a time; a
complex Sigma takes two passes, its real parts through ``Sigma.real`` and
then its imaginary parts through ``Sigma.imag``.  One rule, ``_row_blocks``,
cuts every blocked loop over a matrix into blocks of whole rows of about
``_BLOCK_ENTRIES`` entries.
Every Gram product goes through one helper that forms Sigma Sigma* in C
order (syrk for a real Sigma; zherk for a complex one, with no conjugated
copy of Sigma, its triangle then mirrored in place).  The eigensolver gets
the Fortran-ordered transpose view of that matrix, which LAPACK reads
without a copy; the resolvent diagonal takes z off its diagonal, factors
G - zI by LU in place and reads diag((G - zI)^{-1}) off the inverted
triangular factors in row blocks, so the N x N resolvent is never formed.
For a real Sigma that complex matrix is the only N x N buffer: the real
Gram is formed in the second half of its memory and widened into it.
A spectrum or a resolvent diagonal thus peaks at about Sigma plus one Gram.

``scipy.linalg`` (zherk, eigvalsh, the LU and trtri routines) is
imported inside the three functions that call it, not with the module:
that import loads about 300 modules and 25 MB, which the commands that
only solve the limit (``gramspec solve``, ``density``, ``compare
--sim-dir``) would pay for and never use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInput, NumericalFailure, check_count, check_range, check_stieltjes,
                     upper_half_plane)
from .measures import ComplexKernel

ENTRY_LAWS = ("gaussian", "rademacher", "uniform", "complex-gaussian")
RNG_NAME = "philox4x64"
SEED_BITS = 128  # Philox keys are 128-bit

_EIG_CLAMP = -1e-10
_BLOCK_ENTRIES = 1 << 15  # entries in one row block of a blocked loop over a matrix


def check_seed(seed):
    """Raise :class:`InvalidInput` unless ``seed`` is an integer, not a
    bool, in [0, 2**128), the key range of Philox."""
    check_count(seed, "seed", 0, SEED_BITS)


@dataclass
class EnsembleSpec:
    """Entry law, seed and dimensions of one matrix ensemble.

    All built-in laws are centered with unit (absolute) second moment and
    have all moments finite.  The seed is required and passes
    :func:`check_seed`; the dimensions are integers under the same rule,
    with N <= n.  An N x n matrix with N > n is drawn as its transpose,
    the n x N matrix with profile ``profile.transposed(N / n)``, which has
    the same law.
    """

    entry_law: str
    seed: int
    N: int
    n: int

    def __post_init__(self):
        if self.entry_law not in ENTRY_LAWS:
            raise InvalidInput(f"unknown entry law {self.entry_law!r}")
        check_seed(self.seed)
        check_count((self.N, self.n), "dimensions (N, n)", 1)
        if self.N > self.n:
            raise InvalidInput(f"N={self.N} must not exceed n={self.n}: draw the n x N "
                               "transpose instead, with the profile's transposed(N/n)")


@dataclass
class SpectrumSample:
    """Sorted Gram eigenvalues of one realization."""

    eigenvalues: np.ndarray
    seed: int | None
    dims: tuple

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size == 0:
            raise InvalidInput("eigenvalues must be a nonempty 1-d array")
        check_range(ev, "eigenvalues", _EIG_CLAMP)
        check_range(np.diff(ev), "ascending eigenvalues: each step")
        self.eigenvalues = np.clip(ev, 0.0, None)
        self.dims = tuple(self.dims)


def _draw(rng, law, shape):
    """The next entries of a real ``law``, as a float array of ``shape``."""
    if law == "gaussian":
        return rng.standard_normal(shape)
    if law == "rademacher":
        return rng.integers(0, 2, size=shape) * 2.0 - 1.0
    return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=shape)


def _row_blocks(n_rows, n_cols):
    """``(lo, hi)`` bounds of the blocks of whole rows in which every
    blocked loop walks an ``n_rows x n_cols`` array: about
    ``_BLOCK_ENTRIES`` entries each, at least one row."""
    step = max(1, _BLOCK_ENTRIES // n_cols)
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _offsets(lambda_diag, n_rows):
    """``lambda_diag`` as a float array; raises :class:`InvalidInput` unless
    it holds ``n_rows`` finite offsets, one per row."""
    lam = np.asarray(lambda_diag, dtype=float)
    if lam.shape != (n_rows,):
        raise InvalidInput(f"lambda_diag must have length N={n_rows}")
    check_range(np.abs(lam), "offsets |lambda_diag|")
    return lam


def sample_sigma_matrix(spec, profile, lambda_diag):
    """One realization Sigma_ij = sigma(i/N, j/n)/sqrt(n) X_ij + Lambda_ii 1{i=j}.

    Sigma is the only N x n array allocated.  It is filled in the blocks
    of ``_row_blocks``: each block's draws go into Sigma, and the block is
    then multiplied by sqrt(sigma^2) and divided by sqrt(n) in place, with
    the same roundings as one expression on whole matrices.  The Philox
    stream is read row after row and, for complex entries, all N n real
    parts before all imaginary parts, so every seed gives the same bits as
    a draw of the whole matrix.  Complex entries take two passes over the
    blocks: the first draws the real parts into ``Sigma.real``, the second
    the imaginary parts into ``Sigma.imag`` before it scales the block.
    """
    lam = _offsets(lambda_diag, spec.N)
    n_rows, n_cols = spec.N, spec.n
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    rows = np.arange(1, n_rows + 1) / n_rows
    cols = np.arange(1, n_cols + 1) / n_cols
    is_complex = spec.entry_law == "complex-gaussian"
    sigma = np.empty((n_rows, n_cols), dtype=complex if is_complex else float)
    blocks = _row_blocks(n_rows, n_cols)
    if is_complex:
        for lo, hi in blocks:
            sigma[lo:hi].real = rng.standard_normal(sigma[lo:hi].shape)
    for lo, hi in blocks:
        block = sigma[lo:hi]
        if is_complex:
            block.imag = rng.standard_normal(block.shape)
            block /= math.sqrt(2.0)
        else:
            block[...] = _draw(rng, spec.entry_law, block.shape)
        block *= np.sqrt(profile.evaluate(rows[lo:hi, None], cols[None, :]))
        block /= math.sqrt(n_cols)
    idx = np.arange(n_rows)
    sigma[idx, idx] = sigma[idx, idx] + lam
    return sigma


def _gram(sigma):
    """Sigma Sigma* as a whole Hermitian matrix in C order.

    A real Sigma goes through ``sigma @ sigma.T``, which numpy sends to
    syrk and completes itself.  A complex one goes to zherk on the
    Fortran-ordered view ``sigma.T``, which needs neither a copy of Sigma
    nor a conjugated one, and its lower triangle is mirrored in place.
    """
    if np.iscomplexobj(sigma):
        import scipy.linalg as sla
        gram = sla.blas.zherk(1.0, sigma.T, trans=2, lower=0).T
        _mirror_lower(gram)
        return gram
    return sigma @ sigma.T


def _mirror_lower(a):
    """Overwrite the upper triangle of a square array with the conjugate
    transpose of its lower one, a strip of ``_row_blocks`` rows at a time
    (index arrays for the whole triangle take three times as long),
    conjugating straight into the upper triangle with no copy of the
    strip."""
    n = a.shape[0]
    for lo, hi in _row_blocks(n, n):
        np.conjugate(a[hi:, lo:hi].T, out=a[lo:hi, hi:])
        diag = a[lo:hi, lo:hi]
        diag[...] = np.tril(diag) + np.tril(diag, -1).conj().T


def _shifted_gram(sigma, z):
    """Sigma Sigma* - zI as a whole complex matrix in C order; z is taken
    off the diagonal in place, and no identity matrix is built.

    For a real Sigma the complex matrix is the only N x N buffer: the real
    Gram (syrk) is written into the second half of its memory and widened
    forward into it in the blocks of ``_row_blocks``.  No block's
    destination reaches a later block's source; numpy buffers the source
    of a tail block that its destination overlaps.
    """
    n = sigma.shape[0]
    if np.iscomplexobj(sigma):
        a = _gram(sigma)
    else:
        a = np.empty((n, n), dtype=complex)
        g = a.reshape(-1).view(float)[n * n:].reshape(n, n)
        np.matmul(sigma, sigma.T, out=g)
        for lo, hi in _row_blocks(n, n):
            a[lo:hi] = g[lo:hi]
    diag = np.arange(n)
    a[diag, diag] -= z
    return a


def _inverse_diagonal(a):
    """diag(A^{-1}) from an LU factorization of A, never forming A^{-1}.

    ``a`` is overwritten.  With A = P L U, both triangular factors are
    inverted in place by LAPACK trtri (L with its unit diagonal), and
    diag(A^{-1})_i = sum_j (U^{-1})_ij (L^{-1})_{j, k_i}, where P^T sends
    column k_i to i.  That costs 2/3 N^3 after the factorization, against
    2 N^3 for solving against the identity.  The factorization runs on the
    Fortran-ordered view a.T, whose inverse has the same diagonal as A's.
    The diagonal is read in the row blocks of ``_row_blocks``, so no
    second N x N array is formed.
    """
    import scipy.linalg as sla
    n = a.shape[0]
    lu, piv = sla.lu_factor(a.T, overwrite_a=True)
    trtri, = sla.get_lapack_funcs(("trtri",), (lu,))
    inv, info = trtri(lu, lower=0, unitdiag=0, overwrite_c=1)
    if info == 0:
        inv, info = trtri(inv, lower=1, unitdiag=1, overwrite_c=1)
    if info != 0:
        raise NumericalFailure(f"triangular factor inversion failed (info={info})")
    # inv holds U^{-1} on and above the diagonal and L^{-1} strictly below;
    # the row interchanges give L U = A[perm], so A^{-1} = U^{-1} L^{-1} P^T
    perm = np.arange(n)
    for i, p in enumerate(piv):
        perm[i], perm[p] = perm[p], perm[i]
    col = np.empty(n, dtype=np.intp)
    col[perm] = np.arange(n)
    rows = np.arange(n)
    q_diag = np.empty(n, dtype=inv.dtype)
    for lo, hi in _row_blocks(n, n):
        c, r = col[lo:hi], rows[lo:hi]
        # row k of w is column c[k] of L^{-1}, cut to the columns j >= r[k]
        # where U^{-1} is nonzero
        w = inv.T[c]
        w[rows[None, :] < np.maximum(c, r)[:, None]] = 0.0
        w[rows[:hi - lo], c] = c >= r
        q_diag[lo:hi] = np.einsum("ij,ij->i", inv[lo:hi], w)
    return q_diag


def gram_eigenvalues(sigma, seed=None):
    """Sorted eigenvalues of Sigma Sigma*; trace must match ||Sigma||_F^2."""
    sigma = np.asarray(sigma)
    if sigma.ndim != 2 or sigma.size == 0:
        raise InvalidInput("sigma must be a nonempty matrix")
    import scipy.linalg as sla
    try:
        # LAPACK reads the Fortran-ordered view without a copy; for a
        # Hermitian Gram it is the conjugate, which has the same eigenvalues
        ev = sla.eigvalsh(_gram(sigma).T, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolve failed: {exc}") from exc
    if ev[0] < _EIG_CLAMP:
        raise NumericalFailure(f"negative eigenvalue {ev[0]:.3e} beyond round-off")
    ev = np.clip(ev, 0.0, None)
    fro2 = float(np.vdot(sigma, sigma).real)
    if abs(ev.sum() - fro2) > 1e-8 * max(1.0, fro2):
        raise NumericalFailure(
            f"trace identity violated: sum(eig)={ev.sum():.12g}, ||Sigma||_F^2={fro2:.12g}")
    return SpectrumSample(ev, seed, sigma.shape)


def sample_spectrum(spec, profile, lambda_diag):
    """Sample a matrix and return its Gram spectrum, tagged with the seed."""
    sigma = sample_sigma_matrix(spec, profile, lambda_diag)
    return gram_eigenvalues(sigma, seed=spec.seed)


def empirical_stieltjes(sigma, lambda_diag, z):
    """Diagonal resolvent kernel of Sigma Sigma* and its normalized trace.

    Returns (L, f_n) where L puts weight q_ii(z)/N on (i/N, Lambda_ii^2)
    and f_n = (1/N) Tr (Sigma Sigma* - z)^{-1}.  The diagonal comes from
    one dense LU factorization of Sigma Sigma* - zI and the inverses of its
    two triangular factors; the N x N resolvent is never formed, and no
    general inverse routine (inv, getri) is called.  Every q_ii must pass
    :func:`~gramspec.errors.check_stieltjes` with numerator 1, as the
    solver's weights do, or :class:`NumericalFailure` is raised.
    """
    z = upper_half_plane(z)
    sigma = np.asarray(sigma)
    n_rows = sigma.shape[0]
    lam = _offsets(lambda_diag, n_rows)
    q_diag = _inverse_diagonal(_shifted_gram(sigma, z))
    check_stieltjes(z, q_diag, 1.0)
    points_u = np.arange(1, n_rows + 1) / n_rows
    kernel = ComplexKernel(points_u, lam ** 2, q_diag / n_rows)
    return kernel, complex(q_diag.mean())


def ks_compare(sample, cdf):
    """Sup over sample jump points of |ECDF - cdf|.

    The ECDF is evaluated right-continuously (ties share the rank of the
    last equal point), so a sample compared against its own step function
    gives exactly zero.
    """
    ev = sample.eigenvalues
    ecdf = np.searchsorted(ev, ev, side="right") / ev.size
    ref = np.asarray(cdf(ev), dtype=float)
    return float(np.max(np.abs(ecdf - ref)))
