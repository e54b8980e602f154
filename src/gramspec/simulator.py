"""Finite random-matrix realizations and their empirical spectral objects.

Samples N x n matrices Sigma = Y + Lambda with Y_ij = sigma(i/N, j/n) /
sqrt(n) * X_ij and a diagonal offset, computes Gram spectra, diagonal
resolvent kernels, row-deletion identities, and empirical-vs-limit
distances.  Sampling uses the counter-based Philox generator keyed by the
seed, so every sample is reproducible independently of scheduling.

Every Gram product goes through one helper that forms only the lower
triangle of Sigma Sigma* (syrk for a real Sigma, zherk for a complex one,
with no conjugated copy of Sigma).  The eigensolver reads that triangle
alone; the resolvent diagonal mirrors it once, factors G - zI by LU in
place and reads diag((G - zI)^{-1}) off the inverted triangular factors,
so the N x N resolvent is never formed.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InvalidInput, NumericalFailure, check_stieltjes, upper_half_plane
from .measures import ComplexKernel

ENTRY_LAWS = ("gaussian", "rademacher", "uniform", "complex-gaussian")
RNG_NAME = "philox4x64"
SEED_BOUND = 2 ** 128  # Philox keys are 128-bit

_EIG_CLAMP = -1e-10


def _is_integer(value):
    """Whether ``value`` is a Python or numpy integer and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed):
    """Raise :class:`InvalidInput` unless ``seed`` is an integer, not a
    bool, in [0, 2**128), the key range of Philox."""
    if not (_is_integer(seed) and 0 <= seed < SEED_BOUND):
        raise InvalidInput(f"seed must be an integer in [0, 2**128), got {seed!r}")


@dataclass
class EnsembleSpec:
    """Entry law, seed and dimensions of one matrix ensemble.

    All built-in laws are centered with unit (absolute) second moment and
    have all moments finite.  The seed is None (left to be set) or passes
    :func:`check_seed`; the dimensions are integers under the same rule.
    """

    entry_law: str
    seed: int
    N: int
    n: int

    def __post_init__(self):
        if self.entry_law not in ENTRY_LAWS:
            raise InvalidInput(f"unknown entry law {self.entry_law!r}")
        if self.seed is not None:
            check_seed(self.seed)
        if not (_is_integer(self.N) and _is_integer(self.n)):
            raise InvalidInput(f"dimensions must be integers, got N={self.N!r}, "
                               f"n={self.n!r}")
        if self.N < 1 or self.n < 1:
            raise InvalidInput("dimensions must be >= 1")
        if self.N > self.n:
            raise InvalidInput("N must not exceed n (transpose the model first)")


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
        if np.any(np.diff(ev) < 0):
            raise InvalidInput("eigenvalues must be sorted ascending")
        if ev[0] < _EIG_CLAMP:
            raise InvalidInput(f"negative eigenvalue {ev[0]:.3e} beyond round-off")
        self.eigenvalues = np.clip(ev, 0.0, None)
        self.dims = tuple(self.dims)


def _draw_entries(spec):
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    shape = (spec.N, spec.n)
    if spec.entry_law == "gaussian":
        return rng.standard_normal(shape)
    if spec.entry_law == "rademacher":
        return rng.integers(0, 2, size=shape) * 2.0 - 1.0
    if spec.entry_law == "uniform":
        root3 = math.sqrt(3.0)
        return rng.uniform(-root3, root3, size=shape)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / math.sqrt(2.0)


def sample_sigma_matrix(spec, profile, lambda_diag):
    """One realization Sigma_ij = sigma(i/N, j/n)/sqrt(n) X_ij + Lambda_ii 1{i=j}."""
    lam = np.asarray(lambda_diag, dtype=float)
    if lam.shape != (spec.N,):
        raise InvalidInput(f"lambda_diag must have length N={spec.N}")
    rows = np.arange(1, spec.N + 1) / spec.N
    cols = np.arange(1, spec.n + 1) / spec.n
    sig = np.sqrt(np.asarray(profile.evaluate(rows[:, None], cols[None, :])))
    x = _draw_entries(spec)
    sigma = sig * x / math.sqrt(spec.n)
    idx = np.arange(spec.N)
    sigma[idx, idx] = sigma[idx, idx] + lam
    return sigma


def _gram(sigma):
    """Sigma Sigma*, whole for a real Sigma and as its lower triangle (the
    upper one unspecified) for a complex one.

    A real Sigma goes through ``sigma @ sigma.T``, which numpy sends to
    syrk.  A complex one goes to zherk on the Fortran-ordered view
    ``sigma.T``, which needs neither a copy of Sigma nor a conjugated one.
    """
    if np.iscomplexobj(sigma):
        return sla.blas.zherk(1.0, sigma.T, trans=2, lower=0).T
    return sigma @ sigma.T


def _mirror_lower(a):
    """Overwrite the upper triangle of a square array with the conjugate
    transpose of its lower one, 128 rows at a time (index arrays for the
    whole triangle take three times as long)."""
    n = a.shape[0]
    for lo in range(0, n, 128):
        hi = min(lo + 128, n)
        a[lo:hi, hi:] = a[hi:, lo:hi].conj().T
        diag = a[lo:hi, lo:hi]
        diag[...] = np.tril(diag) + np.tril(diag, -1).conj().T


def _shifted_gram(sigma, z):
    """Sigma Sigma* - zI as a whole complex matrix in C order.

    A complex Gram has its triangle mirrored in place, and z is taken off
    the diagonal in place; no identity matrix is built.
    """
    a = _gram(sigma)
    if np.iscomplexobj(a):
        _mirror_lower(a)
    else:
        a = a.astype(complex)
    diag = np.arange(a.shape[0])
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
    """
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
    # row i of w is column col[i] of L^{-1}, cut to the columns j >= i where
    # U^{-1} is nonzero
    w = inv.T[col]
    w[rows[None, :] < np.maximum(col, rows)[:, None]] = 0.0
    w[rows, col] = col >= rows
    return np.einsum("ij,ij->i", inv, w)


def gram_eigenvalues(sigma, seed=None):
    """Sorted eigenvalues of Sigma Sigma*; trace must match ||Sigma||_F^2."""
    sigma = np.asarray(sigma)
    if sigma.ndim != 2 or sigma.size == 0:
        raise InvalidInput("sigma must be a nonempty matrix")
    try:
        ev = sla.eigvalsh(_gram(sigma), lower=True, overwrite_a=True)
    except sla.LinAlgError as exc:
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
    lam = np.asarray(lambda_diag, dtype=float)
    if lam.shape != (n_rows,):
        raise InvalidInput("lambda_diag must match the row count")
    q_diag = _inverse_diagonal(_shifted_gram(sigma, z))
    check_stieltjes(z, q_diag, 1.0)
    points_u = np.arange(1, n_rows + 1) / n_rows
    kernel = ComplexKernel(points_u, lam ** 2, q_diag / n_rows)
    return kernel, complex(q_diag.mean())


def empirical_f_tilde(sample, z):
    """Normalized resolvent trace of the transposed Gram matrix.

    Computed from the Gram spectrum: the transposed matrix shares the
    nonzero eigenvalues and carries n - N extra zeros.
    """
    z = upper_half_plane(z)
    n_rows, n_cols = sample.dims
    trace = np.sum(1.0 / (sample.eigenvalues - z)) + (n_cols - n_rows) * (-1.0 / z)
    return complex(trace / n_cols)


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
    try:
        e_i = np.zeros(n_rows, dtype=complex)
        e_i[i - 1] = 1.0
        q_ii = sla.solve(_shifted_gram(sigma, z), e_i)[i - 1]
        xi = sigma[i - 1]
        rest = np.delete(sigma, i - 1, axis=0)
        # S_i* S_i is the Gram of S_i*
        inner = xi @ sla.solve(_shifted_gram(rest.conj().T, z), xi.conj())
    except sla.LinAlgError as exc:
        raise NumericalFailure(f"linear solve failed: {exc}") from exc
    return float(abs(q_ii - 1.0 / (-z - z * inner)))


def truncate_diagonal(lambda_diag, bound_sq):
    """Zero out offsets with squared value above bound_sq.

    Returns (truncated diagonal, number of entries zeroed).  Each zeroed
    entry perturbs the empirical distribution function by at most 1/N in
    sup norm, being a rank-one change.
    """
    if bound_sq < 0:
        raise InvalidInput("bound_sq must be >= 0")
    lam = np.asarray(lambda_diag, dtype=float)
    keep = lam ** 2 <= bound_sq
    return np.where(keep, lam, 0.0), int(np.count_nonzero(~keep))


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


def write_csv(path, header_meta, columns, rows):
    """A table as ``# key: value`` lines, the column names and the rows,
    each line ended by ``\\n``; a (Python, not numpy) float is written by
    ``repr``, which reads back to the same double."""
    lines = [f"# {k}: {v}" for k, v in header_meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def export_csv(sample, path, metadata=None):
    """One eigenvalue per line with seed/dims/rng header comments, then
    the entries of ``metadata`` under other keys."""
    header = {"seed": sample.seed, "N": sample.dims[0], "n": sample.dims[1], "rng": RNG_NAME}
    header.update((k, v) for k, v in (metadata or {}).items() if k not in header)
    write_csv(path, header, ["eigenvalue"], ([v] for v in sample.eigenvalues.tolist()))


def load_csv(path):
    """Read back an exported spectrum; returns (sample, metadata dict).

    A file that is not such an export (no ``# N:`` or ``# n:`` line, a
    value or a header that does not parse, a seed outside the Philox keys,
    other than N eigenvalues) raises :class:`InvalidInput` naming the file
    and, where there is one, the line.
    """
    meta, lines, values = {}, {}, []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                meta[key.strip()] = val.strip()
                lines[key.strip()] = number
            elif line and line != "eigenvalue":
                values.append(_parse(float, line, path, number))
    for key in ("N", "n"):
        if key not in meta:
            raise InvalidInput(f"{path}: no '# {key}:' header line")
    seed = meta.get("seed", "None")
    seed = None if seed == "None" else _parse(int, seed, path, lines["seed"])
    dims = tuple(_parse(int, meta[key], path, lines[key]) for key in ("N", "n"))
    try:
        if seed is not None:
            check_seed(seed)
        if len(values) != dims[0]:
            raise InvalidInput(f"{len(values)} eigenvalues for N={dims[0]}")
        return SpectrumSample(np.asarray(values), seed, dims), meta
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _parse(kind, text, path, number):
    """``kind(text)``, or :class:`InvalidInput` naming line ``number`` of
    ``path`` when ``text`` does not parse."""
    try:
        return kind(text)
    except ValueError as exc:
        raise InvalidInput(f"{path}, line {number}: cannot read {text!r} "
                           f"as {kind.__name__}") from exc
