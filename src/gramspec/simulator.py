"""Finite random-matrix realizations and their empirical spectral objects.

Samples N x n matrices Sigma = Y + Lambda with Y_ij = sigma(i/N, j/n) /
sqrt(n) * X_ij and a diagonal offset, computes Gram spectra, diagonal
resolvent kernels, row-deletion identities, and empirical-vs-limit
distances.  Sampling uses the counter-based Philox generator keyed by the
seed, so every sample is reproducible independently of scheduling.

Each matrix has one buffer.  Sigma is allocated once and drawn, scaled by
the profile and normalized in place, a block of whole rows at a time.
Every Gram product goes through one helper that forms Sigma Sigma* in C
order (syrk for a real Sigma; zherk for a complex one, with no conjugated
copy of Sigma, its triangle then mirrored in place).  The eigensolver gets
the Fortran-ordered transpose view of that matrix, which LAPACK reads
without a copy; the resolvent diagonal takes z off its diagonal, factors
G - zI by LU in place and reads diag((G - zI)^{-1}) off the inverted
triangular factors in row blocks, so the N x N resolvent is never formed.
A spectrum or a resolvent diagonal thus peaks at about Sigma plus one Gram.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

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
        check_count((self.N, self.n), "dimensions (N, n)", 1)
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
        check_range(ev, "eigenvalues", _EIG_CLAMP)
        check_range(np.diff(ev), "ascending eigenvalues: each step")
        self.eigenvalues = np.clip(ev, 0.0, None)
        self.dims = tuple(self.dims)


def _draw_real(rng, law, out):
    """Draw the next ``out.size`` entries of a real ``law`` into ``out``."""
    if law == "gaussian":
        rng.standard_normal(out=out)
    elif law == "rademacher":
        np.multiply(rng.integers(0, 2, size=out.shape), 2.0, out=out)
        out -= 1.0
    else:
        root3 = math.sqrt(3.0)
        out[...] = rng.uniform(-root3, root3, size=out.shape)


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

    Sigma is the only N x n array allocated.  It is filled in blocks of
    whole rows, about ``_BLOCK_ENTRIES`` entries each: the block's draws
    go straight into Sigma, and the block is then multiplied by
    sqrt(sigma^2) and divided by sqrt(n) in place, with the same roundings
    as one expression on whole matrices.  The Philox stream order is
    unchanged: row after row and, for complex entries, all N n real parts
    before all imaginary parts, so every seed gives the same bits as a
    draw of the whole matrix.  The real parts wait in the upper half of
    Sigma's own memory, which the blocks, written from the top, overwrite
    only after reading them.
    """
    lam = _offsets(lambda_diag, spec.N)
    n_rows, n_cols = spec.N, spec.n
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    rows = np.arange(1, n_rows + 1) / n_rows
    cols = np.arange(1, n_cols + 1) / n_cols
    is_complex = spec.entry_law == "complex-gaussian"
    sigma = np.empty((n_rows, n_cols), dtype=complex if is_complex else float)
    if is_complex:
        parked = sigma.reshape(-1).view(float)[n_rows * n_cols:].reshape(n_rows, n_cols)
        rng.standard_normal(out=parked)
    step = max(1, _BLOCK_ENTRIES // n_cols)
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        block = sigma[lo:hi]
        if is_complex:
            re = parked[lo:hi].copy()  # the block may overlap its real parts
            np.multiply(1j, rng.standard_normal(block.shape), out=block)
            block += re
            block /= math.sqrt(2.0)
        else:
            _draw_real(rng, spec.entry_law, block)
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
        gram = sla.blas.zherk(1.0, sigma.T, trans=2, lower=0).T
        _mirror_lower(gram)
        return gram
    return sigma @ sigma.T


def _mirror_lower(a):
    """Overwrite the upper triangle of a square array with the conjugate
    transpose of its lower one, 128 rows at a time (index arrays for the
    whole triangle take three times as long), conjugating straight into
    the upper triangle with no copy of the strip."""
    n = a.shape[0]
    for lo in range(0, n, 128):
        hi = min(lo + 128, n)
        np.conjugate(a[hi:, lo:hi].T, out=a[lo:hi, hi:])
        diag = a[lo:hi, lo:hi]
        diag[...] = np.tril(diag) + np.tril(diag, -1).conj().T


def _shifted_gram(sigma, z):
    """Sigma Sigma* - zI as a whole complex matrix in C order; z is taken
    off the diagonal in place, and no identity matrix is built."""
    a = _gram(sigma)
    if not np.iscomplexobj(a):
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
    The diagonal is read in blocks of whole rows of about
    ``_BLOCK_ENTRIES`` entries, so no second N x N array is formed.
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
    q_diag = np.empty(n, dtype=inv.dtype)
    step = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
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
    try:
        # LAPACK reads the Fortran-ordered view without a copy; for a
        # Hermitian Gram it is the conjugate, which has the same eigenvalues
        ev = sla.eigvalsh(_gram(sigma).T, lower=True, overwrite_a=True)
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
    lam = _offsets(lambda_diag, n_rows)
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
    """Zero out offsets with squared value above bound_sq, all offsets finite.

    Returns (truncated diagonal, number of entries zeroed).  Each zeroed
    entry perturbs the empirical distribution function by at most 1/N in
    sup norm, being a rank-one change.
    """
    bound_sq = check_range(bound_sq, "bound_sq")
    lam = _offsets(lambda_diag, np.size(lambda_diag))
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
