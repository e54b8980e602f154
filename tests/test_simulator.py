import math

import numpy as np
import pytest
import scipy.linalg

from conftest import peak_bytes
from gramspec import simulator
from gramspec.closed_forms import mp_cdf
from gramspec.errors import InvalidInput, NumericalFailure
from gramspec.measures import VarianceProfile
from gramspec.simulator import (EnsembleSpec, SpectrumSample, _inverse_diagonal,
                                empirical_f_tilde, empirical_stieltjes, export_csv,
                                gram_eigenvalues, ks_compare, load_csv,
                                sample_sigma_matrix, sample_spectrum,
                                schur_identity_check, truncate_diagonal)

UNIT = VarianceProfile.constant(1.0)
LAWS = ["gaussian", "rademacher", "uniform", "complex-gaussian"]
# one profile of each kind, with zeros, so that the signs of zero entries
# are compared too
PROFILES = {
    "constant": VarianceProfile.constant(1.7),
    "separable": VarianceProfile.separable([0.0, 1.0, 2.0], [1.5, 0.0, 0.5]),
    "bilinear": VarianceProfile.bilinear([[0.0, 1.0], [1.5, 2.0]]),
    "blocks": VarianceProfile.blocks([[0.0, 1.0, 3.0], [2.0, 0.0, 0.5]]),
}


def one_shot_sigma(spec, profile, lambda_diag):
    """Sigma drawn and scaled as one whole matrix, each step one numpy
    expression: the reference for the blocked build."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    shape = (spec.N, spec.n)
    if spec.entry_law == "gaussian":
        x = rng.standard_normal(shape)
    elif spec.entry_law == "rademacher":
        x = rng.integers(0, 2, size=shape) * 2.0 - 1.0
    elif spec.entry_law == "uniform":
        x = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=shape)
    else:
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        x = (re + 1j * im) / math.sqrt(2.0)
    rows = np.arange(1, spec.N + 1) / spec.N
    cols = np.arange(1, spec.n + 1) / spec.n
    sig = np.sqrt(np.asarray(profile.evaluate(rows[:, None], cols[None, :])))
    sigma = sig * x / math.sqrt(spec.n)
    idx = np.arange(spec.N)
    sigma[idx, idx] = sigma[idx, idx] + lambda_diag
    return sigma


def one_shot_gram(sigma):
    """The lower triangle of Sigma Sigma* (the upper one unspecified for a
    complex Sigma) in C order, as one BLAS call makes it."""
    if np.iscomplexobj(sigma):
        return scipy.linalg.blas.zherk(1.0, sigma.T, trans=2, lower=0).T
    return sigma @ sigma.T


def full_gather_inverse_diagonal(a):
    """diag(A^{-1}) from the inverted LU factors, read with one N x N
    gather of L^{-1}'s columns and one N x N mask: the reference for the
    blocked read."""
    n = a.shape[0]
    lu, piv = scipy.linalg.lu_factor(a.T, overwrite_a=True)
    trtri, = scipy.linalg.get_lapack_funcs(("trtri",), (lu,))
    inv, _ = trtri(lu, lower=0, unitdiag=0, overwrite_c=1)
    inv, _ = trtri(inv, lower=1, unitdiag=1, overwrite_c=1)
    perm = np.arange(n)
    for i, p in enumerate(piv):
        perm[i], perm[p] = perm[p], perm[i]
    col = np.empty(n, dtype=np.intp)
    col[perm] = np.arange(n)
    rows = np.arange(n)
    w = inv.T[col]
    w[rows[None, :] < np.maximum(col, rows)[:, None]] = 0.0
    w[rows, col] = col >= rows
    return np.einsum("ij,ij->i", inv, w)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSampleSigmaMatrix:
    def test_zero_profile_gives_padded_diagonal(self):
        spec = EnsembleSpec("gaussian", 0, 3, 5)
        lam = np.array([1.0, -2.0, 3.0])
        sigma = sample_sigma_matrix(spec, VarianceProfile.constant(0.0), lam)
        expect = np.zeros((3, 5))
        expect[[0, 1, 2], [0, 1, 2]] = lam
        np.testing.assert_array_equal(sigma, expect)

    def test_same_seed_bit_identical(self):
        spec = EnsembleSpec("uniform", 42, 6, 9)
        lam = np.zeros(6)
        a = sample_sigma_matrix(spec, UNIT, lam)
        b = sample_sigma_matrix(spec, UNIT, lam)
        np.testing.assert_array_equal(a, b)

    def test_entry_variance_matches_profile(self):
        prof = VarianceProfile.bilinear([[0.5, 1.0], [1.5, 2.0]])
        n_draws = 20000
        i, j = 1, 2  # 0-based entry under test
        draws = np.empty(n_draws)
        for s in range(n_draws):
            spec = EnsembleSpec("gaussian", s, 2, 3)
            draws[s] = sample_sigma_matrix(spec, prof, np.zeros(2))[i, j]
        target = prof.evaluate((i + 1) / 2, (j + 1) / 3) / 3
        sample_var = draws.var(ddof=1)
        stderr = target * np.sqrt(2.0 / (n_draws - 1))
        assert abs(sample_var - target) <= 3 * stderr

    @pytest.mark.parametrize("law", ["gaussian", "rademacher", "uniform",
                                     "complex-gaussian"])
    def test_entry_laws_centered_unit_variance(self, law):
        spec = EnsembleSpec(law, 5, 200, 400)
        sigma = sample_sigma_matrix(spec, UNIT, np.zeros(200))
        entries = sigma.ravel() * np.sqrt(400)
        assert abs(entries.mean()) <= 4 / np.sqrt(entries.size)
        assert abs(np.mean(np.abs(entries) ** 2) - 1.0) <= 0.02

    def test_dimension_mismatch_rejected(self):
        spec = EnsembleSpec("gaussian", 0, 3, 5)
        with pytest.raises(InvalidInput):
            sample_sigma_matrix(spec, UNIT, np.zeros(4))

    def test_transposed_dims_rejected(self):
        with pytest.raises(InvalidInput):
            EnsembleSpec("gaussian", 0, 5, 3)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5, "3", True])
    def test_seed_outside_philox_keys_rejected(self, seed):
        with pytest.raises(InvalidInput, match="seed"):
            EnsembleSpec("gaussian", seed, 2, 3)

    @pytest.mark.parametrize("dims", [(1, 2.5), (2.5, 5), (True, 5), (1, True),
                                      ("2", 5), (2.0, 5)])
    def test_non_integer_dims_rejected(self, dims):
        # the dimensions follow the seed's rule: integers, never bools
        with pytest.raises(InvalidInput, match="integers"):
            EnsembleSpec("gaussian", 0, *dims)

    def test_numpy_integer_dims_accepted(self):
        spec = EnsembleSpec("gaussian", 0, np.int64(2), np.int32(3))
        assert (spec.N, spec.n) == (2, 3)

    @pytest.mark.parametrize("seed", [None, 0, 2 ** 128 - 1, np.uint64(7)])
    def test_seed_inside_philox_keys_accepted(self, seed):
        assert EnsembleSpec("gaussian", seed, 2, 3).seed == seed

    @pytest.mark.parametrize("kind", list(PROFILES))
    @pytest.mark.parametrize("law", LAWS)
    def test_blocks_match_one_shot_bit_for_bit(self, law, kind):
        n_rows, n_cols = 100, 1001
        # several blocks, the last one shorter
        assert n_rows % (simulator._BLOCK_ENTRIES // n_cols) != 0
        spec = EnsembleSpec(law, 2 ** 100 + 9, n_rows, n_cols)
        lam = np.linspace(-1.0, 2.0, n_rows)
        sigma = sample_sigma_matrix(spec, PROFILES[kind], lam)
        assert same_bits(sigma, one_shot_sigma(spec, PROFILES[kind], lam))

    @pytest.mark.parametrize("kind", list(PROFILES))
    @pytest.mark.parametrize("law", LAWS)
    def test_peak_memory_below_two_sigmas(self, law, kind):
        spec = EnsembleSpec(law, 4, 600, 1201)
        sigma, peak = peak_bytes(sample_sigma_matrix, spec, PROFILES[kind], np.zeros(600))
        assert peak <= 2 * sigma.nbytes


class TestGramEigenvalues:
    def test_identity_block(self):
        sigma = np.hstack([np.eye(4), np.zeros((4, 3))])
        sample = gram_eigenvalues(sigma)
        np.testing.assert_allclose(sample.eigenvalues, 1.0)

    def test_diagonal_values(self):
        sigma = np.diag([1.0, 2.0, 3.0])
        sample = gram_eigenvalues(sigma)
        np.testing.assert_allclose(sample.eigenvalues, [1.0, 4.0, 9.0])

    def test_trace_identity_random(self):
        spec = EnsembleSpec("gaussian", 1, 8, 12)
        sigma = sample_sigma_matrix(spec, UNIT, np.linspace(0, 1, 8))
        sample = gram_eigenvalues(sigma)
        fro2 = np.sum(sigma ** 2)
        assert abs(sample.eigenvalues.sum() - fro2) <= 1e-10 * fro2

    def test_determinism_through_spectrum(self):
        spec = EnsembleSpec("rademacher", 9, 10, 15)
        a = sample_spectrum(spec, UNIT, np.zeros(10))
        b = sample_spectrum(spec, UNIT, np.zeros(10))
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        assert a.seed == 9 and a.dims == (10, 15)

    def test_complex_matches_numpy(self):
        spec = EnsembleSpec("complex-gaussian", 6, 40, 70)
        sigma = sample_sigma_matrix(spec, UNIT, np.linspace(0, 2, 40))
        ev = gram_eigenvalues(sigma).eigenvalues
        ref = np.linalg.eigvalsh(sigma @ sigma.conj().T)
        np.testing.assert_allclose(ev, np.clip(ref, 0, None), rtol=1e-12,
                                   atol=1e-12 * ref[-1])

    @pytest.mark.parametrize("law", ["gaussian", "complex-gaussian"])
    def test_matches_eigvalsh_on_the_lower_triangle(self, law):
        # more rows than one 128-row strip of the mirror
        sigma = sample_sigma_matrix(EnsembleSpec(law, 14, 200, 301),
                                    PROFILES["bilinear"], np.linspace(0, 1, 200))
        ref = scipy.linalg.eigvalsh(one_shot_gram(sigma), lower=True)
        assert same_bits(gram_eigenvalues(sigma).eigenvalues, np.clip(ref, 0.0, None))

    @pytest.mark.parametrize("law", ["gaussian", "complex-gaussian"])
    def test_peak_memory_one_gram(self, law):
        sigma = sample_sigma_matrix(EnsembleSpec(law, 4, 600, 1201), UNIT, np.zeros(600))
        _, peak = peak_bytes(gram_eigenvalues, sigma)
        assert peak <= 1.2 * 600 * 600 * sigma.itemsize

    def test_finite_duality_with_transposed_gram(self):
        spec = EnsembleSpec("gaussian", 2, 6, 10)
        sigma = sample_sigma_matrix(spec, UNIT, np.linspace(-1, 1, 6))
        ev = gram_eigenvalues(sigma).eigenvalues
        ev_t = np.linalg.eigvalsh(sigma.T @ sigma)
        np.testing.assert_allclose(np.sort(ev_t)[:4], 0.0, atol=1e-12)
        np.testing.assert_allclose(np.sort(ev_t)[4:], ev, rtol=1e-10, atol=1e-12)


class TestEmpiricalStieltjes:
    def test_one_by_one(self):
        sigma = np.array([[2.0]])
        kern, fn = empirical_stieltjes(sigma, np.array([0.0]), 1j)
        assert fn == pytest.approx(1 / (4.0 - 1j))
        assert kern.weights[0] == pytest.approx(1 / (4.0 - 1j))

    def test_matches_eigenvalue_sum(self):
        for law in ("gaussian", "complex-gaussian"):
            spec = EnsembleSpec(law, 4, 12, 18)
            lam = np.linspace(0, 2, 12)
            sigma = sample_sigma_matrix(spec, UNIT, lam)
            ev = gram_eigenvalues(sigma).eigenvalues
            for z in (1j, 2 + 0.5j):
                _, fn = empirical_stieltjes(sigma, lam, z)
                assert abs(fn - np.mean(1 / (ev - z))) <= 1e-10

    @pytest.mark.parametrize("law", ["gaussian", "complex-gaussian"])
    @pytest.mark.parametrize("z", [0.8 + 1e-3j, 2.5 + 1e-3j, 1.2 + 0.1j,
                                   1e-3 + 1e-3j, 0.5 + 2j])
    def test_diagonal_matches_dense_solve(self, law, z):
        n_rows = 60
        spec = EnsembleSpec(law, 8, n_rows, 90)
        lam = np.linspace(0, 1.5, n_rows)
        sigma = sample_sigma_matrix(spec, UNIT, lam)
        gram = sigma @ sigma.conj().T
        ref = np.diag(np.linalg.solve(gram - z * np.eye(n_rows), np.eye(n_rows)))
        kern, fn = empirical_stieltjes(sigma, lam, z)
        q = kern.weights * n_rows
        assert np.max(np.abs(q - ref) / np.abs(ref)) <= 1e-11
        assert abs(fn - ref.mean()) <= 1e-11 * abs(ref.mean())

    @pytest.mark.parametrize("law", ["gaussian", "complex-gaussian"])
    def test_memory_layout_does_not_matter(self, law):
        spec = EnsembleSpec(law, 11, 30, 50)
        lam = np.linspace(0, 1, 30)
        sigma = sample_sigma_matrix(spec, UNIT, lam)
        wide = np.zeros((30, 100), dtype=sigma.dtype)
        wide[:, ::2] = sigma
        ev = gram_eigenvalues(sigma).eigenvalues
        _, fn = empirical_stieltjes(sigma, lam, 1 + 0.1j)
        for other in (np.asfortranarray(sigma), wide[:, ::2]):
            np.testing.assert_allclose(gram_eigenvalues(other).eigenvalues, ev,
                                       rtol=1e-13, atol=1e-13 * ev[-1])
            _, fn_other = empirical_stieltjes(other, lam, 1 + 0.1j)
            assert abs(fn_other - fn) <= 1e-12 * abs(fn)

    def test_no_solve_against_the_identity(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lu_solve called")

        monkeypatch.setattr(scipy.linalg, "lu_solve", refuse)
        spec = EnsembleSpec("complex-gaussian", 12, 20, 30)
        sigma = sample_sigma_matrix(spec, UNIT, np.zeros(20))
        kern, fn = empirical_stieltjes(sigma, np.zeros(20), 1j)
        assert kern.weights.shape == (20,)
        assert fn.imag > 0

    @pytest.mark.parametrize("law", ["gaussian", "complex-gaussian"])
    @pytest.mark.parametrize("z", [0.8 + 1e-3j, 1.2 + 0.1j])
    def test_blocked_diagonal_matches_full_gather(self, law, z):
        n_rows = 300
        # several row blocks, the last one shorter
        assert n_rows % (simulator._BLOCK_ENTRIES // n_rows) != 0
        sigma = sample_sigma_matrix(EnsembleSpec(law, 15, n_rows, 451), UNIT,
                                    np.linspace(0, 1.5, n_rows))
        shifted = simulator._shifted_gram(sigma, z)
        ref = full_gather_inverse_diagonal(shifted.copy())
        assert same_bits(_inverse_diagonal(shifted), ref)

    @pytest.mark.parametrize("law", ["gaussian", "complex-gaussian"])
    def test_peak_memory_one_complex_matrix(self, law):
        sigma = sample_sigma_matrix(EnsembleSpec(law, 4, 600, 1201), UNIT, np.zeros(600))
        _, peak = peak_bytes(empirical_stieltjes, sigma, np.zeros(600), 1 + 0.1j)
        assert peak <= 1.6 * 600 * 600 * 16

    def test_singular_factor_raises(self):
        # G - zI is never singular for Im z > 0; the guard is reached directly
        with pytest.warns(scipy.linalg.LinAlgWarning):
            with pytest.raises(NumericalFailure, match="triangular"):
                _inverse_diagonal(np.zeros((3, 3), dtype=complex))

    def test_diagonal_entries_bounded(self):
        spec = EnsembleSpec("gaussian", 7, 16, 24)
        sigma = sample_sigma_matrix(spec, UNIT, np.zeros(16))
        kern, _ = empirical_stieltjes(sigma, np.zeros(16), 1j)
        assert np.max(np.abs(kern.weights * 16)) <= 1.0 + 1e-9

    def test_entries_outside_the_stieltjes_class_raise(self, monkeypatch):
        # the conjugate keeps every |q_ii| within 1/Im z but makes Im q_ii < 0
        inverse_diagonal = simulator._inverse_diagonal
        monkeypatch.setattr(simulator, "_inverse_diagonal",
                            lambda a: inverse_diagonal(a).conj())
        spec = EnsembleSpec("gaussian", 7, 16, 24)
        sigma = sample_sigma_matrix(spec, UNIT, np.zeros(16))
        with pytest.raises(NumericalFailure, match=r"breaks Im s_k >= 0"):
            empirical_stieltjes(sigma, np.zeros(16), 1j)

    def test_f_tilde_duality_at_finite_n(self):
        spec = EnsembleSpec("gaussian", 3, 8, 16)
        lam = np.linspace(0, 1, 8)
        sigma = sample_sigma_matrix(spec, UNIT, lam)
        sample = gram_eigenvalues(sigma)
        z = 0.5 + 1j
        _, fn = empirical_stieltjes(sigma, lam, z)
        ft = empirical_f_tilde(sample, z)
        ratio = 8 / 16
        assert abs(ft - (ratio * fn - (1 - ratio) / z)) <= 1e-12


class TestSchurIdentity:
    def test_single_row_scalar_resolvent(self):
        sigma = np.array([[1.0, 2.0, 0.5]])
        assert schur_identity_check(sigma, 1j, 1) <= 1e-12

    @pytest.mark.parametrize("dims", [(4, 6), (16, 24), (32, 48)])
    @pytest.mark.parametrize("z", [1j, 1 + 1j, 0.5j])
    def test_random_real(self, dims, z):
        spec = EnsembleSpec("gaussian", 13, *dims)
        sigma = sample_sigma_matrix(spec, UNIT, np.linspace(-1, 2, dims[0]))
        worst = max(schur_identity_check(sigma, z, i)
                    for i in range(1, dims[0] + 1))
        assert worst <= 1e-10

    def test_complex_ensemble(self):
        spec = EnsembleSpec("complex-gaussian", 21, 6, 9)
        sigma = sample_sigma_matrix(spec, UNIT, np.linspace(0, 1, 6))
        worst = max(schur_identity_check(sigma, 1 + 1j, i) for i in range(1, 7))
        assert worst <= 1e-10

    def test_bad_row_rejected(self):
        with pytest.raises(InvalidInput):
            schur_identity_check(np.eye(3), 1j, 4)


class TestTruncateDiagonal:
    def test_within_bound_unchanged(self):
        lam, count = truncate_diagonal([1.0, -1.5, 0.0], 4.0)
        np.testing.assert_array_equal(lam, [1.0, -1.5, 0.0])
        assert count == 0

    def test_outlier_zeroed(self):
        lam, count = truncate_diagonal([1.0, 10.0], 4.0)
        np.testing.assert_array_equal(lam, [1.0, 0.0])
        assert count == 1

    def test_rank_bound_on_esd_distance(self):
        n_rows, n_cols = 100, 150
        lam = np.zeros(n_rows)
        lam[0] = 25.0
        trunc, count = truncate_diagonal(lam, 4.0)
        assert count == 1
        spec = EnsembleSpec("gaussian", 17, n_rows, n_cols)
        s_orig = sample_spectrum(spec, UNIT, lam)
        s_trunc = sample_spectrum(spec, UNIT, trunc)
        other = s_trunc.eigenvalues
        step = lambda x: np.searchsorted(other, np.asarray(x), side="right") / n_rows
        assert ks_compare(s_orig, step) <= count / n_rows + 1e-12


class TestKsCompare:
    def test_own_step_function_is_zero(self):
        sample = SpectrumSample(np.array([0.5, 1.0, 1.0, 2.0]), None, (4, 4))
        ev = sample.eigenvalues
        own = lambda x: np.searchsorted(ev, np.asarray(x), side="right") / ev.size
        assert ks_compare(sample, own) == 0.0

    def test_all_zero_sample_against_point_mass_at_one(self):
        sample = SpectrumSample(np.zeros(5), None, (5, 5))
        delta_one = lambda x: (np.asarray(x) >= 1.0).astype(float)
        assert ks_compare(sample, delta_one) == 1.0

    def test_mp_ensemble_close_to_limit(self):
        cdf = mp_cdf(0.5, 1.0)
        ok = 0
        for seed in range(10):
            spec = EnsembleSpec("gaussian", seed, 200, 400)
            sample = sample_spectrum(spec, UNIT, np.zeros(200))
            if ks_compare(sample, cdf) <= 0.05:
                ok += 1
        assert ok >= 9

    def test_ks_median_shrinks_with_size(self):
        cdf = mp_cdf(0.5, 1.0)
        medians = []
        for n_rows, n_cols in ((50, 100), (100, 200), (200, 400)):
            ks = [ks_compare(sample_spectrum(EnsembleSpec("gaussian", s, n_rows, n_cols),
                                             UNIT, np.zeros(n_rows)), cdf)
                  for s in range(10)]
            medians.append(np.median(ks))
        assert medians[0] >= medians[1] >= medians[2]


class TestOffsetEnsembleEndToEnd:
    def test_two_atom_offset_law_matches_solver_limit(self):
        # offsets are the distinguishing feature of the model; drive the
        # whole pipe: solver limit -> distribution -> finite-matrix KS
        from gramspec.master_solver import SolverOptions
        from gramspec.measures import QuadratureRule, product_H
        from gramspec.spectra import cdf_with_atom, default_x_grid, limit_density

        h = [(0.0, 0.5), (4.0, 0.5)]
        c = 0.5
        H = product_H(h, 192)
        quad = QuadratureRule.midpoint(c, 96)
        opts = SolverOptions(tol=1e-8, max_iters=60000)
        x_grid = default_x_grid(UNIT, H, c, points=400)
        curve = limit_density(H, UNIT, quad, c, x_grid, 2e-3, opts)
        cdf = cdf_with_atom(curve)
        lam_diag = np.sqrt(product_H(h, 150).lam)
        ks = [ks_compare(sample_spectrum(EnsembleSpec("gaussian", seed, 150, 300),
                                         UNIT, lam_diag), cdf)
              for seed in range(5)]
        assert np.median(ks) <= 0.08


class TestCsvRoundTrip:
    def test_export_and_load(self, tmp_path):
        spec = EnsembleSpec("gaussian", 3, 5, 8)
        sample = sample_spectrum(spec, UNIT, np.zeros(5))
        path = tmp_path / "eig.csv"
        export_csv(sample, path, {"config_hash": "abc123"})
        loaded, meta = load_csv(path)
        np.testing.assert_array_equal(loaded.eigenvalues, sample.eigenvalues)
        assert loaded.seed == 3
        assert loaded.dims == (5, 8)
        assert meta["config_hash"] == "abc123"
        assert meta["rng"] == "philox4x64"
        assert b"\r" not in path.read_bytes()

    def test_loads_files_with_crlf_rows(self, tmp_path):
        # files written before every table ended its lines with \n alone
        sample = sample_spectrum(EnsembleSpec("gaussian", 3, 5, 8), UNIT, np.zeros(5))
        path = tmp_path / "eig.csv"
        export_csv(sample, path)
        head, _, rows = path.read_bytes().partition(b"eigenvalue\n")
        path.write_bytes(head + b"eigenvalue\r\n" + rows.replace(b"\n", b"\r\n"))
        loaded, _ = load_csv(path)
        np.testing.assert_array_equal(loaded.eigenvalues, sample.eigenvalues)

    @pytest.mark.parametrize("old,new,where", [
        ("# N: 5\n", "", "no '# N:' header line"),
        ("\neigenvalue\n", "\neigenvalue\n1.5e\n", "line 6: cannot read '1.5e'"),
        ("# seed: 3\n", "# seed: x\n", "line 1: cannot read 'x'"),
        ("# seed: 3\n", "# seed: -1\n", "seed must be an integer in [0, 2**128)"),
        ("\neigenvalue\n", "\neigenvalue\n0.5\n", "6 eigenvalues for N=5"),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, old, new, where):
        sample = sample_spectrum(EnsembleSpec("gaussian", 3, 5, 8), UNIT, np.zeros(5))
        path = tmp_path / "eig.csv"
        export_csv(sample, path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(InvalidInput, match="eig.csv") as info:
            load_csv(path)
        assert where in str(info.value)
