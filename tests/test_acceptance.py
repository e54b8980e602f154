"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (run with -s or -v
to see them); a failed assertion marks the criterion red.  The criteria
pair the kernel solver against independent reduced-case oracles, check the
structural identities of the system, and validate finite-matrix Monte
Carlo behaviour at desk scale.
"""

import numpy as np
import pytest

from gramspec.capacity import NoiseLevel, capacity_from_limit, capacity_from_spectrum
from gramspec.closed_forms import (centered_profile_k, iid_noncentered_f,
                                   mp_cdf, mp_density, mp_stieltjes)
from gramspec.master_solver import (SolverOptions, contraction_start_height,
                                    solve_master, solve_with_continuation,
                                    theta_bound)
from gramspec.measures import (QuadratureRule, VarianceProfile,
                               empirical_H_from_diagonal, lambda_moment,
                               product_H, uniform_H)
from gramspec.simulator import (EnsembleSpec, empirical_stieltjes,
                                gram_eigenvalues, ks_compare,
                                sample_sigma_matrix, sample_spectrum,
                                schur_identity_check, truncate_diagonal)
from gramspec.spectra import DensityCurve, cdf_with_atom, limit_density, mass_check

# twenty upper-half-plane probe points with Im(z) in [0.5, 10]
IMS = np.geomspace(0.5, 10.0, 10)
Z_GRID = [complex(0.0, y) for y in IMS] + \
         [complex(re, y) for re, y in zip((0.7, -0.7, 2.0, -2.0, 1.0,
                                           -1.0, 3.0, -3.0, 0.3, -0.3), IMS)]

ONE_PLUS_XY = VarianceProfile.bilinear([[1.0, 1.0], [1.0, 2.0]])


def _report(name, detail):
    print(f"ACCEPT {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def mp_solves():
    """Constant-profile solves across c and sigma^2, keyed per config."""
    out = []
    for c in (0.25, 0.5, 1.0):
        for s2 in (0.5, 1.0):
            H = uniform_H(128)
            prof = VarianceProfile.constant(s2)
            quad = QuadratureRule.midpoint(c, 128)
            reports = solve_with_continuation(Z_GRID, c, H, prof, quad)
            out.append({"c": c, "s2": s2, "H": H, "prof": prof, "quad": quad,
                        "reports": reports})
    return out


@pytest.fixture(scope="module")
def iid_solves():
    h_lambda = [(0.0, 0.5), (1.0, 0.5)]
    H = product_H(h_lambda, 512)
    prof = VarianceProfile.constant(1.0)
    quad = QuadratureRule.midpoint(0.5, 256)
    reports = solve_with_continuation(Z_GRID, 0.5, H, prof, quad)
    return {"c": 0.5, "h_lambda": h_lambda, "H": H, "prof": prof,
            "quad": quad, "reports": reports}


@pytest.fixture(scope="module")
def profile_solves():
    zs = Z_GRID[:10]
    H = uniform_H(256)
    quad = QuadratureRule.midpoint(0.5, 256)
    reports = solve_with_continuation(zs, 0.5, H, ONE_PLUS_XY, quad)
    return {"c": 0.5, "H": H, "prof": ONE_PLUS_XY, "quad": quad,
            "zs": zs, "reports": reports}


def test_criterion_01_mp_oracle_equivalence(mp_solves):
    worst = 0.0
    for cfg in mp_solves:
        for z, rep in cfg["reports"].items():
            gap = abs(rep.f - mp_stieltjes(z, cfg["c"], cfg["s2"]))
            worst = max(worst, gap)
    assert worst <= 1e-6
    _report("mp-oracle-equivalence", f"max |f - oracle| = {worst:.2e} over "
                                     f"{6 * len(Z_GRID)} solves")


def test_criterion_02_iid_offsets_oracle_equivalence(iid_solves):
    worst = 0.0
    for z, rep in iid_solves["reports"].items():
        oracle = iid_noncentered_f(z, iid_solves["c"], 1.0, iid_solves["h_lambda"])
        worst = max(worst, abs(rep.f - oracle))
    assert worst <= 1e-6
    _report("offset-law-oracle-equivalence",
            f"max |f - oracle| = {worst:.2e} over {len(Z_GRID)} solves")


def test_criterion_03_centered_profile_oracle_equivalence(profile_solves):
    grid = (np.arange(256) + 0.5) / 256
    worst = 0.0
    for z in profile_solves["zs"]:
        k = centered_profile_k(z, 0.5, ONE_PLUS_XY, grid)
        worst = max(worst, abs(profile_solves["reports"][z].f - complex(k.mean())))
    assert worst <= 1e-6
    _report("centered-profile-oracle-equivalence",
            f"max |f - integral of k| = {worst:.2e} over 10 solves")


def test_criterion_04_degenerate_profile_exactness():
    H = uniform_H(128, lam=1.0)
    prof = VarianceProfile.constant(0.0)
    quad = QuadratureRule.midpoint(1.0, 256)
    worst = 0.0
    for z in Z_GRID:
        rep = solve_master(z, 1.0, H, prof, quad)
        worst = max(worst, abs(rep.f - 1.0 / (1.0 - z)))
    assert worst <= 1e-12
    _report("degenerate-profile-exactness", f"max |f - 1/(1-z)| = {worst:.2e}")


def test_criterion_05_geometric_contraction():
    rng = np.random.default_rng(20240801)
    worst_ratio = 0.0
    for trial in range(5):
        n_atoms = int(rng.integers(12, 40))
        H = empirical_H_from_diagonal(rng.uniform(-2.0, 2.0, n_atoms))
        kind = trial % 3
        if kind == 0:
            prof = VarianceProfile.constant(rng.uniform(0.3, 1.5))
        elif kind == 1:
            prof = VarianceProfile.bilinear(rng.uniform(0.2, 1.5, (3, 3)))
        else:
            prof = VarianceProfile.separable(rng.uniform(0.3, 1.2, 4),
                                             rng.uniform(0.3, 1.2, 3))
        c = float(rng.uniform(0.3, 1.0))
        quad = QuadratureRule.midpoint(c, 64)
        m1 = lambda_moment(H)
        y = 1.1 * contraction_start_height(prof.sigma_max_sq, c, m1)
        rep = solve_master(complex(0.0, y), c, H, prof, quad)
        res = np.asarray(rep.residuals)
        res = res[res > 0]
        ratios = res[1:] / res[:-1]
        assert np.all(ratios <= 0.999)
        worst_ratio = max(worst_ratio, float(ratios.max()))
        slope = np.polyfit(np.arange(res.size), np.log(res), 1)[0]
        assert slope <= np.log(2 * theta_bound(prof.sigma_max_sq, c, m1, y))
    _report("geometric-contraction",
            f"5 random instances, worst residual ratio {worst_ratio:.3f}")


def test_criterion_06_total_mass_at_height(mp_solves, iid_solves, profile_solves):
    y = 1e4
    configs = [(cfg["c"], cfg["H"], cfg["prof"], cfg["quad"]) for cfg in mp_solves]
    configs.append((iid_solves["c"], iid_solves["H"], iid_solves["prof"],
                    iid_solves["quad"]))
    configs.append((profile_solves["c"], profile_solves["H"],
                    profile_solves["prof"], profile_solves["quad"]))
    worst = 0.0
    for c, H, prof, quad in configs:
        def f_at(z, _c=c, _H=H, _p=prof, _q=quad):
            return solve_master(z, _c, _H, _p, _q).f
        val = mass_check(f_at, [y])[0]
        worst = max(worst, abs(val - 1.0))
    assert worst <= 1e-3
    _report("total-mass", f"max |(-iy f(iy)) - 1| = {worst:.2e} at y = 1e4")


def test_criterion_07_transform_duality(mp_solves, iid_solves, profile_solves):
    worst = 0.0
    batches = [(cfg["c"], cfg["reports"]) for cfg in mp_solves]
    batches.append((iid_solves["c"], iid_solves["reports"]))
    batches.append((profile_solves["c"], profile_solves["reports"]))
    count = 0
    for c, reports in batches:
        for z, rep in reports.items():
            resid = abs(rep.f_tilde - (c * rep.f - (1.0 - c) / z))
            worst = max(worst, resid)
            count += 1
    assert worst <= 1e-8
    _report("transform-duality",
            f"max |ft - (c f - (1-c)/z)| = {worst:.2e} over {count} solves")


def test_criterion_08_finite_matrix_identities():
    prof = VarianceProfile.constant(1.0)
    worst_schur = 0.0
    worst_trace = 0.0
    worst_resolvent = 0.0
    for dims, seed in (((4, 6), 5), ((16, 24), 6)):
        spec = EnsembleSpec("gaussian", seed, *dims)
        lam = np.linspace(-1.0, 2.0, dims[0])
        sigma = sample_sigma_matrix(spec, prof, lam)
        for z in (1j, 1 + 1j):
            for i in range(1, dims[0] + 1):
                worst_schur = max(worst_schur, schur_identity_check(sigma, z, i))
        sample = gram_eigenvalues(sigma)
        fro2 = float(np.sum(sigma ** 2))
        worst_trace = max(worst_trace,
                          abs(sample.eigenvalues.sum() - fro2) / max(1.0, fro2))
        for z in (1j, 1 + 1j):
            _, fn = empirical_stieltjes(sigma, lam, z)
            fn_eig = complex(np.mean(1.0 / (sample.eigenvalues - z)))
            worst_resolvent = max(worst_resolvent, abs(fn - fn_eig))
    assert worst_schur <= 1e-10
    assert worst_trace <= 1e-8
    assert worst_resolvent <= 1e-10
    _report("finite-matrix-identities",
            f"schur {worst_schur:.1e}, trace {worst_trace:.1e}, "
            f"resolvent {worst_resolvent:.1e}")


def _ks_batch(entry_law, n_rows, n_cols, profile, lambda_diag, cdf, seeds=range(10)):
    out = []
    for seed in seeds:
        spec = EnsembleSpec(entry_law, seed, n_rows, n_cols)
        sample = sample_spectrum(spec, profile, lambda_diag)
        out.append(ks_compare(sample, cdf))
    return np.asarray(out)


def test_criterion_09_monte_carlo_convergence():
    prof = VarianceProfile.constant(1.0)
    cdf = mp_cdf(0.5, 1.0)
    details = []
    for law in ("gaussian", "rademacher"):
        ks_big = _ks_batch(law, 200, 400, prof, np.zeros(200), cdf)
        assert np.sum(ks_big <= 0.05) >= 9
        ks_small = _ks_batch(law, 50, 100, prof, np.zeros(50), cdf)
        assert np.median(ks_big) < np.median(ks_small)
        details.append(f"{law} median {np.median(ks_big):.3f}")
    # non-constant profile: compare against the solver-derived distribution
    H = uniform_H(128)
    quad = QuadratureRule.midpoint(0.5, 128)
    opts = SolverOptions(tol=1e-9, max_iters=60000)
    x_grid = np.linspace(0.0, 7.0, 700)
    curve = limit_density(H, ONE_PLUS_XY, quad, 0.5, x_grid, 1e-3, opts)
    solver_cdf = cdf_with_atom(curve)
    ks_prof = _ks_batch("gaussian", 200, 400, ONE_PLUS_XY, np.zeros(200), solver_cdf)
    assert np.sum(ks_prof <= 0.08) >= 9
    details.append(f"profile median {np.median(ks_prof):.3f}")
    _report("monte-carlo-convergence", "; ".join(details))


def test_criterion_10_capacity():
    prof = VarianceProfile.constant(1.0)
    grid = np.linspace(0.0, 1.2 * (1.0 + np.sqrt(0.5)) ** 2, 4000)
    curve = DensityCurve(grid, mp_density(grid, 0.5, 1.0), 1e-3)
    curves = {}
    emp_means = {}
    for s_sq in (0.5, 1.0, 2.0, 4.0):
        noise = NoiseLevel(s_sq)
        curves[s_sq] = capacity_from_limit(curve, 0.5, noise)
        caps = [capacity_from_spectrum(
            sample_spectrum(EnsembleSpec("gaussian", seed, 200, 400), prof,
                            np.zeros(200)), noise) for seed in range(10)]
        emp_means[s_sq] = float(np.mean(caps))
    rel = abs(emp_means[1.0] - curves[1.0]) / curves[1.0]
    assert rel <= 0.02
    ordered = [curves[s] for s in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))
    ordered_emp = [emp_means[s] for s in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(ordered_emp, ordered_emp[1:]))
    _report("capacity", f"empirical vs limit gap {rel:.2%}, "
                        "monotone decreasing in noise")


def test_criterion_11_diagonal_truncation():
    n_rows, n_cols = 200, 400
    prof = VarianceProfile.constant(1.0)
    cdf = mp_cdf(0.5, 1.0)
    lam = np.zeros(n_rows)
    lam[0] = 10.0  # squared offset 100, far outside the bound
    trunc, count = truncate_diagonal(lam, 4.0)
    assert count == 1
    spec = EnsembleSpec("gaussian", 123, n_rows, n_cols)
    ks_outlier = ks_compare(sample_spectrum(spec, prof, lam), cdf)
    ks_trunc = ks_compare(sample_spectrum(spec, prof, trunc), cdf)
    change = abs(ks_outlier - ks_trunc)
    assert change <= 1.0 / n_rows + 0.01
    _report("diagonal-truncation",
            f"KS change {change:.4f} <= 1/N + 0.01 = {1 / n_rows + 0.01:.4f}")
