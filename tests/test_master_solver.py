import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gramspec import master_solver
from gramspec.closed_forms import mp_stieltjes
from gramspec.errors import (DegenerateDenominator, InvalidInput, NoConvergence,
                             NumericalFailure, check_stieltjes, stieltjes_limits)
from gramspec.master_solver import (LADDER_FACTOR, SolverOptions, _Stepper,
                                    contraction_start_height,
                                    init_kernels, picard_step, solve_master,
                                    solve_with_continuation, sweep_line,
                                    theta_bound)
from gramspec.measures import (ComplexKernel, JointLimitMeasure, QuadratureRule,
                               VarianceProfile, empirical_H_from_diagonal,
                               lambda_moment, product_H, tv_distance, uniform_H)
from gramspec.spectra import default_x_grid


def two_atom_H():
    return JointLimitMeasure([0.5, 1.0], [0.0, 1.0], [0.5, 0.5])


class TestInitKernels:
    def test_weights_are_minus_w_over_z(self):
        pi0, pit0 = init_kernels(two_atom_H(), QuadratureRule.midpoint(1.0, 256), 1j, 1.0)
        np.testing.assert_allclose(pi0.weights, [0.5j, 0.5j])
        np.testing.assert_allclose(pit0.weights, [0.5j, 0.5j])

    def test_weights_at_2i(self):
        pi0, _ = init_kernels(two_atom_H(), QuadratureRule.midpoint(1.0, 256), 2j, 1.0)
        np.testing.assert_allclose(pi0.weights, [0.25j, 0.25j])

    def test_total_mass_is_minus_one_over_z(self):
        for z in (1j, 2 + 3j, -1 + 0.5j):
            H = empirical_H_from_diagonal(np.linspace(-2, 2, 9))
            pi0, pit0 = init_kernels(H, QuadratureRule.midpoint(0.5, 256), z, 0.5)
            assert pi0.total() == pytest.approx(-1 / z, abs=1e-15)
            assert pit0.total() == pytest.approx(-1 / z, abs=1e-15)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(InvalidInput):
            init_kernels(two_atom_H(), QuadratureRule.midpoint(1.0, 256), -1j, 1.0)


class TestOneLayout:
    """The cold start, the solver's iterates and picard_step share one
    layout: pi_tilde on (c u_i, lambda_i) and the quadrature nodes (t_j, 0)."""

    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_init_kernels_is_the_solver_start(self, c):
        H = empirical_H_from_diagonal(np.linspace(-1.5, 1.5, 12))
        quad = QuadratureRule.midpoint(c, 9)
        z = 0.4 + 0.7j
        stepper = _Stepper(H, VarianceProfile.constant(1.3), quad, c)
        got = init_kernels(H, quad, z, c)
        want = stepper.pack(-stepper.num / z)
        for kernel, ref in zip(got, want):
            np.testing.assert_array_equal(kernel.t, ref.t)
            np.testing.assert_array_equal(kernel.zeta, ref.zeta)
            np.testing.assert_array_equal(kernel.weights, ref.weights)
        pit0 = got[1]
        np.testing.assert_array_equal(pit0.t, np.concatenate([c * H.u, quad.nodes]))
        np.testing.assert_array_equal(pit0.zeta, np.concatenate([H.lam, np.zeros(len(quad))]))
        np.testing.assert_array_equal(pit0.weights,
                                      -np.concatenate([c * H.w, quad.weights]) / z)

    @pytest.mark.parametrize("entry", ["init_kernels", "picard_step"])
    def test_quadrature_for_another_c_rejected(self, entry):
        # a quadrature on [0.3, 1] at c = 0.5 would give pi_tilde numerators
        # summing to 0.5 + 0.7 = 1.2
        H = uniform_H(16)
        quad = QuadratureRule.midpoint(0.3, 16)
        with pytest.raises(InvalidInput, match=r"quadrature built for c=0\.3, not c=0\.5"):
            if entry == "init_kernels":
                init_kernels(H, quad, 1j, 0.5)
            else:
                pi0, pit0 = init_kernels(H, QuadratureRule.midpoint(0.5, 16), 1j, 0.5)
                picard_step(1j, 0.5, H, VarianceProfile.constant(1.0), quad, pi0, pit0)

    def test_picard_step_rejects_kernels_off_the_layout(self):
        # pi_tilde = -H/z on H's own points is not a point of the iterate
        # layout at c < 1
        H = uniform_H(16)
        quad = QuadratureRule.midpoint(0.5, 16)
        pi0, _ = init_kernels(H, quad, 1j, 0.5)
        off = ComplexKernel(H.u, H.lam, -H.w / 1j)
        with pytest.raises(InvalidInput, match="kernels do not match the system layout"):
            picard_step(1j, 0.5, H, VarianceProfile.constant(1.0), quad, pi0, off)

    @pytest.mark.parametrize("entry", ["solve_master", "picard_step"])
    @pytest.mark.parametrize("kernel", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_kernels_rejected(self, monkeypatch, entry, kernel, bad):
        # above (1 + 12j) and below (1 + 0.3j) the contraction height 6
        H = uniform_H(32, 0.5)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(0.5, 32)
        applied = []

        def counted(*args):
            applied.append(args[0])
            return weights_from_integrals(*args)

        weights_from_integrals = master_solver._weights_from_integrals
        monkeypatch.setattr(master_solver, "_weights_from_integrals", counted)
        for z in (1 + 12j, 1 + 0.3j):
            kernels = init_kernels(H, quad, z, 0.5)
            kernels[kernel].weights[3] = bad
            with pytest.raises(InvalidInput, match=r"kernel weights \|pi\|, \|pi_tilde\| must "
                               r"be finite"):
                if entry == "solve_master":
                    solve_master(z, 0.5, H, prof, quad, initial=kernels)
                else:
                    picard_step(z, 0.5, H, prof, quad, *kernels)
        assert applied == []


class TestPicardStep:
    def test_zero_profile_weights(self):
        H = two_atom_H()
        quad = QuadratureRule.midpoint(1.0, 256)
        prof = VarianceProfile.constant(0.0)
        z = 0.7 + 1.3j
        pi0, pit0 = init_kernels(H, quad, z, 1.0)
        pi1, _ = picard_step(z, 1.0, H, prof, quad, pi0, pit0)
        np.testing.assert_allclose(pi1.weights, H.w / (H.lam - z))

    def test_zero_profile_fixed_in_one_step(self):
        H = two_atom_H()
        quad = QuadratureRule.midpoint(1.0, 256)
        prof = VarianceProfile.constant(0.0)
        pi0, pit0 = init_kernels(H, quad, 1j, 1.0)
        pi1, pit1 = picard_step(1j, 1.0, H, prof, quad, pi0, pit0)
        pi2, pit2 = picard_step(1j, 1.0, H, prof, quad, pi1, pit1)
        assert tv_distance(pi1, pi2) == 0.0
        assert tv_distance(pit1, pit2) == 0.0

    def test_unit_profile_zero_offsets_uniform_weights(self):
        # with pi_tilde mass -1/z all denominators equal -z(1 - 1/z)
        H = uniform_H(8)
        quad = QuadratureRule.midpoint(1.0, 256)
        prof = VarianceProfile.constant(1.0)
        z = 1j
        pi0, pit0 = init_kernels(H, quad, z, 1.0)
        pi1, _ = picard_step(z, 1.0, H, prof, quad, pi0, pit0)
        expect = H.w / (-z * (1 - 1 / z))
        np.testing.assert_allclose(pi1.weights, expect, atol=1e-15)


_STEP_RNG = np.random.default_rng(17)
STEP_PROFILES = {
    "constant": VarianceProfile.constant(1.3),
    "separable": VarianceProfile.separable([0.5, 1.0, 1.5], [1.5, 1.0, 0.5]),
    "bilinear": VarianceProfile.bilinear([[0.5, 1.0], [1.2, 2.0]]),
    "bilinear 4x4": VarianceProfile.bilinear(_STEP_RNG.uniform(0.2, 2.0, (4, 4))),
    "blocks": VarianceProfile.blocks([[0.4, 1.5, 0.9], [1.1, 0.3, 2.0]]),
    "blocks 64x64": VarianceProfile.blocks(_STEP_RNG.uniform(0.2, 2.0, (64, 64))),
}


def solver_map(stepper, z, s):
    """One application of the map to the stacked weights ``s``, as the
    solver applies it: through the reduced unknowns of ``s``."""
    return stepper.weights(z, stepper.reduce(s))[0]


class TestStepperAgainstReference:
    """One step of the solver's stepper against the generic picard_step."""

    @pytest.mark.parametrize("kind", sorted(STEP_PROFILES))
    @pytest.mark.parametrize("c", [1.0, 0.5])
    @pytest.mark.parametrize("layout", ["cold", "iterate"])
    def test_one_step_matches_picard_step(self, layout, c, kind):
        prof = STEP_PROFILES[kind]
        rng = np.random.default_rng(5)
        H = empirical_H_from_diagonal(rng.uniform(-1.5, 1.5, 12))
        quad = QuadratureRule.midpoint(c, 9)
        z = 0.4 + 0.7j
        stepper = _Stepper(H, prof, quad, c)
        pi0, pit0 = init_kernels(H, quad, z, c)
        if layout == "cold":
            got = solver_map(stepper, z, -stepper.num / z)
        else:
            pi0, pit0 = picard_step(z, c, H, prof, quad, pi0, pit0)
            # perturb so the step is not taken from a cold-start image
            pi0.weights *= 1.0 + 0.1j * rng.standard_normal(pi0.weights.size)
            pit0.weights *= 1.0 - 0.1j * rng.standard_normal(pit0.weights.size)
            got = solver_map(stepper, z, np.concatenate([pi0.weights, pit0.weights]))
        pi1, pit1 = picard_step(z, c, H, prof, quad, pi0, pit0)
        want = np.concatenate([pi1.weights, pit1.weights])
        assert got.size == 2 * H.u.size + len(quad)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        pi, pit = stepper.pack(got)
        np.testing.assert_array_equal(pi.t, pi1.t)
        np.testing.assert_array_equal(pit.t, pit1.t)
        np.testing.assert_array_equal(pit.zeta, pit1.zeta)

    @pytest.mark.parametrize("kind", sorted(STEP_PROFILES))
    def test_no_array_is_dense_in_the_profile(self, kind):
        # the stepper keeps the profile as thin factors: no array it holds
        # is as large as the dense m x (m + q) profile matrix
        prof = STEP_PROFILES[kind]
        H = uniform_H(200)
        quad = QuadratureRule.midpoint(0.5, 150)
        stepper = _Stepper(H, prof, quad, 0.5)
        m, q = H.u.size, len(quad)
        k = prof.factors([0.5], [0.5])[1].shape[1]
        assert (2 * m + q) * k < m * (m + q)
        arrays = [a for a in vars(stepper).values() if isinstance(a, np.ndarray)]
        assert arrays
        assert max(a.size for a in arrays) <= (2 * m + q) * k


class TestContractionHeight:
    def test_worked_value(self):
        assert contraction_start_height(1.0, 1.0, 1.0) == pytest.approx(6.0)

    def test_zero_profile(self):
        assert contraction_start_height(0.0, 0.5, 2.0) == 0.0

    def test_zero_offsets(self):
        assert contraction_start_height(1.0, 1.0, 0.0) == pytest.approx(6.0)

    def test_all_four_bounds_below_half_at_height(self):
        for s2, c, m1 in [(1.0, 1.0, 1.0), (2.0, 0.5, 4.0), (0.3, 0.25, 0.0)]:
            y = contraction_start_height(s2, c, m1)
            if y > 0:
                assert theta_bound(s2, c, m1, y * (1 + 1e-12)) <= 0.5


class TestSolveMaster:
    def test_degenerate_profile_exact(self):
        H = uniform_H(64, lam=1.0)
        prof = VarianceProfile.constant(0.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        for z in (1j, 2 + 3j, 0.5 + 0.25j):
            rep = solve_master(z, 1.0, H, prof, quad)
            assert abs(rep.f - 1 / (1 - z)) <= 1e-12

    def test_mp_value_at_i(self):
        H = uniform_H(64)
        rep = solve_master(1j, 1.0, H, VarianceProfile.constant(1.0),
                           QuadratureRule.midpoint(1.0, 256))
        assert rep.f == pytest.approx(0.30024 + 0.62481j, abs=1e-5)
        assert abs(rep.f - mp_stieltjes(1j, 1.0, 1.0)) <= 1e-10

    def test_report_invariants(self):
        H = empirical_H_from_diagonal(np.linspace(0, 1.5, 20))
        prof = VarianceProfile.bilinear([[0.5, 1.0], [1.0, 1.5]])
        quad = QuadratureRule.midpoint(0.5, 64)
        z = 0.3 + 2j
        rep = solve_with_continuation([z], 0.5, H, prof, quad)[z]
        assert rep.residuals[-1] <= 1e-12
        assert all(r > 0 for r in rep.residuals[:-1])
        bound = 1 / z.imag
        assert abs(rep.f) <= bound + 1e-9
        assert abs(rep.f_tilde) <= bound + 1e-9
        assert rep.f.imag > 0 and (z * rep.f).imag > 0
        assert rep.f_tilde.imag > 0 and (z * rep.f_tilde).imag > 0

    def test_fixed_point_residual_small_after_convergence(self):
        H = two_atom_H()
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(0.5, 32)
        opts = SolverOptions(tol=1e-13)
        rep = solve_master(2j, 0.5, H, prof, quad, opts)
        pi2, pit2 = picard_step(2j, 0.5, H, prof, quad, rep.pi, rep.pi_tilde)
        moved = tv_distance(rep.pi, pi2) + tv_distance(rep.pi_tilde, pit2)
        assert moved <= 10 * opts.tol

    def test_uniqueness_two_initializations(self):
        H = empirical_H_from_diagonal(np.linspace(-1, 1, 16))
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(0.5, 32)
        m1 = lambda_moment(H)
        y = 1.2 * contraction_start_height(prof.sigma_max_sq, 0.5, m1)
        z = complex(0.0, y)
        opts = SolverOptions(tol=1e-13)
        rep_cold = solve_master(z, 0.5, H, prof, quad, opts)
        # a deliberately skewed start in the iterate layout
        t = rep_cold.pi_tilde.t
        zeta = rep_cold.pi_tilde.zeta
        m = H.u.size
        skew_pi = ComplexKernel(H.u, H.lam, (-H.w / z) * (1.0 + 0.4j))
        skew_wt = np.concatenate([(-0.5 * H.w / z) * 0.7, np.full(len(t) - m, 0.05j)])
        skew_pit = ComplexKernel(t, zeta, skew_wt)
        rep_warm = solve_master(z, 0.5, H, prof, quad, opts,
                                initial=(skew_pi, skew_pit))
        assert tv_distance(rep_cold.pi, rep_warm.pi) <= 10 * opts.tol
        assert tv_distance(rep_cold.pi_tilde, rep_warm.pi_tilde) <= 10 * opts.tol

    def test_geometric_contraction_above_height(self):
        rng = np.random.default_rng(11)
        H = empirical_H_from_diagonal(rng.uniform(-2, 2, 24))
        prof = VarianceProfile.bilinear(rng.uniform(0.2, 1.5, (3, 3)))
        quad = QuadratureRule.midpoint(0.5, 48)
        m1 = lambda_moment(H)
        y = 1.1 * contraction_start_height(prof.sigma_max_sq, 0.5, m1)
        rep = solve_master(1j * y, 0.5, H, prof, quad)
        res = np.asarray(rep.residuals)
        res = res[res > 0]
        slope = np.polyfit(np.arange(res.size), np.log(res), 1)[0]
        assert slope <= np.log(2 * theta_bound(prof.sigma_max_sq, 0.5, m1, y))

    def test_no_convergence_raises(self):
        H = uniform_H(16)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 16)
        with pytest.raises(NoConvergence):
            solve_master(0.5j, 1.0, H, prof, quad, SolverOptions(max_iters=3))

    def test_invalid_z_rejected(self):
        H = uniform_H(4)
        with pytest.raises(InvalidInput):
            solve_master(1.0, 1.0, H, VarianceProfile.constant(1.0),
                         QuadratureRule.midpoint(1.0, 256))


ENTRY_POINTS = {
    "solve_master": lambda c, H, prof, quad: solve_master(1j, c, H, prof, quad),
    "solve_with_continuation":
        lambda c, H, prof, quad: solve_with_continuation([1j], c, H, prof, quad),
    "sweep_line": lambda c, H, prof, quad: sweep_line([0.5], 0.1, c, H, prof, quad),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("c, quad_c, message", [
    (1.5, 1.0, r"c must lie in \(0, 1\]"),
    (0.0, 0.5, r"c must lie in \(0, 1\]"),
    (0.3, 0.5, r"quadrature built for c=0\.5, not c=0\.3"),
], ids=["c=1.5", "c=0", "quad-for-other-c"])
def test_ratio_and_quadrature_validated(entry, c, quad_c, message):
    H = uniform_H(16)
    prof = VarianceProfile.constant(1.0)
    quad = QuadratureRule.midpoint(quad_c, 16)
    with pytest.raises(InvalidInput, match=message):
        ENTRY_POINTS[entry](c, H, prof, quad)


class TestContinuation:
    def test_high_target_matches_plain_solve(self):
        H = uniform_H(32)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        z = 8j  # above the contraction height 6
        direct = solve_master(z, 1.0, H, prof, quad)
        cont = solve_with_continuation([z], 1.0, H, prof, quad)[z]
        assert cont.f == direct.f
        assert cont.iterations == direct.iterations

    def test_mp_near_axis(self):
        H = uniform_H(64)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        z = 2 + 0.01j
        rep = solve_with_continuation([z], 1.0, H, prof, quad)[z]
        assert abs(rep.f - mp_stieltjes(z, 1.0, 1.0)) <= 1e-8

    def test_adjacent_targets_move_smoothly(self):
        H = uniform_H(32)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        za, zb = 1.0 + 0.5j, 1.05 + 0.5j
        reps = solve_with_continuation([za, zb], 1.0, H, prof, quad)
        assert abs(reps[za].f - reps[zb].f) <= 2.0 * abs(za - zb) / 0.5 ** 2

    def test_blocks_profile_agrees_with_position_oracle(self):
        # discontinuous profiles go through the same machinery
        rng = np.random.default_rng(3)
        prof = VarianceProfile.blocks(rng.uniform(0.3, 1.5, (3, 4)))
        m = 96
        H = uniform_H(m)
        quad = QuadratureRule.midpoint(0.5, m)
        grid = (np.arange(m) + 0.5) / m
        from gramspec.closed_forms import centered_profile_k
        for z in (1j, 0.5j):
            rep = solve_with_continuation([z], 0.5, H, prof, quad)[z]
            k = centered_profile_k(z, 0.5, prof, grid)
            assert abs(rep.f - complex(k.mean())) <= 1e-10

    @pytest.mark.parametrize("floor, opts, error", [
        (1e3, SolverOptions(), DegenerateDenominator),
        (master_solver.MIN_DENOMINATOR, SolverOptions(max_iters=2), NoConvergence),
    ])
    def test_failed_rung_reports_target(self, monkeypatch, floor, opts, error):
        monkeypatch.setattr(master_solver, "MIN_DENOMINATOR", floor)
        H = uniform_H(16)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        z = 0.5 + 0.1j
        with pytest.raises(error, match=r"target z=\(0\.5\+0\.1j\): rung Im=6 failed"):
            solve_with_continuation([z], 1.0, H, prof, quad, opts)

    @pytest.mark.parametrize("floor, opts, error", [
        (1e3, SolverOptions(), DegenerateDenominator),
        (master_solver.MIN_DENOMINATOR, SolverOptions(max_iters=2), NoConvergence),
    ])
    def test_failed_rescue_reports_x(self, monkeypatch, floor, opts, error):
        monkeypatch.setattr(master_solver, "MIN_DENOMINATOR", floor)
        H = uniform_H(16)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        with pytest.raises(error, match=r"rescue at x=0\.25: rung Im=6 failed"):
            sweep_line([0.25, 0.5], 0.05, 1.0, H, prof, quad, opts)

    def test_sweep_line_matches_continuation(self):
        H = uniform_H(32)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        xs = np.linspace(0.5, 1.5, 5)
        eps = 0.05
        opts = SolverOptions(tol=1e-11, max_iters=50000)
        reports = sweep_line(xs, eps, 1.0, H, prof, quad, opts)
        for x, rep in zip(xs, reports):
            z = complex(x, eps)
            ref = solve_with_continuation([z], 1.0, H, prof, quad, opts)[z]
            assert abs(rep.f - ref.f) <= 1e-8

    def test_warm_start_numerical_failure_is_rescued(self, monkeypatch):
        H = uniform_H(32)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        eps = 0.05
        target = complex(1.0, eps)
        opts = SolverOptions(tol=1e-11, max_iters=50000)
        # the first check at the target rejects the answer warm-started from
        # the left neighbour, the second the rescue's first attempt at the
        # target, warm-started from the top rung
        forced = fail_first_checks(monkeypatch, target, 2)
        reports = sweep_line([0.5, 1.0, 1.5], eps, 1.0, H, prof, quad, opts)
        assert forced == [target, target]
        assert reports[1].rescued
        # the rescue climbs down from the contraction height
        ladder = ladder_reference(target, 1.0, H, prof, quad, opts)[-1]
        assert abs(reports[1].f - ladder.f) <= 1e-12
        ref = solve_with_continuation([target], 1.0, H, prof, quad,
                                      SolverOptions(tol=1e-15, max_iters=50000))[target]
        assert abs(reports[1].f - ref.f) <= 10 * opts.tol


def zgrid_system(m):
    """The separable profile, offset law and quadrature of the zgrid
    benchmark, with m atoms and m nodes at c = 1/2."""
    prof = VarianceProfile.separable([0.5, 1.0, 1.5], [1.5, 1.0, 0.5])
    H = product_H([(0.0, 0.5), (0.5, 0.3), (2.0, 0.2)], m)
    return prof, H, QuadratureRule.midpoint(0.5, m)


# targets spread like the zgrid benchmark's grid, all solved by cold Newton,
# and a target where cold Newton converges outside the Stieltjes class
ZGRID_TARGETS = [complex(x, y) for y in (0.06, 0.6) for x in (0.3, 1.9, 3.6, 5.2)]
ZGRID_OUTSIDE = 2.37 + 0.021j


def solve_alone(entry, z, c, H, prof, quad, opts=None):
    """The report at ``z`` from the entry point named ``entry``, called with
    z as its only target."""
    if entry == "solve_master":
        return solve_master(z, c, H, prof, quad, opts)
    if entry == "sweep_line":
        return sweep_line([z.real], z.imag, c, H, prof, quad, opts)[0]
    return solve_with_continuation([z], c, H, prof, quad, opts)[z]


def fail_first_checks(patch, target, count):
    """Make the first ``count`` Stieltjes checks of answers at ``target``
    fail, so each of those solves fails after all its map applications.
    Returns the list of forced failures."""
    forced = []

    def check(z, s, num):
        if z == target and len(forced) < count:
            forced.append(z)
            raise NumericalFailure(f"forced failure at z={z}")
        check_stieltjes(z, s, num)

    patch.setattr(master_solver, "check_stieltjes", check)
    return forced


def record_attempts(patch):
    """Wrap ``_solve`` so that every solve attempt is recorded as ``(Im z,
    map applications spent, converged)``.  Returns the list of attempts."""
    solve = master_solver._solve
    attempts = []

    def recorded(z, stepper, opts, start):
        try:
            report, s = solve(z, stepper, opts, start)
        except master_solver._SOLVE_FAILURES as exc:
            attempts.append((z.imag, exc.iterations, False))
            raise
        attempts.append((z.imag, report.total_iterations, True))
        return report, s

    patch.setattr(master_solver, "_solve", recorded)
    return attempts


class TestNewtonBelowHeight:
    """Newton on the reduced unknowns (alpha, beta) below the contraction
    height, the only iteration there; a failed Newton solve is rescued by
    the ladder of Newton solves."""

    @pytest.mark.parametrize("kind", ["constant", "separable", "bilinear 4x4", "blocks"])
    @pytest.mark.parametrize("c", [0.5, 1.0])
    @pytest.mark.parametrize("where", ["below", "above"])
    def test_jacobian_matches_finite_differences(self, where, c, kind):
        prof = STEP_PROFILES[kind]
        H = empirical_H_from_diagonal(np.random.default_rng(7).uniform(-1.5, 1.5, 12))
        quad = QuadratureRule.midpoint(c, 9)
        stepper = _Stepper(H, prof, quad, c)
        z = complex(0.4, 0.3 if where == "below" else 1.5 * stepper.height)
        assert (z.imag < stepper.height) == (where == "below")
        s = solver_map(stepper, z, -stepper.num / z)
        for _ in range(3):
            s = solver_map(stepper, z, s)
        x = stepper.reduce(s)
        jac = stepper.jacobian(z, *stepper.weights(z, x))
        assert jac.shape == (x.size, x.size)

        def reduced_map(v):
            return stepper.reduce(stepper.weights(z, v)[0])

        # the map is holomorphic: a real and an imaginary difference step
        # both give the complex derivative
        for h in (1e-6 * np.abs(x).max(), 1e-6j * np.abs(x).max()):
            fd = np.column_stack([(reduced_map(x + h * e) - reduced_map(x - h * e)) / (2 * h)
                                  for e in np.eye(x.size)])
            assert np.abs(jac - fd).max() <= 1e-6 * np.abs(jac).max()

    def test_density_sweep_within_one_tolerance(self):
        # the system of the density benchmark: 60 points along Im z = 1e-3
        prof = VarianceProfile.bilinear([[1.0, 1.0], [1.0, 2.0]])
        H = product_H([(0.0, 0.5), (1.0, 0.5)], 256)
        quad = QuadratureRule.midpoint(0.5, 256)
        xs = default_x_grid(prof, H, 0.5, points=60)
        opts = SolverOptions(tol=1e-9, max_iters=60000)
        reports = sweep_line(xs, 1e-3, 0.5, H, prof, quad, opts)
        ref = sweep_line(xs, 1e-3, 0.5, H, prof, quad, SolverOptions(tol=1e-13, max_iters=60000))
        f = np.array([rep.f for rep in reports])
        assert np.max(np.abs(f - [rep.f for rep in ref])) <= opts.tol
        # Newton serves every point, with no rescue; only the first starts
        # cold, so its first map application has no residual
        for k, rep in enumerate(reports):
            assert rep.newton_steps > 0
            assert rep.total_iterations == rep.iterations == len(rep.residuals) + (k == 0)
            assert not rep.rescued

    def test_newton_steps_reported(self):
        H = uniform_H(32)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        below = solve_master(0.5 + 0.1j, 1.0, H, prof, quad)
        assert below.newton_steps > 0
        assert below.total_iterations == below.iterations == len(below.residuals) + 1
        assert solve_master(8j, 1.0, H, prof, quad).newton_steps == 0   # above the height

    def test_iterations_count_every_map_application(self):
        H = uniform_H(16)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 16)
        z = 0.5 + 0.5j       # below the contraction height 6
        rep = solve_master(z, 1.0, H, prof, quad)
        assert rep.iterations == len(rep.residuals) + 1   # + the cold start
        # one application short of Newton's count fails the solve, and the
        # same budget fails the rescue's top rung
        for budget in (3, rep.iterations - 1):
            with pytest.raises(NoConvergence, match=f"rung Im=6 failed: .* after {budget} iterations"):
                solve_master(z, 1.0, H, prof, quad, SolverOptions(max_iters=budget))

    def test_cold_newton_outside_class_is_rescued(self, monkeypatch):
        # from the cold start at this target Newton converges to a root
        # outside the class
        prof, H, quad = zgrid_system(256)
        z = ZGRID_OUTSIDE
        opts = SolverOptions(tol=1e-10, max_iters=60000)
        ref = ladder_reference(z, 0.5, H, prof, quad, opts)[-1]
        solve = master_solver._solve
        failures = []

        def spy(*args):
            try:
                return solve(*args)
            except NumericalFailure as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(master_solver, "_solve", spy)
        attempts = record_attempts(monkeypatch)
        rep = solve_with_continuation([z], 0.5, H, prof, quad, opts)[z]
        assert "breaks Im s_k >= 0" in str(failures[0])
        assert attempts[0] == (z.imag, failures[0].iterations, False)
        check_stieltjes(z, np.concatenate([rep.pi.weights, rep.pi_tilde.weights]),
                        _Stepper(H, prof, quad, 0.5).num)
        assert abs(rep.f - ref.f) <= 10 * opts.tol
        # a Newton solve down the ladder served it; the failed attempt counts
        assert rep.rescued and rep.newton_steps > 0
        assert failures[0].iterations > 0
        assert rep.total_iterations == sum(spent for _, spent, _ in attempts)
        assert rep.iterations == len(rep.residuals)        # warm-started

    def test_singular_newton_system_names_the_rung(self, monkeypatch):
        H = uniform_H(32)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        z = 0.5 + 0.1j
        # LAPACK reports an exactly singular factor through info > 0, so
        # every Newton solve fails and the ladder gives up below the height
        monkeypatch.setattr(master_solver, "zgesv", lambda a, b: (None, None, None, 1))
        with pytest.raises(NumericalFailure, match=r"target z=\(0\.5\+0\.1j\): rung Im=[0-9.]+ "
                           r"failed: singular Newton system at z=\(0\.5\+[0-9.]+j\)"):
            solve_master(z, 1.0, H, prof, quad)


class TestOneLoop:
    """One solve loop at every height: every step is plain Picard at or
    above the contraction height, and Newton steps run below it."""

    @pytest.mark.parametrize("where", ["below", "above"])
    @pytest.mark.parametrize("k", [2, 5])
    def test_non_finite_weights_fail_the_solve(self, monkeypatch, where, k):
        H = uniform_H(32)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        stepper = _Stepper(H, prof, quad, 1.0)
        z = complex(0.5, 0.1 if where == "below" else 1.5 * stepper.height)
        weights = _Stepper.weights
        calls = []

        def poisoned(self, z, x):
            # NaN weights from the k-th map application on
            calls.append(z)
            g, one = weights(self, z, x)
            return (np.full_like(g, np.nan) if len(calls) >= k else g), one

        monkeypatch.setattr(_Stepper, "weights", poisoned)
        with pytest.raises(NumericalFailure, match=r"weights not finite at z=") as info:
            master_solver._solve(z, stepper, SolverOptions(), None)
        assert info.value.iterations == len(calls) == k

    @pytest.mark.parametrize("kind", ["constant", "separable", "bilinear", "blocks"])
    @pytest.mark.parametrize("c", [0.3, 1.0])
    def test_above_height_is_plain_picard(self, c, kind):
        # picard_step iterated from the cold start, stopped on the same rule
        prof = STEP_PROFILES[kind]
        H = empirical_H_from_diagonal(np.random.default_rng(7).uniform(-1.5, 1.5, 12))
        quad = QuadratureRule.midpoint(c, 9)
        z = complex(0.4, 1.2 * _Stepper(H, prof, quad, c).height)
        opts = SolverOptions(tol=1e-10)
        rep = solve_master(z, c, H, prof, quad, opts)
        pi, pit = picard_step(z, c, H, prof, quad, *init_kernels(H, quad, z, c))
        for iterations in range(2, opts.max_iters + 1):
            new_pi, new_pit = picard_step(z, c, H, prof, quad, pi, pit)
            moved = tv_distance(pi, new_pi) + tv_distance(pit, new_pit)
            pi, pit = new_pi, new_pit
            if moved <= opts.tol:
                break
        assert moved <= opts.tol
        assert rep.iterations == iterations
        assert rep.newton_steps == 0 and not rep.rescued
        np.testing.assert_allclose(rep.pi.weights, pi.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.pi_tilde.weights, pit.weights, rtol=0, atol=1e-12)


def ladder_reference(z, c, H, prof, quad, opts):
    """A fixed continuation ladder: warm-started solve_master calls from the
    contraction height down to Im z, each rung ``LADDER_FACTOR`` times the
    one above and the last at Im z."""
    y = max(contraction_start_height(prof.sigma_max_sq, c, lambda_moment(H)), z.imag)
    reports, state = [], None
    while True:
        reports.append(solve_master(complex(z.real, y), c, H, prof, quad, opts, state))
        state = (reports[-1].pi, reports[-1].pi_tilde)
        if y <= z.imag * (1 + 1e-12):
            return reports
        y = max(z.imag, LADDER_FACTOR * y)


_entries = st.floats(0.2, 2.0)
_profiles = st.one_of(
    _entries.map(VarianceProfile.constant),
    st.lists(st.lists(_entries, min_size=2, max_size=2), min_size=2, max_size=2)
    .map(VarianceProfile.bilinear),
    st.integers(1, 3).flatmap(lambda cols: st.lists(
        st.lists(_entries, min_size=cols, max_size=cols), min_size=1, max_size=3))
    .map(VarianceProfile.blocks),
)
_offset_laws = st.lists(st.tuples(st.floats(0.0, 25.0), st.floats(0.1, 1.0)),
                        min_size=1, max_size=3)


class TestColdStartAtTarget:
    """Each target is solved from the cold start at the target; the
    continuation ladder only rescues a failed solve."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(prof=_profiles, law=_offset_laws,
           c=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
           x=st.one_of(st.floats(-0.1, 0.1), st.floats(-2.0, 20.0)),
           log_y=st.floats(np.log(1e-3), np.log(3.0)))
    def test_matches_ladder_reference(self, prof, law, c, x, log_y):
        total = sum(w for _, w in law)
        H = product_H([(lam2, w / total) for lam2, w in law], 16)
        quad = QuadratureRule.midpoint(c, 16)
        z = complex(x, np.exp(log_y))
        opts = SolverOptions(tol=1e-10, max_iters=60000)
        rep = solve_with_continuation([z], c, H, prof, quad, opts)[z]
        # the residual sums weights of size up to num_k / Im z, so its
        # rounding floor grows like 1/Im z: at Im z = 1.5e-3 it is 6e-14
        ref_opts = SolverOptions(tol=1e-14 * max(1.0, 1.0 / z.imag), max_iters=60000)
        ref = ladder_reference(z, c, H, prof, quad, ref_opts)[-1]
        assert abs(rep.f - ref.f) <= 10 * opts.tol
        # the three rules on the masses, with no slack
        for mass in (rep.f, rep.f_tilde):
            assert mass.imag >= 0
            assert (z * mass).imag >= 0
            assert abs(mass) <= 1.0 / z.imag
        check_stieltjes(z, np.concatenate([rep.pi.weights, rep.pi_tilde.weights]),
                        _Stepper(H, prof, quad, c).num)

    @pytest.mark.parametrize("entry", ["solve_with_continuation", "sweep_line"])
    def test_forced_rescue_returns_ladder_answer(self, monkeypatch, entry):
        H = uniform_H(32)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        z = 0.5 + 0.1j      # below the contraction height 6
        opts = SolverOptions(tol=1e-11)
        direct = solve_master(z, 1.0, H, prof, quad, opts)
        # the rescue as it runs: a cold solve at the height, then the target
        # warm-started from it
        top = solve_master(6j + z.real, 1.0, H, prof, quad, opts)
        warm = solve_master(z, 1.0, H, prof, quad, opts, (top.pi, top.pi_tilde))
        ladder = ladder_reference(z, 1.0, H, prof, quad, opts)[-1]
        forced = fail_first_checks(monkeypatch, z, 1)
        rep = solve_alone(entry, z, 1.0, H, prof, quad, opts)
        assert forced == [z]
        assert rep.rescued
        np.testing.assert_array_equal(rep.pi.weights, warm.pi.weights)
        assert rep.iterations == warm.iterations
        assert abs(rep.f - ladder.f) <= 10 * opts.tol
        # the failed cold attempt, the top rung and the attempt at the target
        assert rep.total_iterations == direct.iterations + top.iterations + warm.iterations

    def test_direct_solve_is_not_rescued(self):
        H = uniform_H(32)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        z = 0.5 + 0.1j
        rep = solve_with_continuation([z], 1.0, H, prof, quad)[z]
        assert not rep.rescued
        assert rep.total_iterations == rep.iterations

    def test_failure_above_height_is_not_repeated(self, monkeypatch):
        # above the contraction height the ladder is the cold solve itself
        H = uniform_H(16)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        solve = master_solver._solve
        calls = []

        def counted(*args):
            calls.append(args[0])
            return solve(*args)

        monkeypatch.setattr(master_solver, "_solve", counted)
        with pytest.raises(NoConvergence, match=r"target z=8j: rung Im=8 failed"):
            solve_with_continuation([8j], 1.0, H, prof, quad, SolverOptions(max_iters=2))
        assert calls == [8j]

    def test_negative_weight_raises(self):
        z = 0.3 + 0.5j
        num = np.array([0.5, 0.5, 0.25])
        s = -num / z
        check_stieltjes(z, s, num)
        s[1] = s[1].real - 1e-6j
        with pytest.raises(NumericalFailure, match=r"weight 1 breaks Im s_k >= 0"):
            check_stieltjes(z, s, num)

    def test_weight_above_bound_raises(self):
        z = 1.0 + 0.5j
        num = np.array([0.5, 0.5])
        s = np.array([0.1j, 1.01j * 0.5 / z.imag])
        with pytest.raises(NumericalFailure, match=r"weight 1 breaks \|s_k\|"):
            check_stieltjes(z, s, num)

    @pytest.mark.parametrize("value, by", [(0.5 * (-1.0 + 0.01j), "2.450e-01"),
                                           (complex(np.nan, 0.1), "nan")],
                             ids=["negative-im-z-times", "nan"])
    def test_weight_breaking_im_z_rule_raises(self, value, by):
        # Im s_1 > 0 and |s_1| < num_1 / Im z, but Im(z s_1) < 0 or is NaN
        z = 1.0 + 0.5j
        s = np.array([-0.5 / z, value])
        with pytest.raises(NumericalFailure, match=rf"weight 1 breaks Im\(z\*s_k\) >= 0 by {by}"):
            check_stieltjes(z, s, np.array([0.5, 0.5]))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(law=_offset_laws, count=st.integers(3, 40), nodes=st.integers(1, 40),
           c=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
           x=st.floats(-20.0, 20.0), log_y=st.floats(np.log(1e-4), np.log(3.0)),
           corner=st.one_of(st.none(), st.tuples(*3 * [st.sampled_from([0.0, 1.0])])),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_weights_in_class_imply_masses_in_class(self, law, count, nodes, c, x,
                                                    log_y, corner, seed):
        """The masses need no check of their own: weights that pass the rule
        with their numerators give masses that pass it with numerator 1, up
        to a margin of (sum(num) - 1) times the unit slack or bound, and the
        rounding of the sum, gamma = (n + 2) eps times sum|s_k| (times |z|
        for Im(z f)), which also covers the product by z."""
        total = sum(w for _, w in law)
        H = product_H([(lam2, w / total) for lam2, w in law], count)
        num = master_solver._System(H, QuadratureRule.midpoint(c, nodes), c).num
        z = complex(x, np.exp(log_y))
        slack, bound = stieltjes_limits(z)
        # the rule's region per unit numerator is the cone of directions
        # [0, pi - arg z] moved to its vertex v, where both sign rules are at
        # -slack, and cut at |g| = bound.  A point is (t, a, rho): t v plus
        # the share rho of the reach along the direction at the share a of
        # the cone.  Each coordinate is drawn in [0, 1] or on an edge, or
        # every weight takes the same corner; edges are pulled inside by
        # 1e-9 (1e-6 in angle) against the rounding of the draw.
        rng = np.random.default_rng(seed)
        if corner is None:
            points = rng.random((num.size, 3))
            on_edge = rng.random(points.shape) < 0.5
            points[on_edge] = rng.integers(0, 2, on_edge.sum())
        else:
            points = np.tile(corner, (num.size, 1))
        t, a, rho = points.T
        v = complex(slack * (z.real - 1.0) / z.imag, -slack)
        shift = (1.0 - 1e-9) * t * v
        direction = np.exp(1j * (1.0 - 1e-6) * a * (np.pi - np.angle(z)))
        b = (shift * direction.conj()).real
        reach = -b + np.sqrt(b * b + bound ** 2 - np.abs(shift) ** 2)
        s = num * (shift + (1.0 - 1e-9) * rho * reach * direction)
        check_stieltjes(z, s, num)
        m = H.u.size
        for part, part_num in ((s[:m], num[:m]), (s[m:], num[m:])):
            excess_num = max(float(part_num.sum()) - 1.0, 0.0)
            assert excess_num <= 2e-12
            rounding = (part.size + 2) * np.finfo(float).eps * float(np.abs(part).sum())
            mass = part.sum()
            assert mass.imag >= -slack * (1.0 + excess_num) - rounding
            assert (z * mass).imag >= -slack * (1.0 + excess_num) - abs(z) * rounding
            assert abs(mass) <= bound * (1.0 + excess_num) + rounding

    def test_zgrid_step_count(self):
        # the zgrid benchmark's system and tolerance at m = q = 64, with
        # targets spread like its grid.  The cold Newton solves take 60 map
        # applications, and a fixed ladder per target 1181: the ceiling
        # catches a rescue taken where none is needed.
        prof, H, quad = zgrid_system(64)
        targets = ZGRID_TARGETS
        opts = SolverOptions(tol=1e-10, max_iters=60000)
        reports = solve_with_continuation(targets, 0.5, H, prof, quad, opts)
        assert sum(rep.total_iterations for rep in reports.values()) <= 300


class TestRescueLadder:
    """The one rescue of a failed solve, shared by the three entry points:
    a cold top rung, then the target warm-started from each solved rung,
    a failed attempt retried at the geometric mean of its height and the
    last solved one."""

    @staticmethod
    def constant_system():
        # contraction height 6
        return uniform_H(32), VarianceProfile.constant(1.0), QuadratureRule.midpoint(1.0, 256)

    @pytest.mark.parametrize("entry", ["solve_master", "solve_with_continuation", "sweep_line"])
    def test_failed_attempt_is_retried_at_geometric_mean(self, monkeypatch, entry):
        H, prof, quad = self.constant_system()
        z = 0.5 + 0.1j
        opts = SolverOptions(tol=1e-11)
        # the cold attempt fails, then the first warm attempt at the target
        forced = fail_first_checks(monkeypatch, z, 2)
        attempts = record_attempts(monkeypatch)
        rep = solve_alone(entry, z, 1.0, H, prof, quad, opts)
        assert forced == [z, z]
        assert [y for y, _, _ in attempts] == [z.imag, 6.0, z.imag, np.sqrt(z.imag * 6.0), z.imag]
        assert [ok for _, _, ok in attempts] == [False, True, False, True, True]
        assert rep.rescued
        assert rep.iterations == attempts[-1][1]
        assert rep.total_iterations == sum(spent for _, spent, _ in attempts)
        ladder = ladder_reference(z, 1.0, H, prof, quad, opts)[-1]
        assert abs(rep.f - ladder.f) <= 10 * opts.tol

    @pytest.mark.parametrize("entry, where", [
        ("solve_master", r"target z=\(0\.5\+0\.1j\)"),
        ("solve_with_continuation", r"target z=\(0\.5\+0\.1j\)"),
        ("sweep_line", r"rescue at x=0\.5"),
    ])
    def test_rescue_gives_up_at_ladder_factor(self, monkeypatch, entry, where):
        H, prof, quad = self.constant_system()
        z = 0.5 + 0.1j
        height = 6.0

        def fail_below_height(zz, s, num):
            if zz.imag < height:
                raise NumericalFailure(f"forced failure at z={zz}")
            check_stieltjes(zz, s, num)

        monkeypatch.setattr(master_solver, "check_stieltjes", fail_below_height)
        attempts = record_attempts(monkeypatch)
        # the cold attempt, the top rung, the target, then halfway back in
        # log height until the step is at most LADDER_FACTOR
        expected = [z.imag, height, z.imag]
        while expected[-1] < LADDER_FACTOR * height:
            expected.append(np.sqrt(expected[-1] * height))
        with pytest.raises(NumericalFailure,
                           match=rf"{where}: rung Im={expected[-1]:.6g} failed: forced"):
            solve_alone(entry, z, 1.0, H, prof, quad)
        assert [y for y, _, _ in attempts] == expected
        assert len(expected) > 4

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(prof=_profiles, law=_offset_laws,
           c=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
           x=st.one_of(st.floats(-0.1, 0.1), st.floats(-2.0, 20.0)),
           log_y=st.floats(np.log(1e-3), np.log(3.0)))
    def test_forced_rescue_matches_ladder_reference(self, prof, law, c, x, log_y):
        total = sum(w for _, w in law)
        H = product_H([(lam2, w / total) for lam2, w in law], 16)
        quad = QuadratureRule.midpoint(c, 16)
        z = complex(x, np.exp(log_y))
        assume(z.imag < contraction_start_height(prof.sigma_max_sq, c, lambda_moment(H)))
        opts = SolverOptions(tol=1e-10, max_iters=60000)
        with pytest.MonkeyPatch.context() as patch:
            forced = fail_first_checks(patch, z, 1)
            rep = solve_with_continuation([z], c, H, prof, quad, opts)[z]
        assert forced == [z] and rep.rescued
        check_stieltjes(z, np.concatenate([rep.pi.weights, rep.pi_tilde.weights]),
                        _Stepper(H, prof, quad, c).num)
        ref_opts = SolverOptions(tol=1e-14 * max(1.0, 1.0 / z.imag), max_iters=60000)
        ref = ladder_reference(z, c, H, prof, quad, ref_opts)[-1]
        assert abs(rep.f - ref.f) <= 10 * opts.tol

    def test_solve_master_rescues_zgrid_target(self):
        prof, H, quad = zgrid_system(256)
        opts = SolverOptions(tol=1e-10, max_iters=60000)
        rep = solve_master(ZGRID_OUTSIDE, 0.5, H, prof, quad, opts)
        assert rep.rescued and rep.newton_steps > 0
        check_stieltjes(ZGRID_OUTSIDE, np.concatenate([rep.pi.weights, rep.pi_tilde.weights]),
                        _Stepper(H, prof, quad, 0.5).num)
        ref = ladder_reference(ZGRID_OUTSIDE, 0.5, H, prof, quad, opts)[-1]
        assert abs(rep.f - ref.f) <= 10 * opts.tol

    def test_answers_below_height_within_one_tolerance(self):
        # every answer below the height is a Newton answer, rescued or not
        prof, H, quad = zgrid_system(64)
        opts = SolverOptions(tol=1e-10, max_iters=60000)
        targets = ZGRID_TARGETS + [ZGRID_OUTSIDE]
        reports = solve_with_continuation(targets, 0.5, H, prof, quad, opts)
        assert [z for z, rep in reports.items() if rep.rescued] == [ZGRID_OUTSIDE]
        for z, rep in reports.items():
            assert rep.newton_steps > 0
            ref_opts = SolverOptions(tol=1e-14 * max(1.0, 1.0 / z.imag), max_iters=60000)
            ref = ladder_reference(z, 0.5, H, prof, quad, ref_opts)[-1]
            assert abs(rep.f - ref.f) <= opts.tol


_four_kinds = st.one_of(_profiles, st.builds(VarianceProfile.separable,
                                             st.lists(_entries, min_size=2, max_size=3),
                                             st.lists(_entries, min_size=2, max_size=3)))


class TestSweepLine:
    """A horizontal sweep, each point warm-started from its left neighbour,
    against cold solves at the same points."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(below=st.booleans(), prof=_four_kinds,
           law=st.lists(st.tuples(st.floats(0.0, 9.0), st.floats(0.1, 1.0)),
                        min_size=1, max_size=3),
           c=st.floats(0.2, 1.0),
           xs=st.lists(st.floats(-1.0, 12.0), min_size=8, max_size=8).map(sorted),
           t=st.floats(0.0, 1.0, exclude_max=True))
    def test_matches_cold_solves(self, below, prof, law, c, xs, t):
        total = sum(w for _, w in law)
        H = product_H([(lam2, w / total) for lam2, w in law], 32)
        quad = QuadratureRule.midpoint(c, 32)
        height = contraction_start_height(prof.sigma_max_sq, c, lambda_moment(H))
        # log-uniform in [1e-3, height) below the height, in [height, 2 height) above
        eps = 1e-3 * (height / 1e-3) ** t if below else height * (1.0 + t)
        opts = SolverOptions(tol=1e-10, max_iters=60000)
        reports = sweep_line(xs, eps, c, H, prof, quad, opts)
        num = _Stepper(H, prof, quad, c).num
        assert len(reports) == len(xs)
        for x, rep in zip(xs, reports):
            z = complex(x, eps)
            ref = solve_with_continuation([z], c, H, prof, quad, opts)[z]
            assert abs(rep.f - ref.f) <= 10 * opts.tol
            assert abs(rep.f_tilde - ref.f_tilde) <= 10 * opts.tol
            check_stieltjes(z, np.concatenate([rep.pi.weights, rep.pi_tilde.weights]), num)
