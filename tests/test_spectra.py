import math

import numpy as np
import pytest

from gramspec.closed_forms import mp_density, mp_stieltjes
from gramspec.errors import NumericalFailure
from gramspec.master_solver import SolverOptions, solve_with_continuation
from gramspec.measures import QuadratureRule, VarianceProfile, uniform_H
from gramspec.spectra import (DensityCurve, cdf_with_atom,
                              density_from_stieltjes, default_x_grid,
                              limit_density, stieltjes_pair,
                              support_bound)


def solve_mp(z, c, s2=1.0, count=64):
    H = uniform_H(count)
    prof = VarianceProfile.constant(s2)
    quad = QuadratureRule.midpoint(c, count)
    return solve_with_continuation([z], c, H, prof, quad)[z]


class TestStieltjesPair:
    def test_square_case_residual_is_f_difference(self):
        rep = solve_mp(1j, 1.0)
        f, ft, resid = stieltjes_pair(rep, 1.0, 1j)
        assert resid == abs(ft - f)

    def test_degenerate_profile_residual_zero(self):
        H = uniform_H(32, lam=1.0)
        prof = VarianceProfile.constant(0.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        rep = solve_with_continuation([1j], 1.0, H, prof, quad)[1j]
        f, ft, resid = stieltjes_pair(rep, 1.0, 1j)
        assert f == pytest.approx(0.5 + 0.5j, abs=1e-13)
        assert ft == pytest.approx(0.5 + 0.5j, abs=1e-13)
        assert resid <= 1e-13

    def test_mp_half_ratio_residual_small(self):
        rep = solve_mp(1j, 0.5)
        _, _, resid = stieltjes_pair(rep, 0.5, 1j)
        assert resid <= 1e-8

    def test_residual_small_across_z_grid(self):
        for z in (0.1j, 0.5j, 1j, 1 + 0.3j, -2 + 1j):
            rep = solve_mp(z, 0.5)
            _, _, resid = stieltjes_pair(rep, 0.5, z)
            assert resid <= 1e-8


class TestDensityFromStieltjes:
    def test_cauchy_kernel_for_point_mass(self):
        eps = 1e-2
        grid = np.linspace(-0.3, 0.3, 101)
        curve = density_from_stieltjes(lambda z: -1 / z, grid, eps)
        expect = eps / (np.pi * (grid ** 2 + eps ** 2))
        np.testing.assert_allclose(curve.values, expect, rtol=1e-12)

    def test_mp_density_at_two(self):
        grid = np.array([1.9, 2.0, 2.1])
        curve = density_from_stieltjes(lambda z: mp_stieltjes(z, 1.0, 1.0),
                                       grid, 1e-4)
        assert curve.values[1] == pytest.approx(1 / (2 * np.pi), abs=1e-4)

    def test_values_nonnegative_from_solver(self):
        H = uniform_H(32)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(1.0, 256)
        opts = SolverOptions(tol=1e-9, max_iters=40000)
        curve = limit_density(H, prof, quad, 1.0, np.linspace(0, 4.8, 40),
                              5e-3, opts)
        assert np.all(curve.values >= 0)

    def test_point_mass_keeps_cauchy_share_of_mass(self):
        # the Cauchy profile holds (2/pi) atan(10) ~ 0.937 of its mass
        # within ten widths of the atom, at any inversion height
        for eps in (1e-1, 1e-2, 1e-3):
            grid = np.linspace(-10 * eps, 10 * eps, 2001)
            curve = density_from_stieltjes(lambda z: -1 / z, grid, eps)
            mass = np.trapezoid(curve.values, grid)
            assert mass >= 0.93

    def test_large_negative_imag_raises(self):
        with pytest.raises(NumericalFailure):
            density_from_stieltjes(lambda z: complex(0, -1e-3), [0.0, 1.0], 1e-2)

    @pytest.mark.parametrize("f", [complex("nan+nanj"), complex(0.0, math.inf)])
    def test_transform_not_finite_is_a_numerical_failure(self, f):
        # a computed value, not an argument: NaN fails the test each
        # density value must pass, and is not blamed on the caller
        with pytest.raises(NumericalFailure, match="not finite and >= -1e-12"):
            density_from_stieltjes(lambda z: f, [0.0, 1.0], 1e-3)


class TestMassCheck:
    def test_mp_mass_approaches_one(self):
        # Re(-i y f(iy)) tends to 1 for the transform of a probability measure
        vals = [(-1j * y * mp_stieltjes(complex(0.0, y), 1.0, 1.0)).real
                for y in (1e2, 1e3, 1e4)]
        assert abs(vals[-1] - 1) <= 1e-3
        errs = [abs(v - 1) for v in vals]
        assert errs[0] > errs[1] > errs[2]

    def test_one_over_y_rate(self):
        # decay at least as fast as C/y, C calibrated at the smallest height
        ys = np.array([1e2, 1e3, 1e4])
        vals = [(-1j * y * mp_stieltjes(complex(0.0, y), 0.5, 1.0)).real for y in ys.tolist()]
        errs = np.abs(np.asarray(vals) - 1)
        assert np.all(np.diff(errs) < 0)
        const = errs[0] * ys[0]
        assert np.all(errs * ys <= const * 1.001 + 1e-12)


class TestCdfWithAtom:
    def _mp_curve(self, c, scale=1.0, atom=0.0):
        grid = np.linspace(0, 1.2 * (1 + np.sqrt(c)) ** 2, 4000)
        return DensityCurve(grid, scale * mp_density(grid, c, 1.0), 1e-3, atom)

    def test_square_case_no_atom(self):
        cdf = cdf_with_atom(self._mp_curve(1.0))
        assert cdf(0.0) == pytest.approx(0.0, abs=1e-6)
        assert cdf(5.0) == 1.0

    def test_transposed_side_atom(self):
        # transposed-side curve: density scaled by c, point mass 1-c at zero
        cdf = cdf_with_atom(self._mp_curve(0.5, scale=0.5, atom=0.5))
        assert cdf(0.0) == pytest.approx(0.5, abs=1e-4)
        assert cdf(-1e-9) == 0.0

    def test_monotone_and_ends_at_one(self):
        cdf = cdf_with_atom(self._mp_curve(0.5))
        grid = np.linspace(-0.5, 4.0, 500)
        vals = cdf(grid)
        assert np.all(np.diff(vals) >= 0)
        assert vals[-1] == 1.0

    def test_mass_window_enforced(self):
        grid = np.linspace(0, 1, 50)
        bad = DensityCurve(grid, np.full(50, 0.5), 1e-3)  # mass 0.5
        with pytest.raises(NumericalFailure):
            cdf_with_atom(bad)


class TestSupportBound:
    def test_mp_square(self):
        H = uniform_H(8)
        prof = VarianceProfile.constant(1.0)
        assert support_bound(prof, H, 1.0) == pytest.approx(4.0)

    def test_offsets_extend_bound(self):
        H = uniform_H(8, lam=3.0)
        prof = VarianceProfile.constant(1.0)
        assert support_bound(prof, H, 1.0) == pytest.approx(7.0)

    def test_default_grid_shape(self):
        H = uniform_H(8)
        prof = VarianceProfile.constant(1.0)
        grid = default_x_grid(prof, H, 1.0, points=100)
        assert grid.size == 100
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(4.8)


class TestLimitDensityTranspose:
    def test_transposed_curve_carries_atom(self):
        H = uniform_H(32)
        prof = VarianceProfile.constant(1.0)
        quad = QuadratureRule.midpoint(0.5, 32)
        opts = SolverOptions(tol=1e-9, max_iters=40000)
        grid = np.linspace(0, 1.2 * (1 + np.sqrt(0.5)) ** 2, 60)
        primal = limit_density(H, prof, quad, 0.5, grid, 5e-3, opts)
        dual = limit_density(H, prof, quad, 0.5, grid, 5e-3, opts, transpose=True)
        assert dual.atom_at_zero == pytest.approx(0.5)
        np.testing.assert_allclose(dual.values, 0.5 * primal.values, rtol=1e-9)
