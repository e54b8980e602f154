import cmath

import numpy as np
import pytest

from gramspec.closed_forms import (ScalarFixedPointOptions, centered_profile_k,
                                   iid_noncentered_f, mp_cdf, mp_density,
                                   mp_stieltjes)
from gramspec.errors import DegenerateDenominator, InvalidInput
from gramspec.measures import VarianceProfile

Z_GRID = [0.5j, 1j, 2j, 1 + 1j, -0.5 + 0.7j, 3 + 4j, 10j, 0.1 + 0.6j,
          -2 + 1.5j, 5 + 0.5j, 0.9j, -1 + 2j, 4j, 2 + 2j, 0.3 + 1.1j,
          -3 + 0.8j, 6j, 1.5 + 0.55j, -0.2 + 5j, 8 + 1j]


class TestMpStieltjes:
    def test_square_case_at_i(self):
        # root of the quadratic: f = (-1 + sqrt(1 + 4i)) / 2
        expect = (-1 + cmath.sqrt(1 + 4j)) / 2
        got = mp_stieltjes(1j, 1.0, 1.0)
        assert abs(got - expect) < 1e-14
        assert got == pytest.approx(0.30024 + 0.62481j, abs=1e-5)

    def test_tail_behaviour(self):
        z = 1e4j
        assert abs(mp_stieltjes(z, 0.5, 1.0) + 1 / z) <= 1e-6

    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("s2", [0.5, 1.0, 2.0])
    def test_defining_equation(self, c, s2):
        for z in Z_GRID:
            f = mp_stieltjes(z, c, s2)
            resid = z * c * s2 * f * f + (z - (1 - c) * s2) * f + 1
            assert abs(resid) <= 1e-12
            assert f.imag > 0
            assert (z * f).imag > 0
            assert abs(f) <= 1 / z.imag + 1e-12


class TestMpDensity:
    def test_value_at_two(self):
        assert mp_density(2.0, 1.0, 1.0) == pytest.approx(1 / (2 * np.pi), rel=1e-12)

    def test_outside_support(self):
        assert mp_density(4.5, 1.0, 1.0) == 0.0
        assert mp_density(0.05, 0.5, 1.0) == 0.0  # below the lower edge (1-sqrt(c))^2

    @pytest.mark.parametrize("c,s2", [(1.0, 1.0), (0.5, 1.0), (0.25, 2.0)])
    def test_total_mass_one(self, c, s2):
        # substitution x = lo + (hi-lo) sin^2(t) removes the edge square roots
        lo = s2 * (1 - np.sqrt(c)) ** 2
        hi = s2 * (1 + np.sqrt(c)) ** 2
        theta = (np.arange(2000) + 0.5) * (np.pi / 2) / 2000
        x = lo + (hi - lo) * np.sin(theta) ** 2
        total = np.sum(mp_density(x, c, s2) * (hi - lo) * np.sin(2 * theta)) \
            * (np.pi / 2) / 2000
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_inversion_consistency_with_stieltjes(self):
        # Im f(x + i eps)/pi approaches the density as eps shrinks
        x = 1.7
        target = mp_density(x, 0.5, 1.0)
        errors = []
        for eps in (1e-2, 1e-3, 1e-4):
            approx = mp_stieltjes(x + 1j * eps, 0.5, 1.0).imag / np.pi
            errors.append(abs(approx - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3

    def test_cdf_endpoints(self):
        cdf = mp_cdf(0.5, 1.0)
        assert cdf(0.0) == 0.0
        assert cdf(10.0) == 1.0
        mid = cdf(1.0)
        assert 0.0 < mid < 1.0


class TestIidNoncentered:
    def test_reduces_to_mp_for_zero_offsets(self):
        for z in Z_GRID:
            f = iid_noncentered_f(z, 0.5, 1.0, [(0.0, 1.0)])
            assert abs(f - mp_stieltjes(z, 0.5, 1.0)) <= 1e-12

    def test_small_noise_approaches_point_resolvent(self):
        lam0 = 2.0
        z = 1j
        f = iid_noncentered_f(z, 0.5, 1e-9, [(lam0, 1.0)])
        assert abs(f - 1 / (lam0 - z)) <= 1e-6

    def test_stieltjes_properties(self):
        h = [(0.0, 0.25), (1.0, 0.5), (3.0, 0.25)]
        for z in Z_GRID:
            f = iid_noncentered_f(z, 0.5, 1.0, h)
            assert f.imag > 0
            assert (z * f).imag > 0
            assert abs(f) <= 1 / z.imag + 1e-12

    def test_bad_weights_rejected(self):
        with pytest.raises(InvalidInput):
            iid_noncentered_f(1j, 0.5, 1.0, [(0.0, 0.7)])

    @pytest.mark.parametrize("c,s2", [(0.25, 2.0), (1.0, 0.5)])
    def test_zero_offset_law_matches_mp_near_the_axis(self, c, s2):
        for x in np.linspace(-0.5, 4.0, 19):
            z = complex(x, 1e-2)
            f = iid_noncentered_f(z, c, s2, [(0, 1)])
            assert abs(f - mp_stieltjes(z, c, s2)) <= 1e-10 * max(1.0, abs(f))

    def test_matches_array_iteration(self):
        # the same damped iteration on numpy arrays, as a reference
        def array_f(z, c, s2, pairs):
            lam = np.array([p[0] for p in pairs])
            w = np.array([p[1] for p in pairs])
            f = -1.0 / z
            while True:
                den1 = 1.0 + c * s2 * f
                f_next = 0.5 * complex(np.dot(w, 1.0 / (-z * den1 + (1.0 - c) * s2
                                                        + lam / den1))) + 0.5 * f
                if abs(f_next - f) <= 1e-14:
                    return f_next
                f = f_next

        h = [(0.0, 0.5), (0.5, 0.3), (2.0, 0.2)]
        for z in Z_GRID + [0.3 + 1e-3j, 1.7 + 1e-3j]:
            assert abs(iid_noncentered_f(z, 0.5, 1.0, h) - array_f(z, 0.5, 1.0, h)) <= 1e-13

    def test_vanishing_denominator_raises(self):
        # with no noise the denominator is lambda - z, of magnitude 1e-20 at
        # z = lambda + 1e-20 i (an offset lambda = -2, which made it exactly
        # zero at z = i, is no longer a valid law)
        with pytest.raises(DegenerateDenominator, match="resolvent denominator vanished"):
            iid_noncentered_f(2.0 + 1e-20j, 1.0, 0.0, [(2.0, 1.0)])


class TestCenteredProfileK:
    def test_constant_profile_collapses_to_mp(self):
        grid = (np.arange(64) + 0.5) / 64
        for z in (1j, 2j, 1 + 1j):
            k = centered_profile_k(z, 0.5, VarianceProfile.constant(1.0), grid)
            f_mp = mp_stieltjes(z, 0.5, 1.0)
            assert np.max(np.abs(k - f_mp)) <= 1e-10

    def test_defining_equation_residual(self):
        prof = VarianceProfile.bilinear([[1.0, 1.0], [1.0, 2.0]])
        m = 64
        grid = (np.arange(m) + 0.5) / m
        c, z = 0.5, 1j
        opts = ScalarFixedPointOptions(tol=1e-15)
        k = centered_profile_k(z, c, prof, grid, opts)
        # rebuild the same discrete right-hand side and plug the solution in
        q = m
        t = np.concatenate([c * grid, c + (1 - c) * (np.arange(q) + 0.5) / q])
        tw = np.concatenate([np.full(m, c / m), np.full(q, (1 - c) / q)])
        sig = prof.evaluate(grid[:, None], t[None, :])
        inner = 1 + c * (sig.T @ k) / m
        rhs = 1.0 / (-z + sig @ (tw / inner))
        assert np.max(np.abs(k - rhs)) <= 1e-10

    def test_stieltjes_properties_of_mean(self):
        prof = VarianceProfile.bilinear([[1.0, 1.0], [1.0, 2.0]])
        grid = (np.arange(64) + 0.5) / 64
        for z in (0.5j, 1j, 2 + 3j):
            f = complex(np.mean(centered_profile_k(z, 0.5, prof, grid)))
            assert f.imag > 0
            assert (z * f).imag > 0
            assert abs(f) <= 1 / z.imag + 1e-12
