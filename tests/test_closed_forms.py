import cmath
import re

import numpy as np
import pytest

from gramspec import closed_forms
from gramspec.closed_forms import (centered_profile_k, iid_noncentered_f, mp_cdf,
                                   mp_density, mp_stieltjes)
from gramspec.errors import DegenerateDenominator, InvalidInput, NoConvergence
from gramspec.master_solver import solve_with_continuation
from gramspec.measures import QuadratureRule, VarianceProfile, product_H, uniform_H
from gramspec.spectra import default_x_grid

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

    @pytest.mark.parametrize("z, c, s2", [
        (1e-6j, 0.5, 2.0), (1e-6j, 0.25, 1.0), (1e-8j, 0.1, 1.0),
        (-1e-4 + 1e-9j, 0.5, 1.0), (1e-3 + 1e-7j, 0.25, 1.0),
        (1e4 + 1j, 0.5, 1.0), (1e5 + 1e-2j, 0.5, 1.0)])
    def test_small_imaginary_part_outside_the_bulk_keeps_its_digits(self, z, c, s2):
        # near the origin below a bulk that starts at s2 (1 - sqrt(c))^2 > 0,
        # and far beyond its upper edge, f is nearly real: the root with the
        # other sign of the square root lost Im f to cancellation (relative
        # error 2.2e-5 at the first point, 1 at the third, 1.9e-12 at the last)
        f = mp_stieltjes(z, c, s2)
        ref = iid_noncentered_f(z, c, s2, [(0.0, 1.0)])
        assert abs(f.imag - ref.imag) <= 1e-12 * ref.imag
        assert abs(f - ref) <= 1e-12 * abs(ref)


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

    # the 1e-13 cases hold the Newton finish to the exact root; a stop on a
    # damped step of 1e-14 read 4.4e-13 off it at Im z = 1e-3
    @pytest.mark.parametrize("c,s2,height,points,bound", [
        pytest.param(0.25, 2.0, 1e-2, 19, 1e-10, id="0.25-2.0"),
        pytest.param(1.0, 0.5, 1e-2, 19, 1e-10, id="1.0-0.5"),
        *(pytest.param(c, s2, height, 91, 1e-13, id=f"{c}-{s2}-{height}-exact")
          for c, s2 in [(0.25, 2.0), (1.0, 0.5), (0.5, 1.0)] for height in (1e-2, 1e-3)),
    ])
    def test_zero_offset_law_matches_mp_near_the_axis(self, c, s2, height, points, bound):
        for x in np.linspace(-0.5, 4.0, points):
            z = complex(x, height)
            f = iid_noncentered_f(z, c, s2, [(0, 1)])
            assert abs(f - mp_stieltjes(z, c, s2)) <= bound * max(1.0, abs(f))

    @pytest.mark.parametrize("z, c, s2", [(1e-3j, 0.99, 0.25), (1e-4j, 1.0, 1.0),
                                          (1e-4j, 0.99, 0.25), (1e-4 + 1e-3j, 0.99, 0.25)])
    def test_large_f_near_the_origin_converges(self, monkeypatch, z, c, s2):
        # |f| is 30-200 here: the Newton steps end in noise of a few ulps of
        # f, 1e-14 to 3e-14, above an absolute stop of 1e-14, which used up
        # all MAX_ITERS steps and raised NoConvergence
        monkeypatch.setattr(closed_forms, "MAX_ITERS", 200)
        f = iid_noncentered_f(z, c, s2, [(0.0, 1.0)])
        assert abs(f) > 30
        assert abs(f - mp_stieltjes(z, c, s2)) <= 1e-13 * abs(f)

    def test_matches_array_iteration(self):
        # the damped iteration alone on numpy arrays, as a reference: the
        # Newton finish lands on the same root to rounding
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

    @pytest.mark.parametrize("floor, message", [
        (1e3, "1 + c s2 f vanished"),                # |1 + c s2 f| is about 100
        (10.0, "resolvent denominator vanished"),    # and the resolvent's about 1
    ])
    def test_denominator_below_floor_raises(self, monkeypatch, floor, message):
        monkeypatch.setattr(closed_forms, "MIN_DENOMINATOR", floor)
        with pytest.raises(DegenerateDenominator, match=re.escape(f"{message} at z=0.01j")):
            iid_noncentered_f(0.01j, 1.0, 1.0, [(0.5, 1.0)])

    def test_montecarlo_reference_grid_within_a_step_budget(self, monkeypatch):
        # the 500 points of the Monte Carlo reference curve at Im z = 1e-3
        # take at most 36 steps each with the Newton finish, and up to 3974
        # with damped steps alone
        law = [(0.0, 0.5), (1.0, 0.5)]
        xs = default_x_grid(VarianceProfile.constant(1.0), product_H(law, 800), 0.5, 500)
        monkeypatch.setattr(closed_forms, "MAX_ITERS", 72)
        for x in xs:
            z = complex(x, 1e-3)
            f = iid_noncentered_f(z, 0.5, 1.0, law)
            assert f.imag >= 0 and (z * f).imag >= 0 and abs(f) <= 1 / z.imag

    def test_step_budget_spent_raises_no_convergence(self, monkeypatch):
        monkeypatch.setattr(closed_forms, "MAX_ITERS", 3)
        z = 0.3 + 1e-3j
        with pytest.raises(NoConvergence, match=re.escape(f"stalled at z={z}")):
            iid_noncentered_f(z, 0.5, 1.0, [(0.0, 0.5), (1.0, 0.5)])


class TestCenteredProfileK:
    def test_constant_profile_collapses_to_mp(self):
        grid = (np.arange(64) + 0.5) / 64
        for z in (1j, 2j, 1 + 1j):
            k = centered_profile_k(z, 0.5, VarianceProfile.constant(1.0), grid)
            f_mp = mp_stieltjes(z, 0.5, 1.0)
            assert np.max(np.abs(k - f_mp)) <= 1e-10

    # c = 1: the t nodes are the u grid itself and [c, 1] carries no nodes
    @pytest.mark.parametrize("z", [1j, 2 + 0.1j, 0.5 + 0.05j])
    def test_square_constant_profile_is_mp(self, z):
        grid = (np.arange(64) + 0.5) / 64
        k = centered_profile_k(z, 1.0, VarianceProfile.constant(1.0), grid)
        assert np.max(np.abs(k - mp_stieltjes(z, 1.0, 1.0))) <= 1e-12

    @pytest.mark.parametrize("z", [1j, 2 + 0.1j, 0.5 + 0.05j])
    def test_square_profile_matches_solver(self, z):
        prof = VarianceProfile.bilinear([[1.0, 1.0], [1.0, 2.0]])
        H = uniform_H(64)
        rep = solve_with_continuation([z], 1.0, H, prof, QuadratureRule.midpoint(1.0, 64))[z]
        k = centered_profile_k(z, 1.0, prof, H.u)
        assert abs(rep.f - complex(k.mean())) <= 1e-12

    def test_defining_equation_residual(self):
        prof = VarianceProfile.bilinear([[1.0, 1.0], [1.0, 2.0]])
        m = 64
        grid = (np.arange(m) + 0.5) / m
        c, z = 0.5, 1j
        k = centered_profile_k(z, c, prof, grid)
        # rebuild the same discrete right-hand side and plug the solution in
        q = m
        t = np.concatenate([c * grid, c + (1 - c) * (np.arange(q) + 0.5) / q])
        tw = np.concatenate([np.full(m, c / m), np.full(q, (1 - c) / q)])
        sig = prof.evaluate(grid[:, None], t[None, :])
        inner = 1 + c * (sig.T @ k) / m
        rhs = 1.0 / (-z + sig @ (tw / inner))
        assert np.max(np.abs(k - rhs)) <= 1e-10

    def test_step_budget_spent_raises_no_convergence(self, monkeypatch):
        monkeypatch.setattr(closed_forms, "MAX_ITERS", 3)
        z = 0.5 + 0.05j
        with pytest.raises(NoConvergence, match=re.escape(f"stalled at z={z}")):
            centered_profile_k(z, 0.5, VarianceProfile.constant(1.0),
                               (np.arange(16) + 0.5) / 16)

    @pytest.mark.parametrize("floor, message", [
        (1e3, "inner denominator vanished"),         # |1 + c J| is about 100
        (10.0, "outer denominator vanished"),        # and the outer one about 0.02
    ])
    def test_denominator_below_floor_raises(self, monkeypatch, floor, message):
        monkeypatch.setattr(closed_forms, "MIN_DENOMINATOR", floor)
        with pytest.raises(DegenerateDenominator, match=re.escape(f"{message} at z=0.01j")):
            centered_profile_k(0.01j, 1.0, VarianceProfile.constant(1.0),
                               (np.arange(16) + 0.5) / 16)

    def test_stieltjes_properties_of_mean(self):
        prof = VarianceProfile.bilinear([[1.0, 1.0], [1.0, 2.0]])
        grid = (np.arange(64) + 0.5) / 64
        for z in (0.5j, 1j, 2 + 3j):
            f = complex(np.mean(centered_profile_k(z, 0.5, prof, grid)))
            assert f.imag > 0
            assert (z * f).imag > 0
            assert abs(f) <= 1 / z.imag + 1e-12
