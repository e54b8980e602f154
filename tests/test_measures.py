import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramspec.errors import InvalidInput
from gramspec.measures import (ComplexKernel, JointLimitMeasure, QuadratureRule,
                               VarianceProfile, empirical_H_from_diagonal,
                               lambda_moment, product_H, tv_distance, uniform_H)


class TestVarianceProfile:
    def test_constant(self):
        prof = VarianceProfile.constant(2.5)
        assert prof.evaluate(0.3, 0.9) == 2.5
        assert prof.sigma_max_sq == 2.5

    def test_bilinear_reproduces_one_plus_xy(self):
        prof = VarianceProfile.bilinear([[1.0, 1.0], [1.0, 2.0]])
        xs = np.linspace(0, 1, 13)
        ys = np.linspace(0, 1, 7)
        got = prof.evaluate(xs[:, None], ys[None, :])
        # the four-corner formula agrees with 1 + xy to rounding
        np.testing.assert_allclose(got, 1.0 + xs[:, None] * ys[None, :],
                                   rtol=0, atol=5e-16)

    def test_bilinear_exact_formula_interior_cell(self):
        v = np.array([[0.0, 1.0, 0.5], [2.0, 3.0, 1.0], [4.0, 0.5, 2.0]])
        prof = VarianceProfile.bilinear(v)
        # x = (i+s)/R with R=2, i=1, s=0.5; y = (j+t)/R with j=0, t=0.25
        x, y = 0.75, 0.125
        s, t = 0.5, 0.25
        expect = ((1 - s) * (1 - t) * v[1, 0] + s * (1 - t) * v[2, 0]
                  + (1 - s) * t * v[1, 1] + s * t * v[2, 1])
        assert prof.evaluate(x, y) == pytest.approx(expect, abs=0)

    def test_separable(self):
        prof = VarianceProfile.separable([1.0, 2.0], [3.0, 1.0])
        assert prof.evaluate(0.5, 0.0) == pytest.approx(1.5 * 3.0)
        assert prof.sigma_max_sq == pytest.approx(6.0)

    def test_blocks(self):
        prof = VarianceProfile.blocks([[1.0, 2.0], [3.0, 4.0]])
        assert prof.evaluate(0.25, 0.75) == 2.0
        assert prof.evaluate(1.0, 1.0) == 4.0  # top edge folds into last block

    def test_bounds_hold_on_random_points(self):
        rng = np.random.default_rng(7)
        profiles = [
            VarianceProfile.constant(1.3),
            VarianceProfile.separable([0.2, 1.0, 0.5], [1.0, 0.1]),
            VarianceProfile.bilinear(rng.uniform(0, 3, (4, 4))),
            VarianceProfile.blocks(rng.uniform(0, 2, (3, 5))),
        ]
        x = rng.uniform(0, 1, 200)
        y = rng.uniform(0, 1, 200)
        for prof in profiles:
            vals = np.asarray(prof.evaluate(x, y))
            assert np.all(vals >= 0)
            assert np.all(vals <= prof.sigma_max_sq + 1e-12)

    def test_evaluation_deterministic(self):
        prof = VarianceProfile.bilinear([[1.0, 0.5], [2.0, 0.0]])
        a = prof.evaluate(0.123456, 0.654321)
        b = prof.evaluate(0.123456, 0.654321)
        assert a == b

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            VarianceProfile.constant(-1.0)
        with pytest.raises(InvalidInput):
            VarianceProfile.bilinear([[1.0, -0.1], [0.0, 0.0]])

    def test_raw_constructor_rejected(self):
        # only the classmethods build a profile, so none escapes their checks
        with pytest.raises(TypeError):
            VarianceProfile("constant", 1.0, (-5.0,))
        with pytest.raises(TypeError):
            VarianceProfile()


_FACTOR_RNG = np.random.default_rng(11)
# each profile with the shape of its V
FACTOR_PROFILES = {
    "constant": (VarianceProfile.constant(1.3), (1, 1)),
    "separable": (VarianceProfile.separable([0.5, 1.0, 1.5], [1.5, 1.0, 0.5]), (1, 1)),
    "bilinear 2x2": (VarianceProfile.bilinear([[1.0, 1.0], [1.0, 2.0]]), (2, 2)),
    "bilinear 4x4": (VarianceProfile.bilinear(_FACTOR_RNG.uniform(0, 3, (4, 4))), (4, 4)),
    "blocks 2x3": (VarianceProfile.blocks([[0.4, 1.5, 0.9], [1.1, 0.3, 2.0]]), (2, 3)),
    "blocks 64x64": (VarianceProfile.blocks(_FACTOR_RNG.uniform(0, 2, (64, 64))), (64, 64)),
}


def factor_points(shape):
    """Random points, both ends of [0, 1], and the points where a cell index
    changes: every edge of ``shape`` block cells and every node of a
    bilinear grid with ``shape`` nodes."""
    rng = np.random.default_rng(3)
    x, y = ([rng.uniform(0, 1, 50), [0.0, 1.0], np.arange(r + 1) / r,
             np.arange(r) / max(r - 1, 1)] for r in shape)
    return np.concatenate(x), np.concatenate(y[::-1])


class TestProfileFactors:
    @pytest.mark.parametrize("name", sorted(FACTOR_PROFILES))
    def test_kind_is_its_classmethod_name(self, name):
        prof, _ = FACTOR_PROFILES[name]
        assert prof.kind == name.split()[0]

    @pytest.mark.parametrize("name", sorted(FACTOR_PROFILES))
    def test_factors_reproduce_evaluate(self, name):
        prof, shape = FACTOR_PROFILES[name]
        x, y = factor_points(shape)
        phi, V, psi = prof.factors(x, y)
        assert V.shape == shape
        assert phi.shape == (x.size, shape[0])
        assert psi.shape == (y.size, shape[1])
        got = phi @ V @ psi.T
        want = prof.evaluate(x[:, None], y[None, :])
        if prof.kind == "bilinear":
            assert np.max(np.abs(got - want)) <= 1e-15
        else:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ["bilinear 2x2", "bilinear 4x4", "blocks 2x3",
                                      "blocks 64x64"])
    def test_nonzeros_per_row(self, name):
        prof, shape = FACTOR_PROFILES[name]
        for basis in prof.factors(*factor_points(shape))[::2]:
            nonzeros = (basis != 0).sum(axis=1)
            if prof.kind == "bilinear":
                assert np.all(nonzeros <= 2)
                np.testing.assert_allclose(basis.sum(axis=1), 1.0, rtol=0, atol=1e-15)
            else:
                assert np.all(nonzeros == 1)
                assert np.all(basis.sum(axis=1) == 1.0)


class TestJointLimitMeasure:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            JointLimitMeasure([0.5], [1.0], [0.5])  # mass != 1
        with pytest.raises(InvalidInput):
            JointLimitMeasure([1.5], [1.0], [1.0])  # u out of range
        with pytest.raises(InvalidInput):
            JointLimitMeasure([0.5], [-1.0], [1.0])  # negative lambda

    def test_empirical_single_zero_atom(self):
        H = empirical_H_from_diagonal([0.0])
        assert H.atoms == [(1.0, 0.0, 1.0)]

    def test_empirical_sign_killed(self):
        H = empirical_H_from_diagonal([1.0, -1.0])
        assert H.atoms == [(0.5, 1.0, 0.5), (1.0, 1.0, 0.5)]

    def test_empirical_alternating(self):
        H = empirical_H_from_diagonal([0.0, 2.0, 0.0, 2.0])
        np.testing.assert_allclose(H.w, 0.25)
        np.testing.assert_allclose(H.lam, [0.0, 4.0, 0.0, 4.0])

    def test_empirical_is_probability(self):
        for n in (1, 3, 7, 100):
            H = empirical_H_from_diagonal(np.arange(n, dtype=float))
            assert abs(H.w.sum() - 1.0) <= 1e-12

    def test_empty_diagonal_rejected(self):
        with pytest.raises(InvalidInput):
            empirical_H_from_diagonal([])


def argmax_quota_lam(law, count):
    """The offsets of product_H from its largest-deficit rule with one
    numpy argmax per atom: the reference for the loop on Python floats."""
    lam_vals = [v for v, _ in law]
    probs, assigned = np.array([p for _, p in law]), np.zeros(len(law))
    lam = np.empty(count)
    for i in range(1, count + 1):
        k = int(np.argmax(i * probs - assigned))
        assigned[k] += 1
        lam[i - 1] = lam_vals[k]
    return lam


class TestProductH:
    def test_two_values_m2(self):
        H = product_H([(0.0, 0.5), (1.0, 0.5)], 2)
        assert H.atoms == [(0.5, 0.0, 0.5), (1.0, 1.0, 0.5)]

    def test_single_value_m4(self):
        H = product_H([(3.0, 1.0)], 4)
        np.testing.assert_allclose(H.lam, 3.0)
        np.testing.assert_allclose(H.w, 0.25)

    def test_marginal_exact_at_m100(self):
        H = product_H([(0.0, 0.5), (1.0, 0.5)], 100)
        w0 = H.w[H.lam == 0.0].sum()
        w1 = H.w[H.lam == 1.0].sum()
        assert w0 == pytest.approx(0.5, abs=1e-15)
        assert w1 == pytest.approx(0.5, abs=1e-15)

    def test_values_interleaved(self):
        H = product_H([(0.0, 0.5), (1.0, 0.5)], 8)
        np.testing.assert_allclose(H.lam, [0, 1, 0, 1, 0, 1, 0, 1])

    @pytest.mark.parametrize("count", [10, 100, 1000])
    def test_marginal_error_below_one_over_m(self, count):
        probs = [0.21, 0.34, 0.45]
        vals = [0.0, 1.0, 2.5]
        H = product_H(list(zip(vals, probs)), count)
        for val, prob in zip(vals, probs):
            got = H.w[H.lam == val].sum()
            assert abs(got - prob) <= 1.0 / count + 1e-12

    @pytest.mark.parametrize("count", [11, 256, 800, 1001, 4096])
    def test_matches_the_argmax_loop(self, count):
        rng = np.random.default_rng(5)
        laws = [[1 / 3] * 3, [0.25] * 4, [0.1] * 10, [0.5, 0.25, 0.25], [0.5, 0.5]]
        for size in range(2, 11):
            weights = rng.uniform(0.05, 1.0, size)
            laws.append(list(weights / weights.sum()))
        for probs in laws:
            law = [(float(k) ** 2, p) for k, p in enumerate(probs)]
            np.testing.assert_array_equal(product_H(law, count).lam,
                                          argmax_quota_lam(law, count))

    def test_non_normalized_rejected(self):
        with pytest.raises(InvalidInput):
            product_H([(0.0, 0.4), (1.0, 0.4)], 10)

    def test_count_too_small_rejected(self):
        with pytest.raises(InvalidInput):
            product_H([(0.0, 0.5), (1.0, 0.5)], 1)


class TestLambdaMoment:
    def test_point_mass(self):
        assert lambda_moment(JointLimitMeasure([0.4], [3.0], [1.0])) == 3.0

    def test_two_atoms(self):
        H = JointLimitMeasure([0.5, 1.0], [0.0, 4.0], [0.5, 0.5])
        assert lambda_moment(H) == 2.0

    def test_zero_offsets(self):
        assert lambda_moment(uniform_H(16)) == 0.0


class TestQuadratureRule:
    @pytest.mark.parametrize("c", [0.25, 0.5, 0.9])
    def test_midpoint_integrates_constants(self, c):
        quad = QuadratureRule.midpoint(c, 97)
        assert abs(quad.weights.sum() - (1 - c)) <= 1e-12
        assert np.all(np.diff(quad.nodes) > 0)
        assert quad.nodes[0] > c and quad.nodes[-1] < 1

    def test_degenerate_at_c_equal_one(self):
        quad = QuadratureRule.midpoint(1.0, 256)
        assert len(quad) == 0
        assert quad.weights.sum() == 0.0

    def test_bad_weights_rejected(self):
        with pytest.raises(InvalidInput):
            QuadratureRule(0.5, [0.6, 0.7], [0.3, 0.3])  # mass != 0.5

    def test_interval_one_ulp_wide(self):
        # the 16 midpoints of [1 - 2**-53, 1] round onto its two endpoints
        c = np.nextafter(1.0, 0.0)
        quad = QuadratureRule.midpoint(c, 16)
        assert len(quad) == 16
        assert np.all(np.diff(quad.nodes) >= 0)
        assert abs(quad.weights.sum() - (1 - c)) <= 1e-12

    def test_unsorted_nodes_rejected(self):
        with pytest.raises(InvalidInput, match="nondecreasing"):
            QuadratureRule(0.5, [0.7, 0.6], [0.25, 0.25])


complex_weights = st.lists(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12)


class TestTvDistance:
    def _kernel(self, weights):
        n = len(weights)
        return ComplexKernel(np.linspace(0, 1, n), np.zeros(n), weights)

    def test_identical_is_zero(self):
        a = self._kernel([1 + 2j, -0.5j])
        assert tv_distance(a, a) == 0.0

    def test_single_point_i_vs_minus_i(self):
        a = self._kernel([1j])
        b = self._kernel([-1j])
        assert tv_distance(a, b) == 2.0

    def test_delta_in_one_coordinate(self):
        a = self._kernel([1.0, 2.0, 3.0])
        b = self._kernel([1.0, 2.0 + 0.25, 3.0])
        assert tv_distance(a, b) == pytest.approx(0.25)

    def test_mismatched_points_rejected(self):
        a = ComplexKernel([0.1], [0.0], [1.0])
        b = ComplexKernel([0.2], [0.0], [1.0])
        with pytest.raises(InvalidInput):
            tv_distance(a, b)

    @given(w=complex_weights)
    @settings(max_examples=50, deadline=None)
    def test_identity_of_indiscernibles(self, w):
        a, b = self._kernel(w), self._kernel(list(w))
        assert tv_distance(a, b) == 0.0

    @given(data=st.data(), w=complex_weights)
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_triangle(self, data, w):
        n = len(w)
        other = data.draw(st.lists(
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n))
        third = data.draw(st.lists(
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n))
        a, b, cker = self._kernel(w), self._kernel(other), self._kernel(third)
        assert tv_distance(a, b) == tv_distance(b, a)
        assert tv_distance(a, cker) <= tv_distance(a, b) + tv_distance(b, cker) + 1e-9


class TestUniformH:
    def test_midpoints(self):
        H = uniform_H(4, lam=2.0)
        np.testing.assert_allclose(H.u, [0.125, 0.375, 0.625, 0.875])
        np.testing.assert_allclose(H.lam, 2.0)
        np.testing.assert_allclose(H.w, 0.25)
