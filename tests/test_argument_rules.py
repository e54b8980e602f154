"""One upper-half-plane rule and one ratio rule for every entry point.

Each entry point must reject a z that is not a finite point of the upper
half plane, and a height that is not finite and positive, with
:class:`InvalidInput` before it does any work.  Every other argument is a
stand-in that fails the test on first use, so no map application,
profile evaluation or factorization can happen before the check.

Every entry point that takes the ratio ``c`` rejects a ``c`` outside
(0, 1] first.  The contraction height takes one input rule, and the
offset laws of ``product_H`` and ``iid_noncentered_f`` pass one rule too,
as does the oracle's variance.

Every entry point that takes a density grid checks it by
:class:`~gramspec.spectra.DensityCurve`'s rule before it evaluates a
transform or solves.

Every other real argument with a range passes ``check_range`` and every
count ``check_count``: the tables below give each site a NaN, an infinity
and a value outside its interval, or a float, a bool and a value below its
floor.  Each shape rule (a dimension, a length, an empty input) has a row
of its own.
"""

import math

import numpy as np
import pytest

from conftest import schur_identity_check
from gramspec import capacity, closed_forms, master_solver, measures, simulator, spectra
from gramspec.errors import (InvalidInput, check_count, check_range, check_ratio,
                             positive_height, upper_half_plane)

NAN, INF = math.nan, math.inf


class Untouched:
    """Stands in for an argument that must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"argument read ({name}) before the input was checked")

    def __call__(self, *args, **kwargs):
        raise AssertionError("callable argument called before the input was checked")

    def __iter__(self):
        raise AssertionError("argument iterated before the input was checked")


X = Untouched()

BAD_Z = [complex(NAN, 1.0), complex(1.0, NAN), complex(INF, 1.0), 1 + 0j, 1 - 1j]
BAD_Z_IDS = ["nan+1j", "1+nanj", "inf+1j", "1+0j", "1-1j"]
BAD_HEIGHTS = [NAN, INF, 0.0, -1.0]

Z_ENTRIES = {
    "init_kernels": lambda z: master_solver.init_kernels(X, X, z, 0.5),
    "picard_step": lambda z: master_solver.picard_step(z, 0.5, X, X, X, X, X),
    "solve_with_continuation":
        lambda z: master_solver.solve_with_continuation([2j, z], 0.5, X, X, X, X),
    "sweep_line": lambda z: master_solver.sweep_line([0.0, z.real], z.imag, 0.5, X, X, X, X),
    "mp_stieltjes": lambda z: closed_forms.mp_stieltjes(z, 0.5, 1.0),
    "iid_noncentered_f": lambda z: closed_forms.iid_noncentered_f(z, 0.5, 1.0, X),
    "centered_profile_k": lambda z: closed_forms.centered_profile_k(z, 0.5, X, X),
    "empirical_stieltjes": lambda z: simulator.empirical_stieltjes(X, X, z),
    "schur_identity_check": lambda z: schur_identity_check(X, z, 1),
    "density_from_stieltjes":
        lambda z: spectra.density_from_stieltjes(X, [0.0, z.real], z.imag),
}

HEIGHT_ENTRIES = {
    "sweep_line": lambda y: master_solver.sweep_line([0.5], y, 0.5, X, X, X, X),
    "solve_with_continuation":
        lambda y: master_solver.solve_with_continuation([2j], 0.5, X, X, X, X, y_start=y),
    "density_from_stieltjes": lambda y: spectra.density_from_stieltjes(X, [0.5], y),
    "limit_density": lambda y: spectra.limit_density(X, X, X, 0.5, [0.5], y),
    "DensityCurve": lambda y: spectra.DensityCurve([0.0, 1.0], [0.0, 0.0], y),
}

BAD_RATIOS = [NAN, 0.0, -0.1, 1.5, INF]

RATIO_ENTRIES = {
    "init_kernels": lambda c: master_solver.init_kernels(X, X, 1j, c),
    "picard_step": lambda c: master_solver.picard_step(1j, c, X, X, X, X, X),
    "solve_with_continuation":
        lambda c: master_solver.solve_with_continuation([2j], c, X, X, X, X),
    "sweep_line": lambda c: master_solver.sweep_line([0.5], 0.5, c, X, X, X, X),
    "mp_stieltjes": lambda c: closed_forms.mp_stieltjes(1j, c, 1.0),
    "iid_noncentered_f": lambda c: closed_forms.iid_noncentered_f(1j, c, 1.0, X),
    "centered_profile_k": lambda c: closed_forms.centered_profile_k(1j, c, X, X),
    "limit_density": lambda c: spectra.limit_density(X, X, X, c, [0.5], 0.5),
    "capacity_from_limit": lambda c: capacity.capacity_from_limit(
        spectra.DensityCurve([0.0, 1.0], [0.0, 0.0], 0.5), c, X),
}


@pytest.mark.parametrize("z", BAD_Z, ids=BAD_Z_IDS)
@pytest.mark.parametrize("entry", Z_ENTRIES)
def test_z_outside_the_upper_half_plane_rejected_first(entry, z):
    # the line entry points take Im z as their height, so its rule may fire
    with pytest.raises(InvalidInput, match="must be (a )?finite"):
        Z_ENTRIES[entry](z)


@pytest.mark.parametrize("y", BAD_HEIGHTS, ids=["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("entry", HEIGHT_ENTRIES)
def test_height_not_finite_and_positive_rejected_first(entry, y):
    with pytest.raises(InvalidInput, match="must be finite and > 0"):
        HEIGHT_ENTRIES[entry](y)


BAD_GRIDS = {"reversed": ([1.0, 0.5], "strictly increasing x_grid"),
             "one-point": ([0.5], "x_grid must hold at least two points")}

GRID_ENTRIES = {
    "density_from_stieltjes": lambda grid: spectra.density_from_stieltjes(X, grid, 0.5),
    "limit_density": lambda grid: spectra.limit_density(X, X, X, 0.5, grid, 0.5),
}


@pytest.mark.parametrize("grid", BAD_GRIDS, ids=BAD_GRIDS.keys())
@pytest.mark.parametrize("entry", GRID_ENTRIES)
def test_density_grid_rejected_before_any_solve(entry, grid):
    values, message = BAD_GRIDS[grid]
    with pytest.raises(InvalidInput, match=message):
        GRID_ENTRIES[entry](values)


def test_rules_return_the_value_they_checked():
    assert upper_half_plane(-1 + 1e-300j) == complex(-1, 1e-300)
    assert upper_half_plane(3j) == 3j
    assert positive_height(2, "y") == 2.0
    assert check_ratio(1) == 1.0
    assert check_ratio(0.25) == 0.25


@pytest.mark.parametrize("c", BAD_RATIOS)
def test_ratio_rule(c):
    with pytest.raises(InvalidInput, match=r"c must lie in \(0, 1\]"):
        check_ratio(c)


@pytest.mark.parametrize("c", BAD_RATIOS)
@pytest.mark.parametrize("entry", RATIO_ENTRIES)
def test_ratio_outside_zero_one_rejected_first(entry, c):
    with pytest.raises(InvalidInput, match=r"c must lie in \(0, 1\]"):
        RATIO_ENTRIES[entry](c)


@pytest.mark.parametrize("s2, m1", [(NAN, 1.0), (INF, 1.0), (-1.0, 1.0),
                                    (1.0, NAN), (1.0, INF), (1.0, -3.0)],
                         ids=["s2-nan", "s2-inf", "s2-negative",
                              "m1-nan", "m1-inf", "m1-negative"])
def test_contraction_bounds_need_finite_nonnegative_inputs(s2, m1):
    with pytest.raises(InvalidInput, match="must be finite and >= 0"):
        master_solver.contraction_start_height(s2, 0.5, m1)


@pytest.mark.parametrize("c", [NAN, 0.0, 2.0])
def test_contraction_bounds_take_the_ratio_rule(c):
    with pytest.raises(InvalidInput, match=r"c must lie in \(0, 1\]"):
        master_solver.contraction_start_height(1.0, c, 1.0)


BAD_LAWS = {
    "empty": [],
    "lambda-nan": [(NAN, 1.0)],
    "lambda-inf": [(INF, 1.0)],
    "lambda-negative": [(-4.0, 1.0)],
    "prob-nan": [(0.0, NAN), (1.0, 1.0)],
    "prob-inf": [(0.0, INF), (1.0, 1.0)],
    "prob-zero": [(0.0, 0.0), (1.0, 1.0)],
    "sum-not-1": [(0.0, 0.5), (1.0, 0.4)],
}
LAW_ENTRIES = {
    "product_H": lambda law: measures.product_H(law, 4),
    "iid_noncentered_f": lambda law: closed_forms.iid_noncentered_f(1j, 0.5, 1.0, law),
}


@pytest.mark.parametrize("law", BAD_LAWS.values(), ids=BAD_LAWS.keys())
@pytest.mark.parametrize("entry", LAW_ENTRIES)
def test_offset_law_rule(entry, law):
    with pytest.raises(InvalidInput, match="h_lambda|lambda values"):
        LAW_ENTRIES[entry](law)


@pytest.mark.parametrize("sigma_sq", [NAN, INF, -1.0])
def test_oracle_variance_rule(sigma_sq):
    with pytest.raises(InvalidInput, match="sigma_sq must be finite and >= 0"):
        closed_forms.iid_noncentered_f(1j, 0.5, sigma_sq, X)


def test_oracle_accepts_pure_offsets():
    # sigma_sq = 0 leaves f = sum_k w_k / (lambda_k - z)
    f = closed_forms.iid_noncentered_f(1j, 0.5, 0.0, [(0.0, 0.5), (1.0, 0.5)])
    assert abs(f - (0.5 / -1j + 0.5 / (1.0 - 1j))) <= 1e-13


# site: (call on the probed value, the rule's message, the probed values)
RANGE_SITES = {
    "positive_height": (lambda v: positive_height(v, "y"), "y must be finite and > 0",
                        [0.0]),
    "check_ratio": (check_ratio, r"c must lie in \(0, 1\]", [1.5]),
    "SolverOptions.tol": (lambda v: master_solver.SolverOptions(tol=v),
                          "tol must be finite and > 0", [0.0]),
    "contraction_start_height.sigma_max_sq":
        (lambda v: master_solver.contraction_start_height(v, 0.5, 1.0),
         "sigma_max_sq must be finite and >= 0", [-1.0]),
    "contraction_start_height.lambda_m1":
        (lambda v: master_solver.contraction_start_height(1.0, 0.5, v),
         "lambda_m1 must be finite and >= 0", [-1.0]),
    "mp_stieltjes.sigma_sq": (lambda v: closed_forms.mp_stieltjes(1j, 0.5, v),
                              "sigma_sq must be finite and > 0", [0.0]),
    "mp_density.sigma_sq": (lambda v: closed_forms.mp_density(X, 0.5, v),
                            "sigma_sq must be finite and > 0", [-1.0]),
    "mp_density.c": (lambda v: closed_forms.mp_density(X, v, 1.0), r"c must lie in \(0, 1\]",
                     [0.0]),
    "mp_cdf.c": (lambda v: closed_forms.mp_cdf(v, 1.0), r"c must lie in \(0, 1\]", [-1.0]),
    "mp_cdf.sigma_sq": (lambda v: closed_forms.mp_cdf(0.5, v),
                        "sigma_sq must be finite and > 0", [-1.0]),
    "iid_noncentered_f.sigma_sq": (lambda v: closed_forms.iid_noncentered_f(1j, 0.5, v, X),
                                   "sigma_sq must be finite and >= 0", [-1.0]),
    "centered_profile_k.u_grid":
        (lambda v: closed_forms.centered_profile_k(1j, 0.5, X, [0.5, v]),
         r"u_grid must lie in \[0, 1\]", [1.5]),
    "VarianceProfile.constant": (measures.VarianceProfile.constant,
                                 "constant profile value must be finite and >= 0", [-1.0]),
    "VarianceProfile.separable.g_values":
        (lambda v: measures.VarianceProfile.separable([1.0, v], [1.0, 1.0]),
         "g_values must be finite and >= 0", [-1.0]),
    "VarianceProfile.separable.h_values":
        (lambda v: measures.VarianceProfile.separable([1.0, 1.0], [v, 1.0]),
         "h_values must be finite and >= 0", [-1.0]),
    "VarianceProfile.bilinear": (lambda v: measures.VarianceProfile.bilinear([[1, 1], [1, v]]),
                                 "bilinear grid values must be finite and >= 0", [-1.0]),
    "VarianceProfile.blocks": (lambda v: measures.VarianceProfile.blocks([[1.0, v]]),
                               "block values must be finite and >= 0", [-1.0]),
    "JointLimitMeasure.u": (lambda v: measures.JointLimitMeasure([v], [0.0], [1.0]),
                            r"positions u must lie in \[0, 1\]", [1.5]),
    "JointLimitMeasure.lam": (lambda v: measures.JointLimitMeasure([0.5], [v], [1.0]),
                              "lambda values must be finite and >= 0", [-1.0]),
    "JointLimitMeasure.w": (lambda v: measures.JointLimitMeasure([0.2, 0.8], [0, 0], [v, 1.0]),
                            "weights must be finite and > 0", [0.0]),
    "QuadratureRule.lower": (lambda v: measures.QuadratureRule(v, [], []),
                             r"lower endpoint must lie in \(0, 1\]", [0.0]),
    "QuadratureRule.midpoint.lower": (lambda v: measures.QuadratureRule.midpoint(v, 4),
                                      r"lower endpoint must lie in \(0, 1\]", [1.5]),
    "QuadratureRule.nodes": (lambda v: measures.QuadratureRule(0.5, [v], [0.5]),
                             r"nodes must lie in \[0.5, 1\]", [0.25]),
    "QuadratureRule.weights": (lambda v: measures.QuadratureRule(0.5, [0.75], [v]),
                               "weights must be finite and > 0", [-0.5]),
    "product_H.lambda": (lambda v: measures.product_H([(v, 1.0)], 4),
                         "lambda values must be finite and >= 0", [-4.0]),
    "product_H.weights": (lambda v: measures.product_H([(0.0, v), (1.0, 1.0)], 4),
                          "h_lambda weights must be finite and > 0", [0.0]),
    "uniform_H.lam": (lambda v: measures.uniform_H(4, v),
                      "lambda values must be finite and >= 0", [-1.0]),
    "DensityCurve.x_grid": (lambda v: spectra.DensityCurve([0.0, v], [0.0, 0.0], 1e-3),
                            "strictly increasing x_grid: each step must be finite and > 0",
                            [0.0]),
    "DensityCurve.values": (lambda v: spectra.DensityCurve([0.0, 1.0], [v, 0.0], 1e-3),
                            "density values must be finite and >= 0", [-1.0]),
    "DensityCurve.atom_at_zero":
        (lambda v: spectra.DensityCurve([0.0, 1.0], [0.0, 0.0], 1e-3, atom_at_zero=v),
         r"atom_at_zero must lie in \[0, 1\]", [1.5]),
    "NoiseLevel": (capacity.NoiseLevel, "s_sq must be finite and > 0", [0.0]),
    "SpectrumSample": (lambda v: simulator.SpectrumSample([0.1, v], 1, (2, 3)),
                       "eigenvalues must be finite and >= -1e-10", [-1e-9]),
    "sample_sigma_matrix.lambda_diag":
        (lambda v: simulator.sample_sigma_matrix(simulator.EnsembleSpec("gaussian", 0, 2, 3),
                                                 X, [0.0, v]),
         r"offsets \|lambda_diag\| must be finite and >= 0", [-math.inf]),
    "empirical_stieltjes.lambda_diag":
        (lambda v: simulator.empirical_stieltjes(np.eye(2), [0.0, v], 1j),
         r"offsets \|lambda_diag\| must be finite and >= 0", [-math.inf]),
}


@pytest.mark.parametrize("site, value", [
    (site, value) for site, (_, _, bad) in RANGE_SITES.items() for value in [NAN, INF, *bad]])
def test_range_rule_at_every_site(site, value):
    call, message, _ = RANGE_SITES[site]
    with pytest.raises(InvalidInput, match=message):
        call(value)


# the steps of an ordered sequence pass the rule too, which a NaN entry fails
@pytest.mark.parametrize("call, message", [
    (lambda: measures.QuadratureRule(0.5, [0.75, 0.5], [0.25, 0.25]),
     "nondecreasing nodes: each step must be finite and >= 0, got -0.25"),
    (lambda: simulator.SpectrumSample([0.5, 0.25], 1, (2, 3)),
     "ascending eigenvalues: each step must be finite and >= 0, got -0.25"),
    (lambda: spectra.DensityCurve([0.0, 1.0, 1.0], [0.0] * 3, 1e-3),
     "strictly increasing x_grid: each step must be finite and > 0, got 0.0"),
], ids=["QuadratureRule.nodes", "SpectrumSample", "DensityCurve.x_grid"])
def test_order_rule(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


# site: (a call that breaks the site's shape rule, the rule's message)
SHAPE_SITES = {
    "VarianceProfile.separable": (lambda: measures.VarianceProfile.separable([1.0], [1.0, 1.0]),
                                  "g_values must be a 1-d sequence, length >= 2"),
    "VarianceProfile.bilinear": (lambda: measures.VarianceProfile.bilinear([[1.0] * 3] * 2),
                                 "bilinear grid must be square, at least 2x2"),
    "VarianceProfile.blocks": (lambda: measures.VarianceProfile.blocks([1.0, 2.0]),
                               "block values must form a 2-d array"),
    "JointLimitMeasure.lengths": (lambda: measures.JointLimitMeasure([0.2, 0.8], [0.0], [1.0]),
                                  "u, lam, w must be 1-d sequences of equal length"),
    "JointLimitMeasure.empty": (lambda: measures.JointLimitMeasure([], [], []),
                                "measure needs at least one atom"),
    "ComplexKernel.ndim": (lambda: measures.ComplexKernel([[0.5]], [0.0], [1.0]),
                           "kernel arrays must be 1-d"),
    "ComplexKernel.lengths": (lambda: measures.ComplexKernel([0.2, 0.8], [0.0, 0.0], [1.0]),
                              "points and weights must have equal length"),
    "QuadratureRule": (lambda: measures.QuadratureRule(0.5, [0.6, 0.7], [0.5]),
                       "nodes and weights must be 1-d of equal length"),
    "SpectrumSample": (lambda: simulator.SpectrumSample([], 1, (2, 3)),
                       "eigenvalues must be a nonempty 1-d array"),
    "gram_eigenvalues": (lambda: simulator.gram_eigenvalues(np.empty((0, 3))),
                         "sigma must be a nonempty matrix"),
    "DensityCurve.x_grid": (lambda: spectra.DensityCurve([0.5], [0.0], 1e-3),
                            "x_grid must hold at least two points"),
    "DensityCurve.values": (lambda: spectra.DensityCurve([0.0, 1.0], [0.0], 1e-3),
                            "values must match x_grid in length"),
    "centered_profile_k.u_grid": (lambda: closed_forms.centered_profile_k(1j, 0.5, X, []),
                                  "u_grid must be a nonempty 1-d array"),
    "solve_with_continuation.factor":
        (lambda: master_solver.solve_with_continuation([2j], 0.5, X, X, X, X, factor=1.0),
         r"factor must lie in \(0, 1\)"),
}


@pytest.mark.parametrize("site", SHAPE_SITES)
def test_shape_rule_at_every_site(site):
    call, message = SHAPE_SITES[site]
    with pytest.raises(InvalidInput, match=message):
        call()


def test_mass_rule_rejects_a_weight_sum_off_its_total():
    with pytest.raises(InvalidInput, match="weights must sum to 0.5, got 0.6"):
        measures.QuadratureRule(0.5, [0.6, 0.7], [0.3, 0.3])
    with pytest.raises(InvalidInput, match="weights must sum to 1, got 0.9"):
        measures.JointLimitMeasure([0.2, 0.8], [0.0, 0.0], [0.5, 0.4])


@pytest.mark.parametrize("size", [2, 16, 17, 200])
@pytest.mark.parametrize("bad", [NAN, INF, -INF, -1.0, 2.0])
def test_every_entry_of_short_and_long_arrays_is_tested(size, bad):
    # up to 16 entries the rule tests each one, above it the min and max
    for k in range(size):
        values = np.linspace(0.0, 1.0, size)
        values[k] = bad
        with pytest.raises(InvalidInput, match=rf"x must lie in \[0, 1\], got {bad!r}"):
            check_range(values, "x", 0.0, 1.0)
    assert check_range(np.linspace(0.0, 1.0, size), "x", 0.0, 1.0).shape == (size,)


def test_range_rule_returns_a_float_for_a_number_and_an_array_otherwise():
    for number in (2, np.float32(2.0), np.int64(2), np.array(2.0)):
        value = check_range(number, "x")
        assert type(value) is float and value == 2.0
    assert check_range(0.0, "x") == 0.0
    arr = check_range([[0.0, 1.0], [2.0, 3.0]], "x")
    assert arr.dtype == float and arr.shape == (2, 2)
    assert check_range([], "x").shape == (0,)
    with pytest.raises(InvalidInput, match="x must be finite and > 0, got 0.0"):
        check_range(0.0, "x", open_low=True)


# site: (call on the probed count, the rule's message, a count below its floor)
COUNT_SITES = {
    "SolverOptions.max_iters": (lambda n: master_solver.SolverOptions(max_iters=n),
                                "max_iters must be an integer >= 1", 0),
    "QuadratureRule.midpoint": (lambda n: measures.QuadratureRule.midpoint(0.5, n),
                                "count must be an integer >= 1", 0),
    "product_H": (lambda n: measures.product_H([(0.0, 0.5), (1.0, 0.5)], n),
                  "count for 2 lambda values must be an integer >= 2", 1),
    "uniform_H": (measures.uniform_H, "count must be an integer >= 1", 0),
    "default_x_grid": (lambda n: spectra.default_x_grid(X, X, 0.5, points=n),
                       "points must be an integer >= 2", 1),
    "EnsembleSpec.N": (lambda n: simulator.EnsembleSpec("gaussian", 0, n, 5),
                       r"dimensions \(N, n\) must be integers >= 1", 0),
    "EnsembleSpec.n": (lambda n: simulator.EnsembleSpec("gaussian", 0, 1, n),
                       r"dimensions \(N, n\) must be integers >= 1", 0),
    "check_seed": (simulator.check_seed, r"seed must be an integer in \[0, 2\*\*128\)", -1),
}


@pytest.mark.parametrize("site, value", [
    (site, value) for site, (_, _, low) in COUNT_SITES.items()
    for value in [2.5, True, np.float64(3.0), low]])
def test_count_rule_at_every_site(site, value):
    call, message, _ = COUNT_SITES[site]
    with pytest.raises(InvalidInput, match=message):
        call(value)


def test_count_rule_accepts_numpy_integers_and_checks_its_ceiling():
    assert check_count(np.int32(3), "n", 1) == 3
    assert check_count((np.int64(2), 5), "dims", 1) == (2, 5)
    assert check_count(2 ** 128 - 1, "seed", 0, 128) == 2 ** 128 - 1
    with pytest.raises(InvalidInput, match=r"seed must be an integer in \[0, 2\*\*128\)"):
        check_count(2 ** 128, "seed", 0, 128)
