"""One upper-half-plane rule and one ratio rule for every entry point.

Each entry point must reject a z that is not a finite point of the upper
half plane, and a height that is not finite and positive, with
:class:`InvalidInput` before it does any work.  Every other argument is a
stand-in that fails the test on first use, so no map application,
profile evaluation or factorization can happen before the check.

The contraction bounds take one input rule, and the offset laws of
``product_H`` and ``iid_noncentered_f`` pass one rule too, as does the
oracle's variance.
"""

import math

import pytest

from gramspec import closed_forms, master_solver, measures, simulator, spectra
from gramspec.errors import InvalidInput, check_ratio, positive_height, upper_half_plane

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
    "solve_master": lambda z: master_solver.solve_master(z, 0.5, X, X, X, X, X),
    "solve_with_continuation":
        lambda z: master_solver.solve_with_continuation([2j, z], 0.5, X, X, X, X),
    "sweep_line": lambda z: master_solver.sweep_line([0.0, z.real], z.imag, 0.5, X, X, X, X),
    "mp_stieltjes": lambda z: closed_forms.mp_stieltjes(z, 0.5, 1.0),
    "iid_noncentered_f": lambda z: closed_forms.iid_noncentered_f(z, 0.5, 1.0, X, X),
    "centered_profile_k": lambda z: closed_forms.centered_profile_k(z, 0.5, X, X, X),
    "empirical_stieltjes": lambda z: simulator.empirical_stieltjes(X, X, z),
    "empirical_f_tilde": lambda z: simulator.empirical_f_tilde(X, z),
    "schur_identity_check": lambda z: simulator.schur_identity_check(X, z, 1),
    "density_from_stieltjes":
        lambda z: spectra.density_from_stieltjes(X, [0.0, z.real], z.imag),
}

HEIGHT_ENTRIES = {
    "theta_bound": lambda y: master_solver.theta_bound(1.0, 0.5, 1.0, y),
    "sweep_line": lambda y: master_solver.sweep_line([0.5], y, 0.5, X, X, X, X),
    "solve_with_continuation":
        lambda y: master_solver.solve_with_continuation([2j], 0.5, X, X, X, X, y_start=y),
    "density_from_stieltjes": lambda y: spectra.density_from_stieltjes(X, [0.5], y),
    "mass_check": lambda y: spectra.mass_check(X, [1.0, y]),
    "DensityCurve": lambda y: spectra.DensityCurve([0.0, 1.0], [0.0, 0.0], y),
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


def test_rules_return_the_value_they_checked():
    assert upper_half_plane(-1 + 1e-300j) == complex(-1, 1e-300)
    assert upper_half_plane(3j) == 3j
    assert positive_height(2, "y") == 2.0
    assert check_ratio(1) == 1.0
    assert check_ratio(0.25) == 0.25


@pytest.mark.parametrize("c", [NAN, 0.0, -0.1, 1.5, INF])
def test_ratio_rule(c):
    with pytest.raises(InvalidInput, match=r"c must lie in \(0, 1\]"):
        check_ratio(c)


BOUND_ENTRIES = {
    "contraction_start_height": master_solver.contraction_start_height,
    "theta_bound": lambda s2, c, m1: master_solver.theta_bound(s2, c, m1, 1.0),
}


@pytest.mark.parametrize("s2, m1", [(NAN, 1.0), (INF, 1.0), (-1.0, 1.0),
                                    (1.0, NAN), (1.0, INF), (1.0, -3.0)],
                         ids=["s2-nan", "s2-inf", "s2-negative",
                              "m1-nan", "m1-inf", "m1-negative"])
@pytest.mark.parametrize("entry", BOUND_ENTRIES)
def test_contraction_bounds_need_finite_nonnegative_inputs(entry, s2, m1):
    with pytest.raises(InvalidInput, match="must be finite and >= 0"):
        BOUND_ENTRIES[entry](s2, 0.5, m1)


@pytest.mark.parametrize("c", [NAN, 0.0, 2.0])
@pytest.mark.parametrize("entry", BOUND_ENTRIES)
def test_contraction_bounds_take_the_ratio_rule(entry, c):
    with pytest.raises(InvalidInput, match=r"c must lie in \(0, 1\]"):
        BOUND_ENTRIES[entry](1.0, c, 1.0)


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
    "iid_noncentered_f": lambda law: closed_forms.iid_noncentered_f(1j, 0.5, 1.0, law, X),
}


@pytest.mark.parametrize("law", BAD_LAWS.values(), ids=BAD_LAWS.keys())
@pytest.mark.parametrize("entry", LAW_ENTRIES)
def test_offset_law_rule(entry, law):
    with pytest.raises(InvalidInput, match="h_lambda|lambda values"):
        LAW_ENTRIES[entry](law)


@pytest.mark.parametrize("sigma_sq", [NAN, INF, -1.0])
def test_oracle_variance_rule(sigma_sq):
    with pytest.raises(InvalidInput, match="sigma_sq must be finite and >= 0"):
        closed_forms.iid_noncentered_f(1j, 0.5, sigma_sq, X, X)


def test_oracle_accepts_pure_offsets():
    # sigma_sq = 0 leaves f = sum_k w_k / (lambda_k - z)
    f = closed_forms.iid_noncentered_f(1j, 0.5, 0.0, [(0.0, 0.5), (1.0, 0.5)])
    assert abs(f - (0.5 / -1j + 0.5 / (1.0 - 1j))) <= 1e-13
