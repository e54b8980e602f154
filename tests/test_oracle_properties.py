"""The kernel solver against the closed-form oracles, under hypothesis.

Each case is solved by ``solve_with_continuation`` from the cold start at
the target, so every draw at c < 1 goes through the cold start in the
iterate layout.  Both reduced cases discretize exactly:

* a constant profile makes every integral of the system a multiple of a
  total mass, so the atoms of H need not approximate anything, and the
  oracle ``iid_noncentered_f`` solves the same scalar system;
* with zero offsets, ``centered_profile_k`` on the u grid of
  ``uniform_H(m)`` with ``quad_count = m`` uses the solver's own nodes
  (c u_i, then the midpoints of [c, 1]) and weights.

So the two answers differ only by the two stopping rules:

* the solver stops once ``|G(s) - s|_1 <= TOL`` and returns ``G(s)``.
  Above the contraction height that bounds the error of f by ``TOL``;
  below it the factor 10 is the margin that ``TestColdStartAtTarget``
  holds against a tight reference over the same heights;
* the oracles stop once a damped step, half the undamped residual, is at
  most ``ORACLE_TOL``; the same factor 10 goes on that residual.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gramspec.closed_forms import centered_profile_k, iid_noncentered_f
from gramspec.master_solver import SolverOptions, solve_with_continuation
from gramspec.measures import JointLimitMeasure, QuadratureRule, VarianceProfile, uniform_H

TOL = 1e-10
ORACLE_TOL = 1e-14     # the default of ScalarFixedPointOptions
BOUND = 10 * (TOL + 2 * ORACLE_TOL)
OPTS = SolverOptions(tol=TOL, max_iters=60000)

_ratios = st.floats(0.2, 1.0)
_log_heights = st.floats(np.log(1e-2), np.log(3.0))
_entries = st.floats(0.2, 2.0)


def _assert_close(f, oracle):
    assert abs(f - oracle) <= BOUND


@settings(max_examples=40)
@given(s2=_entries,
       law=st.lists(st.tuples(st.floats(0.0, 25.0), st.floats(0.1, 1.0)),
                    min_size=1, max_size=3),
       c=_ratios, x=st.floats(-2.0, 20.0), log_y=_log_heights)
def test_constant_profile_matches_iid_noncentered_f(s2, law, c, x, log_y):
    lam = [lam2 for lam2, _ in law]
    w = np.array([p for _, p in law])
    w /= w.sum()
    H = JointLimitMeasure((np.arange(len(law)) + 0.5) / len(law), lam, w)
    z = complex(x, np.exp(log_y))
    rep = solve_with_continuation([z], c, H, VarianceProfile.constant(s2),
                                  QuadratureRule.midpoint(c, 8), OPTS)[z]
    _assert_close(rep.f, iid_noncentered_f(z, c, s2, list(zip(lam, w.tolist()))))


@settings(max_examples=40)
@given(prof=st.integers(2, 3).flatmap(lambda k: st.lists(
           st.lists(_entries, min_size=k, max_size=k), min_size=k, max_size=k))
       .map(VarianceProfile.bilinear),
       c=_ratios, x=st.floats(-1.0, 9.0), log_y=_log_heights)
def test_zero_offsets_match_centered_profile_k(prof, c, x, log_y):
    m = 16
    H = uniform_H(m)
    z = complex(x, np.exp(log_y))
    rep = solve_with_continuation([z], c, H, prof, QuadratureRule.midpoint(c, m), OPTS)[z]
    k = centered_profile_k(z, c, prof, H.u, quad_count=m)
    _assert_close(rep.f, complex(k.mean()))
