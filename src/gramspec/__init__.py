"""Deterministic limiting spectra of Gram random matrices with a variance
profile and a diagonal offset, cross-validated against closed-form special
cases and Monte Carlo simulation."""

from .errors import (ConfigError, DegenerateDenominator, InvalidInput,
                     NoConvergence, NumericalFailure)
from .measures import (ComplexKernel, JointLimitMeasure, QuadratureRule,
                       VarianceProfile, empirical_H_from_diagonal,
                       lambda_moment, product_H, tv_distance, uniform_H)
from .master_solver import (SolveReport, SolverOptions,
                            contraction_start_height, init_kernels,
                            picard_step, solve_master,
                            solve_with_continuation, theta_bound)
from .closed_forms import (ScalarFixedPointOptions, centered_profile_k,
                           iid_noncentered_f, mp_cdf, mp_density, mp_stieltjes)
from .spectra import (DensityCurve, cdf_with_atom, density_from_stieltjes,
                      limit_density, mass_check, stieltjes_pair)
from .simulator import (EnsembleSpec, SpectrumSample, empirical_stieltjes,
                        gram_eigenvalues, ks_compare, sample_sigma_matrix,
                        sample_spectrum, schur_identity_check,
                        truncate_diagonal)
from .capacity import NoiseLevel, capacity_from_limit, capacity_from_spectrum

__version__ = "0.1.0"
