"""The package exports exactly the names its callers use, and every
module's ``__all__`` names only what the module defines."""

import importlib
import pkgutil
import types

import gramspec

PUBLIC = [
    "ComplexKernel", "ConfigError", "DegenerateDenominator", "DensityCurve", "EnsembleSpec",
    "InvalidInput", "JointLimitMeasure", "NoConvergence", "NoiseLevel", "NumericalFailure",
    "QuadratureRule", "SolveReport", "SolverOptions", "SpectrumSample", "VarianceProfile",
    "capacity_from_limit", "capacity_from_spectrum", "cdf_with_atom", "centered_profile_k",
    "contraction_start_height", "density_from_stieltjes", "empirical_H_from_diagonal",
    "empirical_stieltjes", "gram_eigenvalues", "iid_noncentered_f", "init_kernels",
    "ks_compare", "lambda_moment", "limit_density", "mp_cdf", "mp_density", "mp_stieltjes",
    "picard_step", "product_H", "sample_sigma_matrix", "sample_spectrum",
    "solve_with_continuation", "stieltjes_pair", "uniform_H",
]


def test_package_exports_exactly_the_public_list():
    # submodules are attributes once imported, whichever test imported them
    names = sorted(name for name, value in vars(gramspec).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == sorted(PUBLIC)


def test_every_all_entry_exists():
    for info in pkgutil.iter_modules(gramspec.__path__):
        module = importlib.import_module(f"gramspec.{info.name}")
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
