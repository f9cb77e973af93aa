"""Adapted 2-Wasserstein distances between Gaussian processes.

Computes the bicausal optimal transport cost between real-valued Gaussian
processes from their canonical Volterra representations: a Cholesky-based
closed form in discrete time, kernel-integral formulas in continuous time
(with a trace-norm variant for higher multiplicity), the best martingale
approximation to fractional Brownian motion, and a Monte Carlo harness that
verifies the optimality of the synchronous coupling for fractional SDEs.
Every closed form is cross-checked against independent brute-force oracles.
"""

__version__ = "0.1.0"

from .errors import (ConvergenceError, DomainError, MeasureOrderingError,
                     NotPositiveDefiniteError, SimulationError, SingularityError)
from .fsde import (AssumptionReport, CostEstimate, CouplingControl, FsdeSpec, PathEnsemble,
                   assumption_checker, estimate_coupling_cost, euler_fsde, lamperti_inverse,
                   lamperti_inverse_interpolator, lamperti_transform, make_diffusion,
                   make_drift, simulate_coupled_noise)
from .gauss_aw import (CovMatrix, DistanceReport, TriangularFactor, cholesky_causal_factor,
                       continuous_aw_fbm, continuous_aw_multi, continuous_aw_unit,
                       discrete_aw, discretized_fbm_aw, fbm_cov_matrix,
                       levy_noncanonical_check, trace_bound_optimal_gamma,
                       triangular_integral)
from .kernels import (Brownian, CallableKernel, ConstantVolatility, FractionalOU,
                      GaussianProcessSpec, IntensityMeasure, MolchanGolosov,
                      RiemannLiouville, Tabulated, VolterraKernel, cantor_function,
                      cantor_martingale_spec, covariance, eval_fou_kernel, eval_mg_kernel,
                      eval_rl_kernel, fbm_spec, fou_spec, load_tabulated_csv)
from .mart_approx import MartingaleApproxResult, mart_approx_distance, optimal_volatility
from .oracles import (OracleVerdict, bruteforce_discrete_cross_term, cholesky_marginal_paths,
                      get_golden, load_goldens, mc_formula_check, psd_feasibility_sampler,
                      quadrature_crosscheck, regenerate_goldens)
from .quadrature import QuadratureGrid
from .specfun import gamma_fn, hyp2f1, hyp2f1_series

__all__ = [
    "__version__",
    # special functions
    "gamma_fn", "hyp2f1", "hyp2f1_series",
    # kernels and measures
    "VolterraKernel", "MolchanGolosov", "RiemannLiouville", "FractionalOU", "Brownian",
    "ConstantVolatility", "Tabulated", "CallableKernel", "IntensityMeasure",
    "GaussianProcessSpec", "eval_mg_kernel", "eval_rl_kernel", "eval_fou_kernel",
    "covariance", "cantor_function", "fbm_spec", "fou_spec", "cantor_martingale_spec",
    "load_tabulated_csv",
    # distances
    "CovMatrix", "TriangularFactor", "DistanceReport", "cholesky_causal_factor",
    "discrete_aw", "continuous_aw_unit", "continuous_aw_fbm", "continuous_aw_multi",
    "triangular_integral", "trace_bound_optimal_gamma", "levy_noncanonical_check",
    "fbm_cov_matrix", "discretized_fbm_aw",
    # martingale approximation
    "MartingaleApproxResult", "optimal_volatility", "mart_approx_distance",
    # simulation
    "FsdeSpec", "CouplingControl", "PathEnsemble", "CostEstimate", "AssumptionReport",
    "make_drift", "make_diffusion", "simulate_coupled_noise", "euler_fsde",
    "estimate_coupling_cost", "lamperti_transform", "lamperti_inverse",
    "lamperti_inverse_interpolator",
    "assumption_checker",
    # oracles
    "OracleVerdict", "bruteforce_discrete_cross_term", "mc_formula_check",
    "psd_feasibility_sampler", "quadrature_crosscheck", "cholesky_marginal_paths",
    "load_goldens", "get_golden", "regenerate_goldens",
    # quadrature
    "QuadratureGrid",
    # errors
    "DomainError", "SingularityError", "ConvergenceError", "NotPositiveDefiniteError",
    "MeasureOrderingError", "SimulationError",
]
