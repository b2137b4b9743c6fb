"""Tail-probability verification for continuous-time least-squares regression.

The package simulates regression observations X(t) = a(t, theta) + eps(t) with
strictly sub-Gaussian noise, fits the least-squares estimator on [0, T],
evaluates the closed-form exponential tail envelopes for the normalized
deviation, and tests the empirical exceedance probabilities against them.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundConstants,
    calibrate_prefactor,
    consistency_envelope,
    exponent_rate,
    moderate_deviation_envelope,
    noise_integral_tail,
    stationary_rate,
    tail_envelope,
)
from .estimator import FitOptions, LseResult, Observation, lse_fit, normalized_deviation, objective
from .harness import (
    MgfReport,
    TailEstimate,
    TrialRecord,
    clopper_pearson,
    compare_with_envelope,
    derive_seed,
    estimate_tail,
    mgf_check,
    quadratic_form_check,
    run_trials,
)
from .model import (
    ParameterBox,
    RegressionModel,
    constant_model,
    estimate_equivalence_constants,
    exp_inner_model,
    exp_model_constants,
    linear_model,
    norming_matrix,
    norming_vector,
    phi,
)
from .noise import (
    BasisSpec,
    FilterKernel,
    apply_filter,
    covariance_of_filter,
    f0_sim,
    f0_sup,
    filtered_noise_path,
    ito_nisio_path,
    noise_path,
    sample_driver,
    simulate_increments,
    spectral_density,
    white_noise_path,
)
from .numerics import TimeGrid, default_n_steps, inner_product, integrate

__all__ = [name for name in dir() if not name.startswith("_")]
