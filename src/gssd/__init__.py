"""Gaussian-smoothed sliced divergences between empirical distributions.

Estimate sliced Wasserstein, MMD and Sinkhorn divergences where every 1D
slice is convolved with N(0, sigma^2) before comparison, together with the
analytic sample- and projection-complexity envelopes and a reproducible
benchmark CLI.
"""

__version__ = "0.1.0"

from .bounds import (
    PointMass,
    SphericalGaussian,
    TheoryBound,
    gaussian_abs_moment,
    kummer_1f1,
    mc_error_bound,
    sample_bound,
    upsilon_constant,
    xi_constant,
)
from .divergences import (
    DivergenceSpec,
    SinkhornResult,
    bandwidth_mean_pairwise,
    mmd_sq,
    sinkhorn_div,
    smoothed_wasserstein_oracle,
    wasserstein_pp,
)
from .estimator import GssdConfig, GssdEstimate, TwoSigmaReport, estimate, sweep_sigma, two_sigma_check
from .experiments import ExperimentConfig, ResultRow, compare, fit_loglog_slope
from .rng import RngRoot, RngStream
from .slicing import SampleSet, project, sample_direction, smooth_double

__all__ = [
    "__version__",
    "RngRoot",
    "RngStream",
    "SampleSet",
    "sample_direction",
    "project",
    "smooth_double",
    "DivergenceSpec",
    "SinkhornResult",
    "wasserstein_pp",
    "mmd_sq",
    "bandwidth_mean_pairwise",
    "sinkhorn_div",
    "smoothed_wasserstein_oracle",
    "GssdConfig",
    "GssdEstimate",
    "TwoSigmaReport",
    "estimate",
    "sweep_sigma",
    "two_sigma_check",
    "TheoryBound",
    "PointMass",
    "SphericalGaussian",
    "gaussian_abs_moment",
    "kummer_1f1",
    "xi_constant",
    "upsilon_constant",
    "sample_bound",
    "mc_error_bound",
    "ExperimentConfig",
    "ResultRow",
    "compare",
    "fit_loglog_slope",
]
