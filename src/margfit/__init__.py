"""Marginal-adjusted estimation for discrete contingency tables.

Estimate a joint distribution from categorical counts, reweight it so one
marginal matches an externally known distribution, and quantify exactly how
much estimator variance the extra information removes, both in closed form
and by reproducible Monte Carlo.
"""

from .asymptotics import (
    CovarianceMatrix,
    adjusted_marginal_covariance,
    chi2_reduction_bound,
    effective_sample_factor,
    expected_conditional_covariance,
    marginal_covariance,
    multinomial_covariance,
    variance_gap_quadratic,
)
from .estimators import (
    AdjustedTable,
    CloneCounts,
    IpfResult,
    WeightVector,
    adjust_to_known_marginal,
    adjusted_row_marginal,
    cloned_frequencies,
    ipf_column_step,
    ipf_fit,
    weighted_frequencies,
)
from .simulation import (
    CaseStudyResult,
    CaseStudyRow,
    ExperimentConfig,
    ExperimentGrid,
    GridCell,
    MarginalReplicates,
    asymptotic_reduction,
    default_log_cpr_grid,
    exact_reduction,
    replicate_marginal_estimates,
    replicate_weighted_frequencies,
    run_case_study,
    run_experiment,
)
from .tables import (
    CountTable,
    CrossProductRatios,
    JointDistribution,
    MarginalDistribution,
    SampleBatch,
    build_2x2_from_marginals_cpr,
    column_marginal,
    cross_product_ratios,
    empirical_joint,
    row_marginal,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustedTable",
    "CaseStudyResult",
    "CaseStudyRow",
    "CloneCounts",
    "CountTable",
    "CovarianceMatrix",
    "CrossProductRatios",
    "ExperimentConfig",
    "ExperimentGrid",
    "GridCell",
    "IpfResult",
    "JointDistribution",
    "MarginalDistribution",
    "MarginalReplicates",
    "SampleBatch",
    "WeightVector",
    "adjust_to_known_marginal",
    "adjusted_marginal_covariance",
    "adjusted_row_marginal",
    "asymptotic_reduction",
    "build_2x2_from_marginals_cpr",
    "chi2_reduction_bound",
    "cloned_frequencies",
    "column_marginal",
    "cross_product_ratios",
    "default_log_cpr_grid",
    "effective_sample_factor",
    "empirical_joint",
    "exact_reduction",
    "expected_conditional_covariance",
    "ipf_column_step",
    "ipf_fit",
    "marginal_covariance",
    "multinomial_covariance",
    "replicate_marginal_estimates",
    "replicate_weighted_frequencies",
    "row_marginal",
    "run_case_study",
    "run_experiment",
    "sample",
    "variance_gap_quadratic",
    "weighted_frequencies",
]
