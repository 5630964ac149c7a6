"""Statistical machinery for side-channel leakage assessment.

Everything here is implemented from scratch (NumPy for array arithmetic
only); the test-suite cross-checks the distributions and tests against SciPy
when it is installed.
"""

from .bootstrap import (
    BootstrapInterval,
    bootstrap_mean_difference,
    bootstrap_statistic,
)
from .corrections import (
    adjust_p_values,
    benjamini_hochberg,
    bonferroni,
    holm_bonferroni,
    significant_after_correction,
)
from .descriptive import (
    Histogram,
    Summary,
    coefficient_of_variation,
    mean,
    median,
    quantile,
    shared_histogram_range,
    standard_error,
    std,
    variance,
)
from .distributions import Normal, StudentT
from .effect_size import (
    cohens_d,
    glass_delta,
    hedges_g,
    interpret_cohens_d,
    overlap_coefficient,
)
from .equivalence import TostResult, relative_margin, tost_equivalence
from .mannwhitney import MannWhitneyResult, mann_whitney_u, rank_biserial_correlation
from .mutual_information import (
    binned_mutual_information,
    entropy_bits,
    leakage_fraction,
    max_leakage_bits,
)
from .power import (
    detectable_effect_size,
    required_samples_per_group,
    ttest_power,
)
from .special import (
    binomial_coefficient,
    log_beta,
    log_factorial,
    log_gamma,
    regularized_incomplete_beta,
)
from .streaming import (
    SlidingWindowMoments,
    StreamingMoments,
)
from .ttest import (
    TTestResult,
    format_p_value,
    one_sample_t_test,
    student_t_test,
    welch_t_test,
)
from .vectorized import (
    PairwiseTestArrays,
    SufficientStats,
    batch_pairwise_tests,
    pairwise_indices,
    regularized_incomplete_beta_array,
    two_sided_p_values,
)

__all__ = [
    "bootstrap_statistic",
    "bootstrap_mean_difference",
    "BootstrapInterval",
    "ttest_power",
    "required_samples_per_group",
    "max_leakage_bits",
    "leakage_fraction",
    "entropy_bits",
    "detectable_effect_size",
    "binned_mutual_information",
    "Histogram",
    "MannWhitneyResult",
    "Normal",
    "PairwiseTestArrays",
    "SlidingWindowMoments",
    "StreamingMoments",
    "StudentT",
    "SufficientStats",
    "Summary",
    "TTestResult",
    "TostResult",
    "adjust_p_values",
    "batch_pairwise_tests",
    "benjamini_hochberg",
    "binomial_coefficient",
    "bonferroni",
    "coefficient_of_variation",
    "cohens_d",
    "format_p_value",
    "glass_delta",
    "hedges_g",
    "holm_bonferroni",
    "interpret_cohens_d",
    "log_beta",
    "log_factorial",
    "log_gamma",
    "mann_whitney_u",
    "mean",
    "median",
    "one_sample_t_test",
    "overlap_coefficient",
    "pairwise_indices",
    "quantile",
    "rank_biserial_correlation",
    "regularized_incomplete_beta",
    "regularized_incomplete_beta_array",
    "relative_margin",
    "shared_histogram_range",
    "significant_after_correction",
    "standard_error",
    "std",
    "student_t_test",
    "tost_equivalence",
    "two_sided_p_values",
    "variance",
    "welch_t_test",
]
