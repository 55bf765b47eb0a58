"""Statistical verification harness: oracles, GOF tests, calibration.

The paper's claims are quantitative, so shape/invariant tests alone
cannot catch a mis-calibrated noise scale or a wrong budget split.  This
subpackage supplies the correctness layer:

* :mod:`repro.verify.oracles` — closed-form per-bin and range-query
  error formulas for every publisher (``oracle_from_result`` builds the
  oracle of one publish through the ``ORACLE_BUILDERS`` table);
* :mod:`repro.verify.stats` — KS / chi-square goodness-of-fit tests for
  the mechanism distributions, with Bonferroni control;
* :mod:`repro.verify.streams` — deterministic named RNG streams so any
  statistical failure reproduces exactly;
* :mod:`repro.verify.calibration` — many-trial empirical-vs-analytic
  comparison helpers with ``z``-sigma confidence bands;
* :mod:`repro.verify.linearity` — exact covariance propagation through
  linear estimators (Boost consistency, wavelets, bucket trees);
* :mod:`repro.verify.special` — numpy-only incomplete-gamma /
  Kolmogorov tail probabilities backing the tests.

See ``docs/verification.md`` for formula provenance.
"""

from repro.verify.calibration import (
    CalibrationReport,
    check_mean,
    check_upper_bound,
    run_calibration_trials,
    run_conditional_trials,
)
from repro.verify.linearity import (
    linear_operator_matrix,
    output_covariance,
)
from repro.verify.oracles import (
    ORACLE_BUILDERS,
    ErrorOracle,
    ahp_oracle,
    boost_oracle,
    dawa_oracle,
    dwork_oracle,
    fourier_oracle,
    identity2d_oracle,
    mwem_full_range_oracle,
    noisefirst_oracle,
    oracle_from_result,
    privelet_oracle,
    structurefirst_oracle,
    uniform_flat_oracle,
    uniform_stream_oracle,
    uniformgrid_oracle,
)
from repro.verify.special import (
    chi2_sf,
    gammainc_lower,
    gammainc_upper,
    kolmogorov_sf,
    normal_sf,
)
from repro.verify.stats import (
    GofResult,
    bonferroni_alpha,
    chi_square_from_samples,
    chi_square_test,
    ks_test,
    laplace_cdf,
    merge_sparse_cells,
)
from repro.verify.streams import StreamAllocator

__all__ = [
    # oracles
    "ErrorOracle",
    "ORACLE_BUILDERS",
    "oracle_from_result",
    "dwork_oracle",
    "uniform_flat_oracle",
    "boost_oracle",
    "privelet_oracle",
    "noisefirst_oracle",
    "structurefirst_oracle",
    "ahp_oracle",
    "dawa_oracle",
    "fourier_oracle",
    "mwem_full_range_oracle",
    "identity2d_oracle",
    "uniformgrid_oracle",
    "uniform_stream_oracle",
    # calibration
    "CalibrationReport",
    "run_calibration_trials",
    "run_conditional_trials",
    "check_mean",
    "check_upper_bound",
    # stats
    "GofResult",
    "ks_test",
    "chi_square_test",
    "chi_square_from_samples",
    "laplace_cdf",
    "bonferroni_alpha",
    "merge_sparse_cells",
    # streams
    "StreamAllocator",
    # linearity
    "linear_operator_matrix",
    "output_covariance",
    # special functions
    "chi2_sf",
    "kolmogorov_sf",
    "gammainc_lower",
    "gammainc_upper",
    "normal_sf",
]
