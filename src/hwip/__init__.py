"""Hölder-norm statistics of partial-sum processes.

Exact vertex-maximum kernels for polygonal paths, stationary-process models
with closed-form conditional-expectation oracles, weak-L^p and dyadic-sum
norm estimators, and Monte Carlo certification experiments for the
associated maximal inequalities and (non-)tightness behavior.
"""

from .config import ConfigError
from .holder import (
    PolygonalPath,
    dyadic_lower,
    dyadic_upper,
    holder_max_exact,
    holder_max_windowed,
    holder_norm_of_path,
)
from .models import (
    ProcessModel,
    RenewalChainSpec,
    apply_PT,
    build_renewal_chain,
    build_u_sequence,
    coboundary_model,
    conditional_sum_oracle,
    gaussian_contrast_model,
    iid_model,
    linear_process_model,
    mds_model,
    renewal_model,
    renewal_variance_constant,
    sample_model,
    sample_renewal_path,
)
from .norms import (
    counterexample_weights,
    empirical_weak_lp,
    mw_norm,
    mw_series_diagnostic,
    weak_lp_max_bound_check,
)
from .experiments import (
    CertificationReport,
    certify_dyadic_lemma,
    certify_martingale_inequality,
    certify_mw_inequality,
    fdd_convergence_test,
    holder_norm_distribution_ks,
    holder_tightness_diagnostic,
    nontightness_experiment,
    renewal_identity_check,
    wilson_interval,
)
from .rng import DEFAULT_SEED, substream

__version__ = "0.1.0"
