"""Two-component mixture modeling of epoch-structured voxel time series.

Fits, per voxel, a responding model (scaled response shape plus
Kronecker-structured noise across epochs and within-epoch samples) and
a non-responding model (white noise), mixed with a shared responding
probability, by generalized EM. On top of the fit: pre-whitened
amplitude tests with adaptive FDR control and spatial clustering,
principal-component analysis of trial-to-trial response variability,
and information-criterion comparison of nested model variants.
"""
from .em import (
    EmConfig,
    ModelStructure,
    canonical_hrf,
    em_fit,
)
from .inference import (
    FdrResult,
    activation_map,
    cluster_active,
    fdr_adaptive,
    t_sf,
)
from .io import (
    BundleFormatError,
    read_dataset,
    read_params_json,
    read_truth,
    write_dataset,
    write_map_pgm,
    write_params_json,
)
from .modelsel import (
    MODEL_SPECS,
    ModelComparison,
    aic,
    bic,
    compare_models,
    count_params,
    fit_model,
)
from .preprocess import (
    PreprocConfig,
    apply_mask,
    dct_basis,
    dct_highpass,
    gaussian_smooth_3d,
    preprocess_dataset,
    trial_time_shift,
)
from .simulate import SimConfig, ar1_cov, default_scenario, generate, simulate_dataset
from .types import (
    ActivationMap,
    Dataset,
    DegenerateDataError,
    Dims,
    FitResult,
    Hrf,
    MixtureParams,
    SimTruth,
)
from .variability import (
    AnovaTable,
    PcAnalysis,
    PcaResult,
    analyze_variability,
    anova_two_way,
    fitted_response,
    pc_effect_curves,
    pc_scores,
    pca_cov,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationMap",
    "AnovaTable",
    "BundleFormatError",
    "Dataset",
    "DegenerateDataError",
    "Dims",
    "EmConfig",
    "FdrResult",
    "FitResult",
    "Hrf",
    "MODEL_SPECS",
    "MixtureParams",
    "ModelComparison",
    "ModelStructure",
    "PcAnalysis",
    "PcaResult",
    "PreprocConfig",
    "SimConfig",
    "SimTruth",
    "activation_map",
    "aic",
    "analyze_variability",
    "anova_two_way",
    "apply_mask",
    "ar1_cov",
    "bic",
    "canonical_hrf",
    "cluster_active",
    "compare_models",
    "count_params",
    "dct_basis",
    "dct_highpass",
    "default_scenario",
    "em_fit",
    "fdr_adaptive",
    "fit_model",
    "fitted_response",
    "gaussian_smooth_3d",
    "generate",
    "pc_effect_curves",
    "pc_scores",
    "pca_cov",
    "preprocess_dataset",
    "read_dataset",
    "read_params_json",
    "read_truth",
    "simulate_dataset",
    "t_sf",
    "trial_time_shift",
    "write_dataset",
    "write_map_pgm",
    "write_params_json",
    "__version__",
]
