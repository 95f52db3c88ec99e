"""Candidate models and information-criterion comparison.

Five nested candidates: (1) canonical shape with isotropic noise and
every voxel responding, (2) the same with the shape estimated, and
mixtures whose responding covariance is (3) between-epoch only,
(4) within-epoch only, or (5) the full Kronecker product. MODEL_SPECS
states each once; a model's ModelStructure names its covariance
("spherical", "between", "within" or "kronecker").

FitConfig and CompareConfig declare the candidate settings and defaults
once. fit_model is every candidate's fit; compare_models takes its
section whole and ranks fits it is given.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .em import FACTOR_STEPS, EmConfig, ModelStructure, em_fit
from .types import Dataset, Dims, FitResult

__all__ = [
    "ModelSpec",
    "MODEL_SPECS",
    "FitConfig",
    "CompareConfig",
    "count_params",
    "aic",
    "bic",
    "fit_model",
    "ComparisonRow",
    "ModelComparison",
    "compare_models",
]


@dataclass(frozen=True)
class ModelSpec:
    """One candidate model; MODEL_SPECS keys it by its id."""

    description: str
    structure: ModelStructure

    @classmethod
    def from_id(cls, model_id: int) -> "ModelSpec":
        try:
            return MODEL_SPECS[model_id]
        except KeyError:
            raise ValueError(f"unknown model id {model_id}") from None


MODEL_SPECS: dict[int, ModelSpec] = {
    1: ModelSpec(
        "canonical shape with isotropic noise; all voxels responding",
        ModelStructure(mixture=False, estimate_hrf=False, covariance="spherical"),
    ),
    2: ModelSpec(
        "estimated shape with isotropic noise; all voxels responding",
        ModelStructure(mixture=False, covariance="spherical"),
    ),
    3: ModelSpec(
        "mixture; between-epoch covariance only",
        ModelStructure(covariance="between"),
    ),
    4: ModelSpec(
        "mixture; within-epoch covariance only",
        ModelStructure(covariance="within"),
    ),
    5: ModelSpec("mixture; full Kronecker covariance", ModelStructure()),
}


@dataclass(frozen=True)
class FitConfig:
    """Which candidate model fit and report fit."""

    model: int = 5

    def __post_init__(self) -> None:
        ModelSpec.from_id(self.model)


@dataclass(frozen=True)
class CompareConfig:
    """Candidate models, each once."""

    models: tuple[int, ...] = (1, 2, 3, 4, 5)

    def __post_init__(self) -> None:
        bad = [m for m in self.models if m not in MODEL_SPECS]
        if bad or not self.models:
            raise ValueError(f"unknown model id(s) {bad}" if bad else "no models")
        if len(set(self.models)) < len(self.models):
            raise ValueError(f"models {list(self.models)} name a model twice")


def count_params(model_id: int, dims: Dims) -> int:
    """Parameter count convention used by the comparison table.

    Every model carries one amplitude and n_covariates coefficients per
    voxel. An estimated shape adds n_times - 1 (unit norm removes one).
    The mixtures additionally count one membership per voxel, the mixing
    proportion and noise variance, and the free triangles of their
    covariance factors.
    """
    spec = ModelSpec.from_id(model_id)
    v = dims.n_voxels
    t = dims.n_times
    e = dims.n_epochs
    total = (1 + dims.n_covariates) * v
    if spec.structure.estimate_hrf:
        total += t - 1
    if spec.structure.mixture:
        total += v + 2
        factors = FACTOR_STEPS[spec.structure.covariance]
        if "between" in factors:
            total += e * (e + 1) // 2
        if "within" in factors:
            total += t * (t + 1) // 2
    return total


def aic(loglik: float, n_params: int) -> float:
    """Akaike information criterion."""
    return 2.0 * n_params - 2.0 * loglik


def bic(loglik: float, n_params: int, n_obs: int) -> float:
    """Bayesian information criterion with an explicit sample size."""
    if n_obs < 1:
        raise ValueError("n_obs must be positive")
    return n_params * float(np.log(n_obs)) - 2.0 * loglik


def fit_model(
    dataset: Dataset, model_id: int, config: EmConfig = EmConfig(),
    diagnostics=None, helper: bool = False,
) -> FitResult:
    """Fit one candidate model; ``diagnostics`` and ``helper`` as in
    em_fit."""
    return em_fit(dataset, config, ModelSpec.from_id(model_id).structure,
                  diagnostics, helper)


@dataclass(frozen=True)
class ComparisonRow:
    model_id: int
    description: str
    n_params: int
    loglik: float
    aic: float
    bic: float


@dataclass(frozen=True)
class ModelComparison:
    rows: list[ComparisonRow]
    n_obs: int
    best_aic: int
    best_bic: int


def compare_models(
    dataset: Dataset,
    fits: Mapping[int, FitResult],
    compare: CompareConfig = CompareConfig(),
) -> ModelComparison:
    """Rank the candidates compare.models by information criteria.

    ``fits`` maps each of those model ids to its fit_model fit on
    ``dataset``; compare_models fits nothing. The BIC sample size is the
    total number of scalar observations, n_voxels * n_images.
    """
    d = dataset.dims
    n_obs = d.n_voxels * d.n_images
    rows = []
    for mid in compare.models:
        ll, p = float(fits[mid].loglik_trace[-1]), count_params(mid, d)
        rows.append(ComparisonRow(
            model_id=mid, description=MODEL_SPECS[mid].description,
            n_params=p, loglik=ll, aic=aic(ll, p), bic=bic(ll, p, n_obs)))
    best_aic = rows[int(np.argmin([r.aic for r in rows]))].model_id
    best_bic = rows[int(np.argmin([r.bic for r in rows]))].model_id
    return ModelComparison(rows=rows, n_obs=n_obs, best_aic=best_aic, best_bic=best_bic)
