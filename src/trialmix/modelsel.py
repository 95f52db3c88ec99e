"""Candidate models and information-criterion comparison.

Five nested candidates: (1) canonical shape with isotropic noise and
every voxel responding, (2) the same with the shape estimated, and
mixtures whose responding covariance is (3) between-epoch only,
(4) within-epoch only, or (5) the full Kronecker product.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .em import EmConfig, ModelStructure, em_fit
from .types import Dataset, Dims, FitResult

__all__ = [
    "ModelSpec",
    "MODEL_SPECS",
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
    """One candidate model."""

    model_id: int
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
        1,
        "canonical shape with isotropic noise; all voxels responding",
        ModelStructure(mixture=False, estimate_hrf=False, spherical=True),
    ),
    2: ModelSpec(
        2,
        "estimated shape with isotropic noise; all voxels responding",
        ModelStructure(mixture=False, estimate_hrf=True, spherical=True),
    ),
    3: ModelSpec(
        3,
        "mixture; between-epoch covariance only",
        ModelStructure(mixture=True, free_within=False),
    ),
    4: ModelSpec(
        4,
        "mixture; within-epoch covariance only",
        ModelStructure(mixture=True, free_between=False),
    ),
    5: ModelSpec(
        5,
        "mixture; full Kronecker covariance",
        ModelStructure(mixture=True),
    ),
}


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
        if spec.structure.free_between:
            total += e * (e + 1) // 2
        if spec.structure.free_within:
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
    dataset: Dataset, model_id: int, config: EmConfig = EmConfig()
) -> FitResult:
    """Fit one candidate model."""
    return em_fit(dataset, config, ModelSpec.from_id(model_id).structure)


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
    config: EmConfig = EmConfig(),
    model_ids: tuple[int, ...] = (1, 2, 3, 4, 5),
    n_obs: int | None = None,
    fits: Mapping[int, FitResult] | None = None,
) -> ModelComparison:
    """Fit the candidates and rank them by information criteria.

    The default sample size for the BIC is the total number of scalar
    observations, n_voxels * n_images. ``fits`` maps model ids to fits
    the caller already made with fit_model(dataset, id, config); those
    models are not fitted again.
    """
    if not model_ids:
        raise ValueError("model_ids must not be empty")
    d = dataset.dims
    if n_obs is None:
        n_obs = d.n_voxels * d.n_images
    rows = []
    for mid in model_ids:
        spec = ModelSpec.from_id(mid)
        fit = fits[mid] if fits and mid in fits else fit_model(dataset, mid, config)
        ll = float(fit.loglik_trace[-1])
        p = count_params(mid, d)
        rows.append(
            ComparisonRow(
                model_id=mid,
                description=spec.description,
                n_params=p,
                loglik=ll,
                aic=aic(ll, p),
                bic=bic(ll, p, n_obs),
            )
        )
    best_aic = rows[int(np.argmin([r.aic for r in rows]))].model_id
    best_bic = rows[int(np.argmin([r.bic for r in rows]))].model_id
    return ModelComparison(rows=rows, n_obs=n_obs, best_aic=best_aic, best_bic=best_bic)
