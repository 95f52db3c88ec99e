"""Activation inference: pre-whitening, amplitude t-tests, adaptive FDR,
and spatial clustering of the rejected voxels.

InferenceConfig declares the stage's settings and defaults once;
activation_map takes it whole, and its steps take plain values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.special import betainc

from .kernels import voxel_blocks
from .linalg import inv_sqrt
from .types import (ActivationMap, Dataset, DegenerateDataError, FitResult,
                    MixtureParams, _intervene)

__all__ = [
    "InferenceConfig",
    "t_statistics",
    "t_sf",
    "FdrResult",
    "fdr_adaptive",
    "cluster_active",
    "activation_map",
]


def _whitening(
    dataset: Dataset, params: MixtureParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(half_between, half_within, mu_w, design_w) of the whitening."""
    d = dataset.dims
    half_within = inv_sqrt(params.within_cov)
    half_between = inv_sqrt(params.between_cov)
    mu_w = np.einsum(
        "k,t->kt", half_between.sum(axis=1), half_within @ params.hrf
    ).reshape(d.n_images)
    x_ep = dataset.design.reshape(d.n_epochs, d.n_times, d.n_covariates)
    design_w = np.einsum(
        "kj,jtq,ts->ksq", half_between, x_ep, half_within, optimize=True
    ).reshape(d.n_images, d.n_covariates)
    return half_between, half_within, mu_w, design_w


def _whiten_series(
    series_ep: np.ndarray, half_between: np.ndarray, half_within: np.ndarray
) -> np.ndarray:
    """(n_voxels, n_epochs, n_times) series to whitened (n_voxels, n_images)."""
    return np.einsum(
        "kj,vjs,st->vkt", half_between, series_ep, half_within, optimize=True
    ).reshape(series_ep.shape[0], -1)


class _AmplitudeTest:
    """The regressors [mu_w, design_w] of the amplitude t-test, factored
    once and applied to any number of whitened voxel series."""

    def __init__(self, mu_w: np.ndarray, design_w: np.ndarray) -> None:
        n = mu_w.shape[0]
        q = design_w.shape[1]
        self.df = n - q - 1
        if self.df < 1:
            raise DegenerateDataError(f"nonpositive degrees of freedom: n={n}, q={q}")
        self.mu_norm2 = float(mu_w @ mu_w)
        if self.mu_norm2 <= 0.0:
            raise DegenerateDataError("whitened shape regressor has zero norm")
        self.z = np.concatenate([mu_w[:, None], design_w], axis=1)
        self.gram = self.z.T @ self.z

    def __call__(self, series_w: np.ndarray) -> tuple[np.ndarray, int]:
        """t-statistics of (n_voxels, n_images) series, and how many of
        them fit exactly."""
        coef = np.linalg.solve(self.gram, self.z.T @ series_w.T)
        resid = series_w.T - self.z @ coef
        rss = np.einsum("nv,nv->v", resid, resid)
        s2 = rss / self.df
        amp = coef[0]
        t = np.where(amp < 0.0, -np.inf, np.inf)
        t[amp == 0.0] = 0.0
        good = s2 > 0.0
        t[good] = amp[good] / np.sqrt(s2[good] / self.mu_norm2)
        return t, int(np.sum(~good))


def t_statistics(dataset: Dataset, params: MixtureParams) -> tuple[np.ndarray, int]:
    """Amplitude t-statistics of every voxel, and their degrees of freedom.

    Series, shape and design are whitened by the fitted Kronecker
    covariance, and amplitude and covariates re-fitted by least squares
    on n - q - 1 degrees of freedom, one block of kernels.BLOCK voxels at
    a time. An exact fit gives +-inf by the amplitude's sign, or 0 for a
    zero amplitude (a flat voxel carries no evidence of a response).
    """
    half_between, half_within, mu_w, design_w = _whitening(dataset, params)
    test = _AmplitudeTest(mu_w, design_w)
    series_ep = dataset.epoch_view()
    t = np.empty(dataset.dims.n_voxels)
    n_exact = 0
    for sl in voxel_blocks(dataset.dims.n_voxels):
        series_w = _whiten_series(series_ep[sl], half_between, half_within)
        t[sl], n_blk = test(series_w)
        n_exact += n_blk
    if n_exact:
        _intervene(
            f"{n_exact} voxel(s) fit exactly; t set to +-inf, "
            "or 0 where the amplitude is 0"
        )
    return t, test.df


def t_sf(t: np.ndarray | float, df: int) -> np.ndarray | float:
    """Upper-tail probability of the t distribution.

    Evaluated through the regularized incomplete beta function in the
    half-argument form that keeps relative accuracy in the far tail:
    for t >= 0, sf = betainc(df/2, 1/2, df / (df + t^2)) / 2.
    """
    if df < 1:
        raise ValueError("df must be at least 1")
    t_arr = np.asarray(t, dtype=np.float64)
    x = df / (df + t_arr**2)
    half_tail = 0.5 * betainc(0.5 * df, 0.5, x)
    out = np.where(t_arr >= 0.0, half_tail, 1.0 - half_tail)
    out = np.where(np.isposinf(t_arr), 0.0, out)
    out = np.where(np.isneginf(t_arr), 1.0, out)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class FdrResult:
    """Outcome of the adaptive false-discovery-rate procedure."""

    reject: np.ndarray
    threshold: float
    m0_hat: int
    n_rejected: int


def fdr_adaptive(pvals: np.ndarray, q: float) -> FdrResult:
    """Adaptive step-up procedure with a slope-based null-count estimate.

    Sorts the p-values, forms the slopes S_k = (1 - p_(k)) / (m + 1 - k),
    and at the first k where the slope decreases estimates the null count
    as min(m, ceil(1/S_k + 1)); if the slopes never decrease the estimate
    is m. The step-up pass then rejects the largest k with
    p_(k) <= k * q / m0_hat, and everything tied below that value.
    """
    pvals = np.asarray(pvals, dtype=np.float64)
    if pvals.ndim != 1:
        raise ValueError("p-values must form a vector")
    if np.any(~np.isfinite(pvals)) or np.any(pvals < 0.0) or np.any(pvals > 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    m = pvals.size
    order = np.sort(pvals)
    ks = np.arange(1, m + 1, dtype=np.float64)
    slopes = (1.0 - order) / (m + 1.0 - ks)
    m0 = m
    if m >= 2:
        drops = np.nonzero(slopes[1:] < slopes[:-1])[0]
        if drops.size:
            k_idx = int(drops[0]) + 1
            s_k = slopes[k_idx]
            if s_k > 0.0:
                m0 = int(min(m, int(np.ceil(1.0 / s_k + 1.0))))
    cutoffs = ks * q / m0
    passing = np.nonzero(order <= cutoffs)[0]
    if passing.size == 0:
        return FdrResult(
            reject=np.zeros(m, dtype=bool), threshold=0.0, m0_hat=m0, n_rejected=0
        )
    threshold = float(order[passing[-1]])
    reject = pvals <= threshold
    return FdrResult(
        reject=reject,
        threshold=threshold,
        m0_hat=m0,
        n_rejected=int(np.sum(reject)),
    )


def cluster_active(coords: np.ndarray, min_size: int) -> np.ndarray:
    """Group voxel coordinates into spatial clusters.

    Groups 26-connected components (all lattice neighbors including
    diagonals) and relabels them 1, 2, ... by descending size;
    components smaller than min_size get label 0.
    """
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError("coords must be (n, 3)")
    if coords.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    origin = coords.min(axis=0)
    extent = coords.max(axis=0) - origin + 1
    grid = np.zeros(tuple(extent), dtype=bool)
    shifted = coords - origin
    grid[tuple(shifted.T)] = True
    labeled, _ = ndimage.label(grid, structure=np.ones((3, 3, 3), dtype=int))
    raw = labeled[tuple(shifted.T)]
    counts = np.bincount(raw)
    counts[0] = 0
    keep = np.nonzero(counts >= max(min_size, 1))[0]
    keep = keep[np.argsort(-counts[keep], kind="stable")]
    relabel = np.zeros(counts.size, dtype=np.int64)
    for new, old in enumerate(keep, start=1):
        relabel[old] = new
    return relabel[raw]


@dataclass(frozen=True)
class InferenceConfig:
    """activation_map's FDR level q, uncorrected screen (None: none) and
    cluster size floor."""

    q: float = 0.05
    screen_alpha: float | None = 1e-3
    min_cluster: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.screen_alpha is not None and not 0.0 < self.screen_alpha < 1.0:
            raise ValueError("screen_alpha must lie in (0, 1)")
        if self.min_cluster < 1:
            raise ValueError("min_cluster must be at least 1")


def activation_map(
    dataset: Dataset, fit: FitResult, config: InferenceConfig = InferenceConfig()
) -> tuple[ActivationMap, FdrResult]:
    """Full inference pass over a fitted dataset.

    Whitens with the fitted covariance factors, tests every voxel's
    amplitude, optionally screens at an uncorrected level before the
    adaptive FDR pass (config.screen_alpha=None adjusts all voxels),
    and clusters the rejected voxels. A screen that nothing passes
    gives an FdrResult with threshold 0.0 and m0_hat 0.
    """
    t, df = t_statistics(dataset, fit.params)
    pvals = np.asarray(t_sf(t, df))
    m = dataset.dims.n_voxels
    if config.screen_alpha is None:
        screened = np.arange(m)
    else:
        screened = np.nonzero(pvals < config.screen_alpha)[0]
    sub = fdr_adaptive(pvals[screened], config.q)
    reject = np.zeros(m, dtype=bool)
    reject[screened[sub.reject]] = True
    fdr = FdrResult(reject=reject.copy(), threshold=sub.threshold,
                    m0_hat=sub.m0_hat, n_rejected=int(np.sum(reject)))
    cluster = np.zeros(m, dtype=np.int64)
    idx = np.nonzero(reject)[0]
    cluster[idx] = cluster_active(dataset.coords[idx], config.min_cluster)
    amap = ActivationMap(t_stat=t, pvals=pvals, reject=reject, cluster=cluster, df=df)
    return amap, fdr
