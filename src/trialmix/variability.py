"""Single-trial variability analysis.

The fitted within-epoch covariance is decomposed into principal
components; projecting each responding voxel's per-epoch residuals onto
the leading components gives single-trial scores, which are summarized
by an additive two-way layout over epochs and spatial clusters and
turned back into fitted response curves.

PcsConfig declares the stage's settings and defaults once;
analyze_variability takes it whole, and its steps take plain values.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .em import residual_matrices
from .linalg import sym_eigen
from .types import ActivationMap, Dataset, DegenerateDataError, FitResult

__all__ = [
    "PcsConfig",
    "PcaResult",
    "pca_cov",
    "pc_scores",
    "AnovaTable",
    "anova_two_way",
    "pc_effect_curves",
    "PcAnalysis",
    "analyze_variability",
]


@dataclass(frozen=True)
class PcaResult:
    """Eigenstructure of a covariance matrix.

    loadings columns are unit eigenvectors, sign-fixed so each column's
    dominant entry is positive; variance_pct holds the percentage of
    total variance per component.
    """

    eigenvalues: np.ndarray
    loadings: np.ndarray
    variance_pct: np.ndarray


def pca_cov(cov: np.ndarray) -> PcaResult:
    """Principal components of a covariance matrix, largest first."""
    values, vectors = sym_eigen(cov)
    if values[-1] < 0.0 and abs(values[-1]) > 1e-10 * abs(values[0]):
        raise ValueError("covariance has a substantially negative eigenvalue")
    # a C-ordered copy: the loadings' memory order sets the bits of the
    # products that score with them
    vectors = vectors.copy()
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            vectors[:, k] = -col
    total = float(np.sum(values))
    if total <= 0.0:
        raise ValueError("covariance has nonpositive total variance")
    return PcaResult(
        eigenvalues=values,
        loadings=vectors,
        variance_pct=100.0 * values / total,
    )


def pc_scores(
    dataset: Dataset,
    fit: FitResult,
    reject: np.ndarray,
    n_components: int,
) -> tuple[np.ndarray, np.ndarray, PcaResult]:
    """Single-trial component scores for the responding voxels.

    A voxel enters when it is both FDR-rejected and has posterior
    responding probability at least one half. The score of voxel i,
    epoch j, component k is the dot product of component k's loading
    with the voxel's epoch-j residual. Returns (active_idx, scores,
    pca) with scores of shape (n_active, n_epochs, n_components).
    """
    d = dataset.dims
    if n_components < 1 or n_components > d.n_times:
        raise ValueError("n_components must lie in [1, n_times]")
    active = np.asarray(reject, dtype=bool) & (fit.resp >= 0.5)
    idx = np.nonzero(active)[0]
    if idx.size == 0:
        raise DegenerateDataError("no voxels qualify for scoring")
    pca = pca_cov(fit.params.within_cov)
    scored = replace(dataset, dims=replace(d, n_voxels=idx.size),
                     series=dataset.series[idx], coords=dataset.coords[idx])
    params = fit.params.with_updates(amplitude=fit.params.amplitude[idx],
                                     coeffs=fit.params.coeffs[idx])
    resid = residual_matrices(scored, params)
    scores = np.einsum("vjt,tk->vjk", resid, pca.loadings[:, :n_components])
    return idx, scores, pca


@dataclass(frozen=True)
class AnovaTable:
    """Additive two-way decomposition of one component's scores.

    Effects use the sum-to-zero convention; ``fitted`` holds the cell
    means grand_mean + cluster_effect + epoch_effect with clusters on
    the rows. A factor with a single level is dropped (its effects are
    all zero and its standard errors NaN).
    """

    grand_mean: float
    epoch_levels: np.ndarray
    epoch_effects: np.ndarray
    epoch_se: np.ndarray
    cluster_levels: np.ndarray
    cluster_effects: np.ndarray
    cluster_se: np.ndarray
    resid_var: float
    df_resid: int

    @property
    def fitted(self) -> np.ndarray:
        return (
            self.grand_mean
            + self.cluster_effects[:, None]
            + self.epoch_effects[None, :]
        )


def _sum_zero_codes(labels: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Sum-to-zero coding columns for all levels but the last."""
    n_levels = levels.size
    cols = np.zeros((labels.size, n_levels - 1))
    for j, level in enumerate(levels[:-1]):
        cols[labels == level, j] = 1.0
    cols[labels == levels[-1], :] = -1.0
    return cols


def anova_two_way(
    scores: np.ndarray,
    epoch_labels: np.ndarray,
    cluster_labels: np.ndarray,
) -> AnovaTable:
    """Additive two-way fit of scores on epoch and cluster factors.

    Fits grand mean plus sum-to-zero main effects by least squares.
    Standard errors come from the residual variance times the diagonal
    of the inverse normal matrix; the dropped level of each factor gets
    the standard error of minus the sum of the kept effects.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    epoch_labels = np.asarray(epoch_labels).ravel()
    cluster_labels = np.asarray(cluster_labels).ravel()
    if not (scores.size == epoch_labels.size == cluster_labels.size):
        raise ValueError("scores and factor labels must have equal length")
    if scores.size == 0:
        raise DegenerateDataError("no observations for the ANOVA")
    epoch_levels = np.unique(epoch_labels)
    cluster_levels = np.unique(cluster_labels)
    use_epoch = epoch_levels.size >= 2
    use_cluster = cluster_levels.size >= 2
    if not use_epoch and not use_cluster:
        raise DegenerateDataError("both factors have a single level")
    blocks = [np.ones((scores.size, 1))]
    if use_epoch:
        blocks.append(_sum_zero_codes(epoch_labels, epoch_levels))
    if use_cluster:
        blocks.append(_sum_zero_codes(cluster_labels, cluster_levels))
    design = np.concatenate(blocks, axis=1)
    n_params = design.shape[1]
    df_resid = scores.size - n_params
    if df_resid < 1:
        raise DegenerateDataError("no residual degrees of freedom")
    # BLAS splits sums over observations by thread count (a GEMM or GEMV
    # with the observations as inner dimension, or a dot); einsum keeps
    # one order, so the table is bit-identical across thread counts
    gram = np.einsum("na,nb->ab", design, design)
    try:
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(f"singular ANOVA design: {exc}") from exc
    coef = gram_inv @ np.einsum("na,n->a", design, scores)
    resid = scores - design @ coef
    resid_var = float(np.einsum("n,n->", resid, resid) / df_resid)
    cov = resid_var * gram_inv

    def expand(offset: int, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
        kept = coef[offset : offset + n_levels - 1]
        effects = np.concatenate([kept, [-float(np.sum(kept))]])
        block = cov[offset : offset + n_levels - 1, offset : offset + n_levels - 1]
        ses = np.sqrt(np.maximum(np.diag(block), 0.0))
        last_var = float(np.sum(block))
        ses = np.concatenate([ses, [np.sqrt(max(last_var, 0.0))]])
        return effects, ses

    offset = 1
    if use_epoch:
        epoch_effects, epoch_se = expand(offset, epoch_levels.size)
        offset += epoch_levels.size - 1
    else:
        epoch_effects = np.zeros(epoch_levels.size)
        epoch_se = np.full(epoch_levels.size, np.nan)
    if use_cluster:
        cluster_effects, cluster_se = expand(offset, cluster_levels.size)
    else:
        cluster_effects = np.zeros(cluster_levels.size)
        cluster_se = np.full(cluster_levels.size, np.nan)
    return AnovaTable(
        grand_mean=float(coef[0]),
        epoch_levels=epoch_levels,
        epoch_effects=epoch_effects,
        epoch_se=epoch_se,
        cluster_levels=cluster_levels,
        cluster_effects=cluster_effects,
        cluster_se=cluster_se,
        resid_var=resid_var,
        df_resid=df_resid,
    )


def pc_effect_curves(
    hrf: np.ndarray,
    pca: PcaResult,
    n_components: int,
    scale: float,
) -> np.ndarray:
    """Display curves showing each component's effect on the response.

    Returns (n_components, 2, n_times): scale * hrf plus and minus one
    standard deviation (sqrt eigenvalue) of each component.
    """
    base = scale * hrf
    out = np.empty((n_components, 2, hrf.size))
    for k in range(n_components):
        bump = np.sqrt(max(pca.eigenvalues[k], 0.0)) * pca.loadings[:, k]
        out[k, 0] = base + bump
        out[k, 1] = base - bump
    return out


@dataclass(frozen=True)
class PcAnalysis:
    """Everything the variability analysis produces.

    scores has shape (n_active, n_epochs, K) aligned with active_idx;
    cluster_amplitude and fitted (C, E, K) follow cluster_levels' order;
    curves is (C, E, n_times) of fitted response curves.
    """

    within_pca: PcaResult
    active_idx: np.ndarray
    scores: np.ndarray
    tables: list[AnovaTable]
    cluster_levels: np.ndarray
    cluster_amplitude: np.ndarray
    fitted: np.ndarray
    curves: np.ndarray
    effect_curves: np.ndarray


@dataclass(frozen=True)
class PcsConfig:
    """analyze_variability's component count and effect-curve scale."""

    n_components: int = 3
    effect_scale: float = 10.0

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ValueError("n_components must be at least 1")


def analyze_variability(
    dataset: Dataset,
    fit: FitResult,
    amap: ActivationMap,
    config: PcsConfig = PcsConfig(),
) -> PcAnalysis:
    """Run the single-trial pipeline on a fitted dataset.

    Scores are computed for all responding voxels; the ANOVA and the
    fitted curves use the voxels with a cluster label (unclustered
    rejected voxels carry no spatial level).
    """
    n_components = config.n_components
    idx, scores, within_pca = pc_scores(dataset, fit, amap.reject, n_components)
    clusters = amap.cluster[idx]
    keep = clusters > 0
    if not np.any(keep):
        raise DegenerateDataError("no clustered voxels for the ANOVA")
    d = dataset.dims
    epoch_labels = np.tile(np.arange(1, d.n_epochs + 1), int(np.sum(keep)))
    cluster_labels = np.repeat(clusters[keep], d.n_epochs)
    tables = [
        anova_two_way(scores[keep, :, k].ravel(), epoch_labels, cluster_labels)
        for k in range(n_components)
    ]
    cluster_levels = tables[0].cluster_levels
    cells = np.stack([tab.fitted for tab in tables], axis=2)
    amps = np.array(
        [
            float(np.mean(fit.params.amplitude[idx[keep][clusters[keep] == c]]))
            for c in cluster_levels
        ]
    )
    hrf = fit.params.hrf
    gamma = within_pca.loadings[:, :n_components]
    curves = np.empty((cluster_levels.size, d.n_epochs, d.n_times))
    for ci in range(cluster_levels.size):
        for j in range(d.n_epochs):
            curves[ci, j] = amps[ci] * hrf + gamma @ cells[ci, j]
    effects = pc_effect_curves(hrf, within_pca, n_components,
                               config.effect_scale)
    return PcAnalysis(
        within_pca=within_pca,
        active_idx=idx,
        scores=scores,
        tables=tables,
        cluster_levels=cluster_levels,
        cluster_amplitude=amps,
        fitted=cells,
        curves=curves,
        effect_curves=effects,
    )
