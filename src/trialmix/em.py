"""Two-component mixture model and its EM estimator.

Voxel response vectors are epoch-major. A responding voxel is
    y = amplitude * (1_E (x) hrf) + design @ coeffs + u,
    u ~ N(0, between_cov (x) within_cov),
a non-responding voxel is
    y = design @ coeffs + e,   e ~ N(0, noise_var * I).

The E-step computes posterior responding probabilities; the M-step runs
one sweep of conditional maximizers (generalized EM in the ECM sense),
so the observed-data log-likelihood never decreases. Its order is fixed:
the mean block (mixing proportion, amplitudes, coefficients, shape),
then the refresh of the responding residuals, then the variance block
(covariance factors, noise variance). _Residuals is the only code that
builds residuals, and a fit builds them once: em_fit fits every model
structure on one _Residuals owner. A mixture first runs the reduced
(all-responding) phase on that owner, screens it with the amplitude
t-test, and seeds the covariance factors and the noise variance through
the same variance block; the main loop then continues on the same
owner, whose residuals seeding leaves unchanged. A Dataset is valid by
construction, so a fit checks only its own condition, centered design
columns. Identification:
hrf has unit norm with its dominant entry positive, and when both
covariance factors are free the between factor is rescaled to trace
n_epochs with the scale absorbed into the within factor.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from . import kernels
from .inference import t_sf, t_statistics
from .linalg import inv_spd, kron_logdet, regularize_spd
from .types import (
    Dataset,
    DegenerateDataError,
    FitResult,
    Hrf,
    MixtureParams,
    validate_params,
)

__all__ = [
    "EmConfig",
    "ModelStructure",
    "canonical_hrf",
    "update_h",
    "update_covariances",
    "update_sigma2",
    "residual_matrices",
    "em_fit",
]

LOG_2PI = float(np.log(2.0 * np.pi))
EXP_CUTOFF = 700.0
MASS_EPS = 1e-12


@dataclass(frozen=True)
class EmConfig:
    """Tuning constants for the EM engine."""

    tol: float = 1e-4
    max_iter: int = 500
    init_alpha: float = 1e-3
    init_max_iter: int = 50
    noise_floor: float = 1e-12

    def __post_init__(self) -> None:
        if self.tol <= 0.0 or min(self.max_iter, self.init_max_iter) < 1:
            raise ValueError("tol must be positive and iteration caps at least 1")
        if not (0.0 < self.init_alpha < 1.0):
            raise ValueError("init_alpha must lie in (0, 1)")


@dataclass(frozen=True)
class ModelStructure:
    """Which parameter blocks a fit estimates.

    spherical replaces the Kronecker covariance with noise_var * I for
    all-active fits; free_within / free_between freeze a Kronecker
    factor at identity when False; mixture False fixes every voxel as
    responding (no E-step).
    """

    mixture: bool = True
    estimate_hrf: bool = True
    free_within: bool = True
    free_between: bool = True
    spherical: bool = False

    @property
    def rescale_trace(self) -> bool:
        return self.free_within and self.free_between and not self.spherical


def hrf_shape_raw(times: np.ndarray) -> np.ndarray:
    """Unnormalized difference-of-gammas response at given times.

    gamma(shape 6, scale 1) minus one sixth of gamma(shape 16, scale 1),
    evaluated at ``times`` seconds after stimulus onset. Peaks near 5 s
    with an undershoot after 10 s. Zero at nonpositive times.
    """
    times = np.asarray(times, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")

    def gamma_pdf(t: np.ndarray, shape: float) -> np.ndarray:
        out = np.zeros_like(t)
        pos = t > 0.0
        out[pos] = np.exp(
            (shape - 1.0) * np.log(t[pos]) - t[pos] - gammaln(shape)
        )
        return out

    return gamma_pdf(times, 6.0) - gamma_pdf(times, 16.0) / 6.0


def canonical_hrf(times: np.ndarray) -> Hrf:
    """Unit-norm difference-of-gammas shape sampled at given times."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a vector with at least two entries")
    if np.any(times < 0.0):
        raise ValueError("times must be nonnegative")
    return Hrf.from_raw(hrf_shape_raw(times))


def _epoch_design(dataset: Dataset) -> np.ndarray:
    d = dataset.dims
    return dataset.design.reshape(d.n_epochs, d.n_times, d.n_covariates)


class _Residuals:
    """Residuals of the fit's current parameters; the only code that
    builds them.

    ``inactive`` (n_voxels, n_images) is series - coeffs @ design.T and
    ``ssq`` its per-voxel sum of squares; ``active`` (n_voxels, n_epochs,
    n_times) is the responding-model residual. A fit allocates the
    buffers once, the two refreshes rewrite them in place block by block,
    and the fit loop hands the owner to every block that reads them.
    """

    __slots__ = ("dataset", "inactive", "ssq", "active")

    def __init__(self, dataset: Dataset, params: MixtureParams) -> None:
        d = dataset.dims
        self.dataset = dataset
        self.inactive = np.empty(dataset.series.shape)
        self.ssq = np.empty(d.n_voxels)
        self.active = np.empty((d.n_voxels, d.n_epochs, d.n_times))
        self.set_coeffs(params.coeffs)
        self.set_mean(params.amplitude, params.hrf.values)

    def set_coeffs(self, coeffs: np.ndarray) -> None:
        """Refresh ``inactive`` and ``ssq`` for new coefficients;
        ``active`` is stale until set_mean."""
        series = self.dataset.series
        design_t = self.dataset.design.T
        for sl in kernels.voxel_blocks(series.shape[0]):
            block = self.inactive[sl]
            np.matmul(coeffs[sl], design_t, out=block)
            np.subtract(series[sl], block, out=block)
            # the noise sum of squares while the block is in cache
            np.einsum("vn,vn->v", block, block, out=self.ssq[sl])

    def set_mean(self, amplitude: np.ndarray, hrf_values: np.ndarray) -> None:
        """Refresh ``active`` for a new amplitude and shape."""
        flat = self.active.reshape(self.inactive.shape)
        mean = np.tile(hrf_values, self.active.shape[1])
        for sl in kernels.voxel_blocks(flat.shape[0]):
            np.einsum("v,n->vn", amplitude[sl], mean, out=flat[sl])
            np.subtract(self.inactive[sl], flat[sl], out=flat[sl])


def residual_matrices(dataset: Dataset, params: MixtureParams) -> np.ndarray:
    """Responding-model residuals, shape (n_voxels, n_epochs, n_times)."""
    return _Residuals(dataset, params).active


# module-level indirection so tests can swap in a dense-covariance oracle
_active_quads = kernels.quad_forms_kron


def _log_densities(
    params: MixtureParams, resid: _Residuals
) -> tuple[np.ndarray, np.ndarray]:
    """Per-voxel log densities under each component; ``resid`` holds the
    residuals of ``params``."""
    n = resid.inactive.shape[1]
    w_within = inv_spd(params.within_cov)
    w_between = inv_spd(params.between_cov)
    quad_a = _active_quads(resid.active, w_within, w_between)
    logdet = kron_logdet(params.between_cov, params.within_cov)
    log_f1 = -0.5 * (n * LOG_2PI + logdet + quad_a)
    log_f2 = -0.5 * (
        n * (LOG_2PI + np.log(params.noise_var)) + resid.ssq / params.noise_var
    )
    return log_f1, log_f2


def _posterior(p: float, log_f1: np.ndarray, log_f2: np.ndarray) -> np.ndarray:
    """Responding probabilities from the component log densities."""
    if p <= 0.0:
        return np.zeros(log_f1.shape)
    if p >= 1.0:
        return np.ones(log_f1.shape)
    c = np.log1p(-p) - np.log(p) + log_f2 - log_f1
    resp = np.empty(log_f1.shape)
    hi = c > EXP_CUTOFF
    lo = c < -EXP_CUTOFF
    mid = ~(hi | lo)
    resp[hi] = 0.0
    resp[lo] = 1.0
    resp[mid] = 1.0 / (1.0 + np.exp(c[mid]))
    return resp


def _mixture_loglik(p: float, log_f1: np.ndarray, log_f2: np.ndarray) -> float:
    """Observed-data log-likelihood from the component log densities."""
    if p <= 0.0:
        return float(np.sum(log_f2))
    if p >= 1.0:
        return float(np.sum(log_f1))
    return float(np.sum(np.logaddexp(np.log(p) + log_f1, np.log1p(-p) + log_f2)))


def _update_beta_all(
    resid_inactive: np.ndarray,
    hrf_values: np.ndarray,
    w_within: np.ndarray,
    w_between: np.ndarray,
) -> np.ndarray:
    """Amplitudes for every voxel from the residuals of its current coeffs."""
    wt_h = w_within @ hrf_values
    row_wb = w_between.sum(axis=1)
    denom = float(row_wb.sum() * (hrf_values @ wt_h))
    if denom <= 0.0:
        raise DegenerateDataError("amplitude update: nonpositive normalizer")
    return resid_inactive @ np.kron(row_wb, wt_h) / denom


def _solve_pencil(
    rhs: np.ndarray, weight: np.ndarray, g_near: np.ndarray, g_far: np.ndarray
) -> np.ndarray:
    """Rows b_v = rhs_v inv(g_near + weight_v (g_far - g_near)).

    With g_near = L L' and inv(L) (g_far - g_near) inv(L)' = U diag(lam) U',
    each system is L U (I + weight_v diag(lam)) U' L', so
    b = ((rhs @ P) / (1 + weight lam)) @ P' with P = inv(L)' U: one small
    eigenproblem and two tall GEMMs instead of one solve per voxel.
    """
    # np.linalg.inv, not a triangular solve: at q x q the level-3 solve
    # costs more in BLAS thread wake-ups than the arithmetic
    inv_low = np.linalg.inv(np.linalg.cholesky(g_near))
    lam, vecs = np.linalg.eigh(inv_low @ (g_far - g_near) @ inv_low.T)
    proj = inv_low.T @ vecs
    return ((rhs @ proj) / (1.0 + weight[:, None] * lam)) @ proj.T


def _update_b_all(
    dataset: Dataset,
    resp: np.ndarray,
    amplitude: np.ndarray,
    hrf_values: np.ndarray,
    w_within: np.ndarray,
    w_between: np.ndarray,
    noise_var: float,
) -> np.ndarray:
    d = dataset.dims
    if d.n_covariates == 0:
        return np.zeros((d.n_voxels, 0))
    q = d.n_covariates
    # (w_between (x) w_within) X, the design under the responding precision
    wx = np.einsum(
        "jk,kta,ts->jsa", w_between, _epoch_design(dataset), w_within
    ).reshape(d.n_images, q)
    gram_active = dataset.design.T @ wx
    gram_inactive = dataset.design.T @ dataset.design / noise_var
    proj = dataset.series @ np.concatenate([wx, dataset.design], axis=1)
    mean_proj = np.tile(hrf_values, d.n_epochs) @ wx
    rhs_active = proj[:, :q] - amplitude[:, None] * mean_proj[None, :]
    rhs_inactive = proj[:, q:] / noise_var
    rhs = resp[:, None] * rhs_active + (1.0 - resp)[:, None] * rhs_inactive
    # each voxel solves (resp gram_active + (1 - resp) gram_inactive) b = rhs;
    # factoring at the nearer endpoint keeps 1 + weight lam >= 1/2, so it
    # cannot cancel when noise_var and the Kronecker factors differ in scale
    coeffs = np.empty((d.n_voxels, q))
    near_inactive = resp <= 0.5
    for near, weight, g_near, g_far in (
        (near_inactive, resp, gram_inactive, gram_active),
        (~near_inactive, 1.0 - resp, gram_active, gram_inactive),
    ):
        coeffs[near] = _solve_pencil(rhs[near], weight[near], g_near, g_far)
    return coeffs


def _update_h_raw(
    resp: np.ndarray,
    amplitude: np.ndarray,
    w_between: np.ndarray,
    resid_inactive: np.ndarray,
) -> np.ndarray | None:
    """Stationarity solution for the shape, before renormalization.

    ``resid_inactive`` is series - coeffs @ design.T. Returns None when
    the weighted amplitude mass is too small to identify a shape.
    """
    n_epochs = w_between.shape[0]
    diff = resid_inactive.reshape(resid_inactive.shape[0], n_epochs, -1)
    row_wb = w_between.sum(axis=1)
    denom = float(np.sum(resp * amplitude**2) * row_wb.sum())
    if not np.isfinite(denom) or denom <= MASS_EPS:
        return None
    numer = np.einsum("vj,vjt->t", (resp * amplitude)[:, None] * row_wb, diff)
    return numer / denom


def update_h(
    resp: np.ndarray, params: MixtureParams, resid_inactive: np.ndarray
) -> tuple[Hrf, np.ndarray]:
    """Shape update with unit-norm and sign renormalization.

    ``resid_inactive`` is the non-responding residual of params.coeffs.
    Returns the new shape and the amplitudes rescaled so that
    amplitude * shape is unchanged by the renormalization. When the
    weighted amplitude mass is degenerate the previous shape is kept and
    a warning is emitted.
    """
    w_between = inv_spd(params.between_cov)
    raw = _update_h_raw(resp, params.amplitude, w_between, resid_inactive)
    if raw is None or float(np.linalg.norm(raw)) == 0.0:
        warnings.warn(
            "shape update skipped: weighted amplitude mass is degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
        return params.hrf, params.amplitude
    norm = float(np.linalg.norm(raw))
    hrf = Hrf.from_raw(raw)
    amplitude = params.amplitude * norm
    if hrf.flipped:
        amplitude = -amplitude
    return hrf, amplitude


def _update_factor(
    resid: np.ndarray, resp: np.ndarray, other_cov: np.ndarray, scatter,
    axis: int, name: str,
) -> np.ndarray:
    """Conditional maximizer of one Kronecker factor given the other: the
    ``scatter`` of ``resid`` under the other factor's inverse, divided by
    the length of ``axis`` times the responding mass."""
    mass = float(np.sum(resp))
    if mass <= 0.0:
        raise DegenerateDataError(f"{name} update: no responding mass")
    w_other = inv_spd(other_cov)
    s = scatter(resid, w_other, np.asarray(resp, dtype=np.float64))
    s = 0.5 * (s + s.T)
    return regularize_spd(s / (resid.shape[axis] * mass), f"{name} update")


def update_covariances(
    resid: np.ndarray,
    resp: np.ndarray,
    within_cov: np.ndarray,
    between_cov: np.ndarray,
    sweeps: int = 2,
    free_within: bool = True,
    free_between: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Flip-flop update of the covariance factors of the (n_voxels,
    n_epochs, n_times) ``resid``.

    Each sweep maximizes the within factor given the between factor and
    then the between factor given the new within factor; no responding
    mass raises, and a rank-deficient scatter is ridged with a warning.
    The caller applies the trace rescale (only when both are free).
    """
    within = within_cov
    between = between_cov
    for _ in range(sweeps):
        if free_within:
            within = _update_factor(
                resid, resp, between, kernels.scatter_within, 1, "within-cov"
            )
        if free_between:
            between = _update_factor(
                resid, resp, within, kernels.scatter_between, 2, "between-cov"
            )
    return within, between


def update_sigma2(resp: np.ndarray, ssq: np.ndarray, n_images: int) -> float:
    """Noise-variance update from the non-responding side.

    ``ssq`` is each voxel's sum of squared non-responding residuals.
    """
    off = 1.0 - np.asarray(resp, dtype=np.float64)
    mass = float(np.sum(off))
    if mass <= 0.0:
        raise DegenerateDataError("noise update: no non-responding mass")
    return float(np.sum(off * ssq) / (n_images * mass))


def _rescale_trace(
    within: np.ndarray, between: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    n_epochs = between.shape[0]
    scale = float(np.trace(between)) / n_epochs
    if scale <= 0.0:
        raise DegenerateDataError("between-cov trace is not positive")
    return within * scale, between / scale


def _mean_step(
    dataset: Dataset,
    resp: np.ndarray,
    params: MixtureParams,
    resid: _Residuals,
    structure: ModelStructure,
) -> MixtureParams:
    """Mean block: mixing proportion, amplitudes, coefficients, shape.

    ``resid`` holds the residuals of ``params`` on entry. On return its
    non-responding side holds those of the returned coefficients, and
    its responding side is stale until set_mean.
    """
    p = float(np.mean(resp)) if structure.mixture else 1.0
    hrf = params.hrf
    w_within = inv_spd(params.within_cov)
    w_between = inv_spd(params.between_cov)
    amplitude = _update_beta_all(resid.inactive, hrf.values, w_within, w_between)
    coeffs = _update_b_all(
        dataset, resp, amplitude, hrf.values, w_within, w_between, params.noise_var
    )
    # the amplitude update was the old residuals' last reader
    resid.set_coeffs(coeffs)
    if structure.estimate_hrf:
        interim = params.with_updates(amplitude=amplitude, coeffs=coeffs)
        hrf, amplitude = update_h(resp, interim, resid.inactive)
    return params.with_updates(
        active_prob=p, amplitude=amplitude, coeffs=coeffs, hrf=hrf
    )


def _variance_step(
    dataset: Dataset,
    resp: np.ndarray,
    params: MixtureParams,
    resid: _Residuals,
    config: EmConfig,
    structure: ModelStructure,
) -> MixtureParams:
    """Variance block: covariance factors, then noise variance, given
    ``resid`` holding both residuals of ``params``."""
    d = dataset.dims
    within = params.within_cov
    between = params.between_cov
    noise_var = params.noise_var
    if structure.spherical:
        ssq = float(np.einsum("vjt,vjt->", resid.active, resid.active))
        var = max(ssq / (d.n_voxels * d.n_images), config.noise_floor)
        within = var * np.eye(d.n_times)
        between = np.eye(d.n_epochs)
        noise_var = var
    else:
        mass = float(np.sum(resp))
        if mass > max(MASS_EPS * d.n_voxels, MASS_EPS):
            within, between = update_covariances(
                resid.active, resp, within, between,
                free_within=structure.free_within,
                free_between=structure.free_between,
            )
            if structure.rescale_trace:
                within, between = _rescale_trace(within, between)
        else:
            warnings.warn(
                "covariance update skipped: responding mass is negligible",
                RuntimeWarning,
                stacklevel=2,
            )
        if structure.mixture:
            off_mass = float(np.sum(1.0 - resp))
            if off_mass > max(MASS_EPS * d.n_voxels, MASS_EPS):
                noise_var = max(
                    update_sigma2(resp, resid.ssq, d.n_images),
                    config.noise_floor,
                )
            else:
                warnings.warn(
                    "noise update skipped: non-responding mass is negligible",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return params.with_updates(
        within_cov=within, between_cov=between, noise_var=noise_var
    )


def _iterate(
    dataset: Dataset,
    params: MixtureParams,
    resid: _Residuals,
    config: EmConfig,
    structure: ModelStructure,
    diagnostics,
) -> FitResult:
    """The EM loop from ``params``, on ``resid`` holding their residuals;
    on return it holds those of the result's parameters. A fit whose
    log-likelihood decreases raises DegenerateDataError."""
    if __debug__:
        validate_params(
            params, dataset.dims, trace_convention=structure.rescale_trace
        )
    # one density evaluation per parameter value: it gives the trace
    # entry and the next (or final) responsibilities
    log_f = _log_densities(params, resid)
    trace = [_mixture_loglik(params.active_prob, *log_f)]
    converged = False
    iterations = 0
    resp = np.ones(dataset.dims.n_voxels)
    for it in range(1, config.max_iter + 1):
        if structure.mixture:
            resp = _posterior(params.active_prob, *log_f)
        old_vec = params.global_vector()
        params = _mean_step(dataset, resp, params, resid, structure)
        resid.set_mean(params.amplitude, params.hrf.values)
        params = _variance_step(dataset, resp, params, resid, config, structure)
        if __debug__:
            validate_params(
                params, dataset.dims, trace_convention=structure.rescale_trace
            )
        log_f = _log_densities(params, resid)
        trace.append(_mixture_loglik(params.active_prob, *log_f))
        iterations = it
        delta = float(
            np.linalg.norm(params.global_vector() - old_vec)
            / max(1.0, np.linalg.norm(old_vec))
        )
        if diagnostics is not None:
            record = {"iteration": it, "loglik": trace[-1],
                      "param_change": delta, "mix_prob": params.active_prob}
            diagnostics.write(json.dumps(record) + "\n")
        if delta < config.tol:
            converged = True
            break
    if structure.mixture:
        resp = _posterior(params.active_prob, *log_f)
    result = FitResult(
        params=params,
        resp=resp,
        loglik_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
    )
    try:
        result.validate()
    except ValueError as e:
        # a likelihood decrease is the data failing the model's ascent
        raise DegenerateDataError(f"fit: {e}") from None
    return result


def _start(dataset: Dataset) -> tuple[MixtureParams, _Residuals]:
    """Every fit's start values and its one residual owner, which holds
    their residuals. Design columns that are not mean-centered raise
    DegenerateDataError."""
    d = dataset.dims
    if np.any(np.abs(dataset.design.sum(axis=0)) > 1e-9 * d.n_images):
        raise DegenerateDataError(
            "design columns are not mean-centered; run trialmix preprocess"
        )
    # mid-interval post-stimulus convention; the EM refines the shape
    times = dataset.tr * (np.arange(d.n_times) + 0.5)
    params = MixtureParams(
        active_prob=1.0,
        amplitude=np.zeros(d.n_voxels),
        coeffs=np.zeros((d.n_voxels, d.n_covariates)),
        hrf=canonical_hrf(times),
        within_cov=np.eye(d.n_times),
        between_cov=np.eye(d.n_epochs),
        noise_var=max(float(np.var(dataset.series)), 1e-8),
    )
    return params, _Residuals(dataset, params)


def _seed(
    dataset: Dataset,
    params: MixtureParams,
    resid: _Residuals,
    config: EmConfig,
    structure: ModelStructure,
) -> MixtureParams:
    """Initialization for the mixture EM: the start values of em_fit's
    main loop for a mixture ``structure``. ``resid`` holds the residuals
    of ``params`` on entry and of the returned seed on exit.

    Fits the all-responding reduced model, classifies voxels with the
    pre-whitened amplitude t-test at config.init_alpha (uncorrected),
    and seeds the covariance factors and the noise variance by running
    the variance block on the reduced fit with the screen's 0/1
    responsibilities. Falls back to the top percentile by t-statistic if
    nothing passes the screen, and to the pooled mean squared residual
    for the noise variance if everything does. A reduced fit whose
    log-likelihood decreases raises DegenerateDataError.
    """
    d = dataset.dims
    params = _iterate(
        dataset, params, resid,
        replace(config, max_iter=config.init_max_iter),
        replace(structure, mixture=False),
        None,
    ).params
    t_stats, df = t_statistics(dataset, params)
    pvals = t_sf(t_stats, df)
    active = pvals < config.init_alpha
    if not np.any(active):
        n_top = max(1, int(np.ceil(0.01 * d.n_voxels)))
        order = np.argsort(t_stats)[::-1]
        active = np.zeros(d.n_voxels, dtype=bool)
        active[order[:n_top]] = True
        warnings.warn(
            "initial screen found no responding voxels; seeding from the "
            f"top {n_top} t-statistics",
            RuntimeWarning,
            stacklevel=2,
        )
    seed = params.with_updates(
        active_prob=float(np.clip(np.mean(active), 0.01, 0.99))
    )
    if np.all(active):
        warnings.warn(
            "no voxels classified non-responding; seeding noise variance "
            "from the pooled residuals",
            RuntimeWarning,
            stacklevel=2,
        )
        noise = float(np.mean(resid.inactive**2))
        seed = seed.with_updates(noise_var=max(noise, config.noise_floor))
        # no non-responding mass is left for the variance block's noise update
        structure = replace(structure, mixture=False)
    return _variance_step(
        dataset, active.astype(np.float64), seed, resid, config, structure
    )


def em_fit(
    dataset: Dataset,
    config: EmConfig = EmConfig(),
    structure: ModelStructure = ModelStructure(),
    diagnostics=None,
) -> FitResult:
    """Fit ``structure`` by generalized EM; the one fit entry point.

    A mixture starts from _seed's values, any other structure (every
    voxel responding, no E-step) from the canonical shape with identity
    covariances. Convergence is declared when the relative Euclidean
    change of the global parameters (mixing proportion, shape,
    covariance factors, noise variance) drops below config.tol, or the
    fit stops after config.max_iter iterations. ``diagnostics``, when
    given, receives one JSON line per iteration. Design columns that are
    not mean-centered, and a fit whose log-likelihood decreases, raise
    DegenerateDataError.
    """
    params, resid = _start(dataset)
    if structure.mixture:
        params = _seed(dataset, params, resid, config, structure)
    return _iterate(dataset, params, resid, config, structure, diagnostics)
