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
then the variance block (the conditional steps of the structure's
responding covariance, each once, then the noise variance). _Residuals
is the only code that builds residuals, and em_fit fits every model
structure on one _Residuals owner, whose one full-size buffer is the
responding residual; every step leaves it holding the residuals of the
parameters it returns. The mean block makes one projection of the series
onto [PZ, design], where Z is the responding component's
generalized-least-squares design and P its precision
(inference._gls_design, shared with the amplitude t-test); that gives
every voxel's amplitude and both sides of its coefficient step. It then
makes one refresh of the non-responding residual.
That residual has no buffer: the refresh rebuilds it from the series one
voxel block at a time, bit for bit, sums the shape step's numerator
from it and leaves it in the responding buffer, where the responding
mean is subtracted in place. Every pass over voxels walks
kernels.voxel_blocks, fixed 256-voxel blocks in a fixed order, and adds
any sum over voxels in block order: those blocks define the fit's bits,
which are the same at any BLAS thread count. A fit with a helper
(em_fit's ``helper``) splits each such pass with kernels.split: the two
refreshes, the projection and the three kernels run their first half of
the blocks in the fit's process and the rest in one forked helper, which
writes its rows of ``active``, ``ssq`` and the pass outputs into shared
memory and sends back its partial sums, one per block, for the caller to
add after its own in block order; so the bits are those of the fit
without a helper. The spherical variance step's one whole-array einsum
over ``active``, the amplitude t-test of the seeding and every step on
per-voxel vectors stay in the caller. No BLAS call covers more
than one block of rows, the coefficient step's gathered rows included:
OpenBLAS splits a larger product over its threads, and the thread it
wakes spins for about 0.1 s after the call, so a fit would burn a second
core for no gain. A mixture first runs the reduced (all-responding)
phase on that owner, screens it with the amplitude t-test, and seeds the
covariance factors and the noise variance through the same variance
block; the main loop then continues on the same owner. A Dataset is
valid by construction, so a fit checks only its own conditions on the
design: its columns are mean-centered, and none is zero or a linear
combination of the columns before it. Every floor is relative to the
data (the noise variance's, VAR_FLOOR of the series variance; a shape
update's, MASS_EPS of the amplitudes' mass), and so is the centering
check, but the stopping rule is not unit-free: its parameter change
mixes unit-free blocks with blocks in data units squared, so scaled
series can stop after a different number of iterations (6, 7 and 8 at
x1e-3, x1 and x1e3 on one 2000-voxel bundle). Identification:
hrf has unit norm with its dominant entry positive, and for the
"kronecker" covariance the between factor is rescaled to trace
n_epochs with the scale absorbed into the within factor.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .inference import _gls_design, t_sf, t_statistics
from .linalg import inv_spd, kron_logdet, regularize_spd
from .types import (
    Dataset,
    DegenerateDataError,
    FitResult,
    MixtureParams,
    _intervene,
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
VAR_FLOOR = 1e-12  # the noise variance's floor per unit series variance
INIT_ALPHA = 1e-3  # level of the seeding's uncorrected amplitude screen
INIT_MAX_ITER = 50  # iteration cap of the seeding's reduced phase


@dataclass(frozen=True)
class EmConfig:
    """The EM engine's stopping rule: tolerance and iteration cap."""

    tol: float = 1e-4
    max_iter: int = 500

    def __post_init__(self) -> None:
        if self.tol <= 0.0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter at least 1")


# The conditional steps of each factored responding covariance, in
# order: both factors free alternate twice per iteration. One step is
# exact for a single free factor, whose partner stays at the identity: a
# second step would repeat the first from the same inputs.
FACTOR_STEPS = {
    "kronecker": ("within", "between", "within", "between"),
    "within": ("within",),
    "between": ("between",),
}


@dataclass(frozen=True)
class ModelStructure:
    """Which parameter blocks a fit estimates.

    ``covariance`` names the responding covariance: "kronecker" (both
    factors free), "within" or "between" (only that factor free, the
    other fixed at the identity), or "spherical" (noise_var * I, for
    all-responding fits only). mixture False fixes every voxel as
    responding (no E-step).
    """

    mixture: bool = True
    estimate_hrf: bool = True
    covariance: str = "kronecker"

    def __post_init__(self) -> None:
        if self.covariance not in (*FACTOR_STEPS, "spherical"):
            raise ValueError(f"unknown covariance {self.covariance!r}")
        if self.mixture and self.covariance == "spherical":
            raise ValueError("a mixture's responding covariance cannot be spherical")

    @property
    def rescale_trace(self) -> bool:
        return self.covariance == "kronecker"


# log Gamma(6) and log Gamma(16) as scipy.special.gammaln gives them in
# float64; math.lgamma differs from both in the last bit
LOG_GAMMA_6 = 4.787491742782046
LOG_GAMMA_16 = 27.899271383840894


def hrf_shape_raw(times: np.ndarray) -> np.ndarray:
    """Unnormalized difference-of-gammas response at given times.

    gamma(shape 6, scale 1) minus one sixth of gamma(shape 16, scale 1),
    evaluated at ``times`` seconds after stimulus onset. Peaks near 5 s
    with an undershoot after 10 s. Zero at nonpositive times. The
    log-gamma normalizers are scipy's float64 values of gammaln(6) and
    gammaln(16), written as literals so that the shape needs no scipy.
    """
    times = np.asarray(times, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")

    def gamma_pdf(t: np.ndarray, shape: float, log_gamma: float) -> np.ndarray:
        out = np.zeros_like(t)
        pos = t > 0.0
        out[pos] = np.exp((shape - 1.0) * np.log(t[pos]) - t[pos] - log_gamma)
        return out

    return (gamma_pdf(times, 6.0, LOG_GAMMA_6)
            - gamma_pdf(times, 16.0, LOG_GAMMA_16) / 6.0)


def _unit_shape(raw: np.ndarray) -> tuple[np.ndarray, bool]:
    """``raw`` scaled to unit norm with its entry of largest magnitude
    positive, and whether that took a sign flip."""
    vec = np.asarray(raw, dtype=np.float64)
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0 or not np.isfinite(nrm):
        raise DegenerateDataError("response shape must be nonzero and finite")
    vec = vec / nrm
    flip = bool(vec[int(np.argmax(np.abs(vec)))] < 0.0)
    return (-vec if flip else vec), flip


def canonical_hrf(times: np.ndarray) -> np.ndarray:
    """Unit-norm difference-of-gammas shape sampled at given times."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a vector with at least two entries")
    if np.any(times < 0.0):
        raise ValueError("times must be nonnegative")
    return _unit_shape(hrf_shape_raw(times))[0]


class _Residuals:
    """Residuals of the fit's current parameters; the only code that
    builds them.

    ``active`` (n_voxels, n_epochs, n_times) is the responding-model
    residual and ``ssq`` each voxel's sum of squared non-responding
    residuals, series - coeffs @ design.T for the owner's ``coeffs``. The
    non-responding residual has no buffer of its own; the mean block
    refreshes it once: set_coeffs rebuilds it from the series one
    kernels.BLOCK of voxels at a time, bit for bit, and leaves it in
    ``active``, and the set_mean that must follow subtracts the
    responding mean there in place. A fit allocates the buffers once,
    from its ``lanes`` (shared with the fit's helper, if it has one), the
    two refreshes rewrite them block by block, each one kernels.split
    pass, and the fit loop hands the owner to every block that reads
    them.
    """

    __slots__ = ("dataset", "coeffs", "ssq", "active", "lanes")

    def __init__(self, dataset: Dataset, params: MixtureParams,
                 lanes: kernels.Lanes | None = None) -> None:
        d = dataset.dims
        self.dataset = dataset
        self.lanes = kernels.Lanes(d.n_voxels) if lanes is None else lanes
        self.lanes.inherit(dataset.series)
        self.ssq = self.lanes.empty(d.n_voxels)
        self.active = self.lanes.empty((d.n_voxels, d.n_epochs, d.n_times))
        self.set_coeffs(params.coeffs)
        self.set_mean(params.amplitude, params.hrf)

    def set_coeffs(
        self, coeffs: np.ndarray, voxel_weights: np.ndarray | None = None,
        epoch_weights: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Take new coefficients, refresh ``ssq`` and leave their
        non-responding residual in ``active``, which is stale until
        set_mean.

        With (n_voxels,) ``voxel_weights`` u and (n_epochs,)
        ``epoch_weights`` e, also returns the (n_times,) sum over voxels
        v and epochs j of u_v e_j r_vj, r_vj the new residual's epoch j
        of voxel v: one partial sum per block, added in block order.
        """
        self.coeffs = coeffs
        series = self.dataset.series
        n_t = self.dataset.dims.n_times
        return kernels.split(
            _refresh_rows, None if voxel_weights is None else np.zeros(n_t),
            (self.active.reshape(series.shape), self.ssq, series, coeffs,
             voxel_weights),
            self.dataset.design.T, epoch_weights)

    def set_mean(self, amplitude: np.ndarray, hrf: np.ndarray) -> None:
        """Refresh ``active`` for a new amplitude and shape; it must
        follow set_coeffs, whose residual it turns into the responding
        one."""
        kernels.split(_set_mean_rows, None,
                      (self.active.reshape(self.dataset.series.shape),
                       amplitude),
                      np.tile(hrf, self.active.shape[1]))


def _refresh_rows(flat, ssq, series, coeffs, voxel_weights, design_t,
                  epoch_weights):
    """_Residuals.set_coeffs over one lane's rows; yields the shape
    numerator's partial of each block when ``voxel_weights`` is given."""
    for sl in kernels.voxel_blocks(series.shape[0]):
        block = flat[sl]
        np.matmul(coeffs[sl], design_t, out=block)
        np.subtract(series[sl], block, out=block)
        # the noise sum of squares while the block is in cache
        np.einsum("vn,vn->v", block, block, out=ssq[sl])
        if voxel_weights is not None:
            weights = voxel_weights[sl, None] * epoch_weights
            yield np.einsum("n,nt->t", weights.ravel(),
                            block.reshape(weights.size, -1))


def _set_mean_rows(flat, amplitude, mean) -> None:
    """_Residuals.set_mean over one lane's rows."""
    # scratch for one block of voxels
    rows = np.empty((min(kernels.BLOCK, flat.shape[0]), flat.shape[1]))
    for sl in kernels.voxel_blocks(flat.shape[0]):
        block = rows[:flat[sl].shape[0]]
        np.einsum("v,n->vn", amplitude[sl], mean, out=block)
        np.subtract(flat[sl], block, out=flat[sl])


def residual_matrices(dataset: Dataset, params: MixtureParams) -> np.ndarray:
    """Responding-model residuals, shape (n_voxels, n_epochs, n_times)."""
    return _Residuals(dataset, params).active


def _log_densities(
    params: MixtureParams, resid: _Residuals
) -> tuple[np.ndarray, np.ndarray]:
    """Per-voxel log densities under each component; ``resid`` holds the
    residuals of ``params``."""
    n = resid.dataset.dims.n_images
    w_within = inv_spd(params.within_cov)
    w_between = inv_spd(params.between_cov)
    quad_a = kernels.quad_forms_kron(resid.active, w_within, w_between)
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


def _solve_pencil(
    rhs: np.ndarray, weight: np.ndarray, g_near: np.ndarray, g_far: np.ndarray
) -> np.ndarray:
    """Rows b_v = rhs_v inv(g_near + weight_v (g_far - g_near)).

    With g_near = L L' and inv(L) (g_far - g_near) inv(L)' = U diag(lam) U',
    each system is L U (I + weight_v diag(lam)) U' L', so
    b = ((rhs @ P) / (1 + weight lam)) @ P' with P = inv(L)' U: one small
    eigenproblem and two GEMMs per block of rows instead of one solve per
    voxel.
    """
    # np.linalg.inv, not a triangular solve: at q x q the level-3 solve
    # costs more in BLAS thread wake-ups than the arithmetic
    inv_low = np.linalg.inv(np.linalg.cholesky(g_near))
    lam, vecs = np.linalg.eigh(inv_low @ (g_far - g_near) @ inv_low.T)
    proj = inv_low.T @ vecs
    # rhs holds the gathered rows of every voxel near one endpoint; a
    # product over more than about 14,600 of them (q = 6) would wake a
    # second OpenBLAS thread, so the products take one block at a time
    out = np.empty(rhs.shape)
    for sl in kernels.voxel_blocks(rhs.shape[0]):
        out[sl] = ((rhs[sl] @ proj) / (1.0 + weight[sl, None] * lam)) @ proj.T
    return out


def _projection(series: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """series @ basis one voxel block at a time: one product over all
    voxels made a V=50,000 fit peak at 229 instead of 204 MB of RSS. A
    split pass leaves it in the helper's shared scratch, which the fit's
    next quadratic forms overwrite."""
    out = kernels._output(series, (series.shape[0], basis.shape[1]))
    kernels.split(_projection_rows, None, (series, out), basis)
    return out


def _projection_rows(series, out, basis) -> None:
    for sl in kernels.voxel_blocks(series.shape[0]):
        np.matmul(series[sl], basis, out=out[sl])


def update_h(
    resp: np.ndarray, params: MixtureParams, numer: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Shape update with unit-norm and sign renormalization.

    ``numer`` is the stationarity equation's right side, the sum over
    voxels v and epochs j of resp_v amplitude_v (w_between 1)_j r_vj,
    where r_vj is epoch j of voxel v's non-responding residual of
    params.coeffs (_Residuals.set_coeffs sums it). Returns the new shape
    and the amplitudes rescaled so that amplitude * shape is unchanged by
    the renormalization. When the weighted amplitude mass is too small a
    share of the amplitudes' mass to identify a shape, the previous shape
    is kept and a warning is emitted.
    """
    row_wb = inv_spd(params.between_cov).sum(axis=1)
    mass = float(np.sum(resp * params.amplitude**2))
    norm = 0.0
    if np.isfinite(mass) and mass > MASS_EPS * float(np.sum(params.amplitude**2)):
        raw = numer / (mass * float(row_wb.sum()))
        norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        _intervene("shape update skipped: weighted amplitude mass is degenerate")
        return params.hrf, params.amplitude
    hrf, flip = _unit_shape(raw)
    amplitude = params.amplitude * norm
    return hrf, (-amplitude if flip else amplitude)


def update_covariances(
    resid: np.ndarray,
    resp: np.ndarray,
    within_cov: np.ndarray,
    between_cov: np.ndarray,
    covariance: str = "kronecker",
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional steps of the factored ``covariance`` (FACTOR_STEPS)
    for the (n_voxels, n_epochs, n_times) ``resid``.

    Each step maximizes one factor given the current other one: the
    weighted scatter of ``resid`` under the other factor's inverse,
    divided by the responding mass and the other factor's side. No
    responding mass raises, and a rank-deficient scatter is ridged with
    a warning. The caller applies the trace rescale ("kronecker" only).
    """
    mass = float(np.sum(resp))
    if mass <= 0.0:
        raise DegenerateDataError("covariance update: no responding mass")
    weights = np.asarray(resp, dtype=np.float64)
    factors = {"within": within_cov, "between": between_cov}
    for factor in FACTOR_STEPS[covariance]:
        if factor == "within":
            s = kernels.scatter_within(resid, inv_spd(factors["between"]), weights)
            side = resid.shape[1]
        else:
            s = kernels.scatter_between(resid, inv_spd(factors["within"]), weights)
            side = resid.shape[2]
        factors[factor] = regularize_spd(
            0.5 * (s + s.T) / (side * mass), f"{factor}-cov update"
        )
    return factors["within"], factors["between"]


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

    One projection of the series y onto [PZ, design] (_gls_design: P the
    responding precision, Z = [m, X]) gives each voxel's y'Pm, y'PX and
    y'X. Its amplitude given its coefficients b is (y'Pm - b'X'Pm) / m'Pm,
    the generalized-least-squares fit of y - Xb on m; its coefficients
    given that amplitude a solve
        (resp X'PX + (1 - resp) X'X / noise_var) b
            = resp (y'PX - a m'PX) + (1 - resp) y'X / noise_var.
    ``resid`` holds the residuals of ``params`` on entry and of the
    returned parameters on return.
    """
    d = dataset.dims
    q = d.n_covariates
    p = float(np.mean(resp)) if structure.mixture else 1.0
    _, w_between, _, pz, gram = _gls_design(dataset, params)
    proj = _projection(
        dataset.series, np.concatenate([pz, dataset.design], axis=1))
    amplitude = (proj[:, 0] - np.einsum("vk,k->v", params.coeffs, gram[1:, 0])
                 ) / gram[0, 0]
    rhs_active = proj[:, 1:q + 1] - amplitude[:, None] * gram[0, 1:]
    rhs_inactive = proj[:, q + 1:] / params.noise_var
    rhs = resp[:, None] * rhs_active + (1.0 - resp)[:, None] * rhs_inactive
    gram_active = gram[1:, 1:]
    gram_inactive = dataset.design.T @ dataset.design / params.noise_var
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
    hrf = params.hrf
    if structure.estimate_hrf:
        numer = resid.set_coeffs(coeffs, resp * amplitude,
                                 w_between.sum(axis=1))
        interim = params.with_updates(amplitude=amplitude, coeffs=coeffs)
        hrf, amplitude = update_h(resp, interim, numer)
    else:
        resid.set_coeffs(coeffs)
    resid.set_mean(amplitude, hrf)
    return params.with_updates(
        active_prob=p, amplitude=amplitude, coeffs=coeffs, hrf=hrf
    )


def _variance_step(
    dataset: Dataset,
    resp: np.ndarray,
    params: MixtureParams,
    resid: _Residuals,
    floor: float,
    structure: ModelStructure,
) -> MixtureParams:
    """Variance block: covariance factors, then noise variance, at least
    ``floor``, given ``resid`` holding both residuals of ``params``."""
    d = dataset.dims
    within = params.within_cov
    between = params.between_cov
    noise_var = params.noise_var
    if structure.covariance == "spherical":
        ssq = float(np.einsum("vjt,vjt->", resid.active, resid.active))
        var = max(ssq / (d.n_voxels * d.n_images), floor)
        within = var * np.eye(d.n_times)
        between = np.eye(d.n_epochs)
        noise_var = var
    else:
        mass = float(np.sum(resp))
        if mass > max(MASS_EPS * d.n_voxels, MASS_EPS):
            within, between = update_covariances(
                resid.active, resp, within, between, structure.covariance
            )
            if structure.rescale_trace:
                within, between = _rescale_trace(within, between)
        else:
            _intervene("covariance update skipped: responding mass is negligible")
        if structure.mixture:
            off_mass = float(np.sum(1.0 - resp))
            if off_mass > max(MASS_EPS * d.n_voxels, MASS_EPS):
                noise_var = max(update_sigma2(resp, resid.ssq, d.n_images), floor)
            else:
                _intervene("noise update skipped: non-responding mass is negligible")
    return params.with_updates(
        within_cov=within, between_cov=between, noise_var=noise_var
    )


def _degenerate(check, *args, **kwargs) -> None:
    """Run a check of a fit's own values; data that drive the fit out of
    the model's range fail it, a DegenerateDataError."""
    try:
        check(*args, **kwargs)
    except ValueError as e:
        raise DegenerateDataError(f"fit: {e}") from None


def _iterate(
    dataset: Dataset,
    params: MixtureParams,
    resid: _Residuals,
    floor: float,
    config: EmConfig,
    structure: ModelStructure,
    diagnostics,
) -> FitResult:
    """The EM loop from ``params``, on ``resid`` holding their residuals;
    on return it holds those of the result's parameters. ``floor`` bounds
    the noise variance from below. Parameters that break an invariant,
    and a decreasing log-likelihood, raise DegenerateDataError."""
    rescale = structure.rescale_trace
    _degenerate(validate_params, params, dataset.dims, trace_convention=rescale)
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
        params = _variance_step(dataset, resp, params, resid, floor, structure)
        _degenerate(validate_params, params, dataset.dims, trace_convention=rescale)
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
    _degenerate(result.validate)
    return result


def _start(
    dataset: Dataset, helper: bool = False
) -> tuple[MixtureParams, _Residuals, float]:
    """Every fit's start values, its one residual owner, which holds
    their residuals, and its noise variance floor, VAR_FLOOR times the
    series variance: the start noise variance, which _iterate rejects if
    it is 0 or overflowed. The owner's lanes split the fit's passes with
    a helper when ``helper`` is set (kernels.Lanes); entering them forks
    it. Design columns that are not mean-centered,
    or one that is zero or a linear combination of the columns before
    it, raise DegenerateDataError; a column counts as centered when its
    sum is at most 1e-9 * n_images times its largest magnitude."""
    d = dataset.dims
    scale = np.abs(dataset.design).max(axis=0)
    if np.any(np.abs(dataset.design.sum(axis=0)) > 1e-9 * d.n_images * scale):
        raise DegenerateDataError(
            "design columns are not mean-centered; run trialmix preprocess"
        )
    # |R_kk| is column k's distance from the span of the columns before
    # it; the tolerance follows numpy.linalg.matrix_rank
    dist = np.abs(np.diag(np.linalg.qr(dataset.design, mode="r")))
    tol = d.n_images * np.finfo(np.float64).eps * dist.max(initial=0.0)
    dependent = np.flatnonzero(dist <= tol)
    if dependent.size:
        raise DegenerateDataError(
            f"design column x{dependent[0] + 1} is zero or a linear "
            "combination of the columns before it; drop it from design.csv "
            "(the high-pass zeroes a covariate of pure slow drift)"
        )
    # mid-interval post-stimulus convention; the EM refines the shape
    times = dataset.tr * (np.arange(d.n_times) + 0.5)
    var = float(np.var(dataset.series))
    params = MixtureParams(
        active_prob=1.0,
        amplitude=np.zeros(d.n_voxels),
        coeffs=np.zeros((d.n_voxels, d.n_covariates)),
        hrf=canonical_hrf(times),
        within_cov=np.eye(d.n_times),
        between_cov=np.eye(d.n_epochs),
        noise_var=var,
    )
    # the widest pass output is the mean block's projection onto [PZ, X]
    lanes = kernels.Lanes(d.n_voxels, helper, 2 * d.n_covariates + 1)
    return params, _Residuals(dataset, params, lanes), VAR_FLOOR * var


def _seed(
    dataset: Dataset,
    params: MixtureParams,
    resid: _Residuals,
    floor: float,
    config: EmConfig,
    structure: ModelStructure,
) -> MixtureParams:
    """Initialization for the mixture EM: the start values of em_fit's
    main loop for a mixture ``structure``. ``resid`` holds the residuals
    of ``params`` on entry and of the returned seed on exit.

    Fits the all-responding reduced model, classifies voxels with the
    amplitude t-test at INIT_ALPHA (uncorrected),
    and seeds the covariance factors and the noise variance by running
    the variance block on the reduced fit with the screen's 0/1
    responsibilities. Falls back to the top percentile by t-statistic if
    nothing passes the screen, and to the pooled mean squared residual
    for the noise variance if everything does. A reduced fit whose
    log-likelihood decreases raises DegenerateDataError.
    """
    d = dataset.dims
    params = _iterate(
        dataset, params, resid, floor,
        replace(config, max_iter=INIT_MAX_ITER),
        replace(structure, mixture=False),
        None,
    ).params
    t_stats, df = t_statistics(dataset, params)
    pvals = t_sf(t_stats, df)
    active = pvals < INIT_ALPHA
    if not np.any(active):
        n_top = max(1, int(np.ceil(0.01 * d.n_voxels)))
        order = np.argsort(t_stats)[::-1]
        active = np.zeros(d.n_voxels, dtype=bool)
        active[order[:n_top]] = True
        _intervene(
            "initial screen found no responding voxels; seeding from the "
            f"top {n_top} t-statistics"
        )
    seed = params.with_updates(
        active_prob=float(np.clip(np.mean(active), 0.01, 0.99))
    )
    if np.all(active):
        _intervene(
            "no voxels classified non-responding; seeding noise variance "
            "from the pooled residuals"
        )
        noise = float(np.sum(resid.ssq)) / (d.n_voxels * d.n_images)
        seed = seed.with_updates(noise_var=max(noise, floor))
        # no non-responding mass is left for the variance block's noise update
        structure = replace(structure, mixture=False)
    return _variance_step(
        dataset, active.astype(np.float64), seed, resid, floor, structure
    )


def em_fit(
    dataset: Dataset,
    config: EmConfig = EmConfig(),
    structure: ModelStructure = ModelStructure(),
    diagnostics=None,
    helper: bool = False,
) -> FitResult:
    """Fit ``structure`` by generalized EM; the one fit entry point.

    A mixture starts from _seed's values, any other structure (every
    voxel responding, no E-step) from the canonical shape with identity
    covariances. Convergence is declared when the relative Euclidean
    change of the global parameters (mixing proportion, shape,
    covariance factors, noise variance) drops below config.tol, or the
    fit stops after config.max_iter iterations. ``diagnostics``, when
    given, receives one JSON line per iteration. Design columns that are
    not mean-centered, a design column that is zero or a linear
    combination of the columns before it, parameters that break an
    invariant (a variance that overflows on huge values), and a
    log-likelihood that decreases raise DegenerateDataError.

    With ``helper``, a dataset of at least two voxel blocks is fitted by
    this process and one forked helper process, which takes the second
    half of the blocks of every pass over voxels (kernels.Lanes) and is
    reaped before em_fit returns or raises. The result has the same bits.
    A helper that dies raises ChildProcessError.
    """
    params, resid, floor = _start(dataset, helper)
    with resid.lanes:
        if structure.mixture:
            params = _seed(dataset, params, resid, floor, config, structure)
        return _iterate(dataset, params, resid, floor, config, structure,
                        diagnostics)
