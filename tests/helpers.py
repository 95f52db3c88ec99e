"""Shared builders for random but valid model objects, and the
single-voxel, unblocked and dense oracles the batched package code is
checked against.

Every builder takes an explicit numpy Generator so tests stay
reproducible. Dimensions default small enough that dense oracles
stay cheap.
"""
import json
import os
from dataclasses import fields, is_dataclass, replace

import numpy as np
from scipy.special import gammaln

import trialmix.em as em
from trialmix import io, kernels
from trialmix.cli import RunConfig
from trialmix.em import (
    LOG_2PI,
    EmConfig,
    ModelStructure,
    canonical_hrf,
    hrf_shape_raw,
    residual_matrices,
    update_covariances,
    update_h,
    update_sigma2,
)
from trialmix.linalg import inv_spd, kron_logdet, matrix_sqrt
from trialmix.preprocess import (
    _smooth_dataset,
    center_columns,
    dct_highpass,
    mean_center,
    shift_offsets_from_stimulus,
    trial_time_shift,
)
from trialmix.simulate import STIMULUS_INTERVAL, random_walk_design
from trialmix.types import (Dataset, DegenerateDataError, Dims, MixtureParams,
                            SimTruth, _intervene)


# mask_shape values past the volume bound; each once ended in a
# MemoryError, a ValueError from numpy, or 40,004 slice images
OVERSIZED_GRIDS = ([10**6] * 3, [2**40, 2**40, 8], [4, 4, 20000])
# (n_times, n_epochs) one past the covariance factor bound; each bundle
# was once read without complaint and its fit ended in a traceback
OVERSIZED_FACTORS = ((65, 2), (4, 65))


def config_fields():
    """(section, name, default) of every RunConfig field; the section is
    None for a top-level field."""
    default = RunConfig()
    for f in fields(RunConfig):
        value = getattr(default, f.name)
        if is_dataclass(value):
            yield from ((f.name, g.name, getattr(value, g.name))
                        for g in fields(value))
        else:
            yield None, f.name, value


def write_bundle_by_hand(path, n_times, n_epochs, n_voxels=30, seed=0):
    """A bundle written file by file, not through write_dataset, so its
    dims need not be valid: white series, no covariates, cube coords."""
    os.makedirs(path)
    header = {
        "version": "2",
        "endianness": "little",
        "dims": {"n_times": n_times, "n_epochs": n_epochs,
                 "n_voxels": n_voxels, "n_covariates": 0},
        "tr": 2.0,
        "stimulus_times": [2.0 * n_times * j for j in range(n_epochs)],
        "mask_shape": None,
    }
    with open(os.path.join(path, "header.json"), "w") as f:
        json.dump(header, f)
    with open(os.path.join(path, "coords.csv"), "w") as f:
        f.write("x,y,z\n" + "".join(
            "%d,%d,%d\n" % tuple(row) for row in cube_coords(n_voxels)))
    series = np.random.default_rng(seed).standard_normal(
        n_voxels * n_epochs * n_times)
    series.astype("<f8").tofile(os.path.join(path, "data.f64"))


def read_truth(path: str) -> SimTruth | None:
    """A bundle's ground truth, or None when it carries none: truth.json
    through its declaration, and truth.f64's rows (label, amplitude,
    x1..xq per voxel) at header.json's dims. A sidecar of another size
    than 8*V*(2+q) bytes, or a label other than 0 or 1, raises
    BundleFormatError."""
    if io.read_truth_bytes(path) is None:
        return None
    record = io._read_record(path, io.TRUTH_NAME)
    dims = io._read_record(path, io.HEADER_NAME)["dims"]
    width = 2 + dims.n_covariates
    sidecar = os.path.join(path, io.TRUTH_ARRAYS_NAME)
    expected, actual = 8 * dims.n_voxels * width, os.path.getsize(sidecar)
    if actual != expected:
        raise io.BundleFormatError(
            f"{io.TRUTH_ARRAYS_NAME}: expected {expected} bytes, found {actual}")
    rows = np.fromfile(sidecar, dtype="<f8").reshape(dims.n_voxels, width)
    if not np.isin(rows[:, 0], (0.0, 1.0)).all():
        raise io.BundleFormatError(
            f"{io.TRUTH_ARRAYS_NAME}: a label is not 0 or 1")
    params = MixtureParams(amplitude=rows[:, 1].copy(),
                           coeffs=rows[:, 2:].copy(), **record.pop("params"))
    return SimTruth(params=params, labels=rows[:, 0].astype(np.int64), **record)


# ------------------------------------------------ single-voxel oracles
#
# Direct per-voxel or whole-dataset forms of the batched computations in
# the package, kept here because only tests compare against them.


def kron_quad_form(
    between: np.ndarray, within: np.ndarray, resid: np.ndarray
) -> float:
    """Quadratic form of a residual matrix under the inverse Kronecker product.

    resid has shape (n_times, n_epochs), column j holding epoch j. The value
    is trace(within^{-1} resid between^{-1} resid^T), which equals the
    vectorized quadratic form under (between (x) within)^{-1}.
    """
    if resid.shape != (within.shape[0], between.shape[0]):
        raise ValueError(
            f"residual shape {resid.shape} does not match factors "
            f"({within.shape[0]}, {between.shape[0]})"
        )
    left = np.linalg.solve(within, resid)
    right = np.linalg.solve(between, resid.T).T
    return float(np.sum(left * right))


def log_density_active(y: np.ndarray, design: np.ndarray, params: MixtureParams, voxel: int) -> float:
    """Log density of one voxel's series under the responding component."""
    d_t = params.within_cov.shape[0]
    d_e = params.between_cov.shape[0]
    n = d_t * d_e
    mu = np.tile(params.hrf, d_e)
    resid = y - params.amplitude[voxel] * mu - design @ params.coeffs[voxel]
    resid_te = resid.reshape(d_e, d_t).T
    quad = kron_quad_form(params.between_cov, params.within_cov, resid_te)
    logdet = kron_logdet(params.between_cov, params.within_cov)
    return float(-0.5 * (n * LOG_2PI + logdet + quad))


def log_density_inactive(y: np.ndarray, design: np.ndarray, params: MixtureParams, voxel: int) -> float:
    """Log density of one voxel's series under the non-responding component."""
    resid = y - design @ params.coeffs[voxel]
    n = y.shape[0]
    return float(
        -0.5
        * (
            n * (LOG_2PI + np.log(params.noise_var))
            + resid @ resid / params.noise_var
        )
    )


def estep(dataset: Dataset, params: MixtureParams) -> np.ndarray:
    """Posterior probability that each voxel responds, from scratch.

    The fit loop's own E-step: 1 / (1 + exp(c)) with
    c = log(1 - p) - log(p) + log f2 - log f1, saturating to exactly 0
    or 1 beyond +-700, and exactly 0 or 1 everywhere when p is 0 or 1.
    """
    log_f = em._log_densities(params, em._Residuals(dataset, params))
    return em._posterior(params.active_prob, *log_f)


def observed_loglik(dataset: Dataset, params: MixtureParams) -> float:
    """Observed-data log-likelihood of the mixture, from scratch."""
    log_f = em._log_densities(params, em._Residuals(dataset, params))
    return em._mixture_loglik(params.active_prob, *log_f)


def q_function(dataset: Dataset, resp: np.ndarray, params: MixtureParams) -> float:
    """Expected complete-data log-likelihood given responsibilities."""
    p = params.active_prob
    log_f1, log_f2 = em._log_densities(params, em._Residuals(dataset, params))
    active = np.where(resp > 0.0, resp * (np.log(p) if p > 0.0 else -np.inf), 0.0)
    active = active + resp * log_f1
    off = 1.0 - resp
    inactive = np.where(
        off > 0.0, off * (np.log1p(-p) if p < 1.0 else -np.inf), 0.0
    )
    inactive = inactive + off * log_f2
    return float(np.sum(active) + np.sum(inactive))


def update_beta(
    y: np.ndarray,
    design: np.ndarray,
    coeffs_i: np.ndarray,
    hrf_values: np.ndarray,
    within_cov: np.ndarray,
    between_cov: np.ndarray,
) -> float:
    """Generalized-least-squares amplitude for one voxel given its coeffs."""
    n_t = within_cov.shape[0]
    n_e = between_cov.shape[0]
    diff = (y - design @ coeffs_i).reshape(n_e, n_t)
    w_within = inv_spd(within_cov)
    w_between = inv_spd(between_cov)
    wt_h = w_within @ hrf_values
    row_wb = w_between.sum(axis=1)
    denom = float(row_wb.sum() * (hrf_values @ wt_h))
    if denom <= 0.0:
        raise DegenerateDataError("amplitude update: nonpositive normalizer")
    return float(np.einsum("j,t,jt->", row_wb, wt_h, diff) / denom)


def update_b(
    y: np.ndarray,
    design: np.ndarray,
    beta_i: float,
    p_i: float,
    hrf_values: np.ndarray,
    within_cov: np.ndarray,
    between_cov: np.ndarray,
    noise_var: float,
) -> np.ndarray:
    """Covariate-coefficient update for one voxel.

    Solves the stationarity system mixing both components with weight
    p_i: (p_i X' S1i X + (1-p_i) X' X / s2) b =
    p_i X' S1i (y - beta mu) + (1-p_i) X' y / s2, where S1i is the
    inverse Kronecker covariance.
    """
    q = design.shape[1]
    if q == 0:
        return np.zeros(0)
    n_t = within_cov.shape[0]
    n_e = between_cov.shape[0]
    w_within = inv_spd(within_cov)
    w_between = inv_spd(between_cov)
    x_ep = design.reshape(n_e, n_t, q)
    gram_active = np.einsum(
        "jk,jta,ts,ksb->ab", w_between, x_ep, w_within, x_ep, optimize=True
    )
    gram_inactive = design.T @ design / noise_var
    mean_active = (
        y.reshape(n_e, n_t) - beta_i * hrf_values[None, :]
    )
    rhs_active = np.einsum(
        "jk,jta,ts,ks->a", w_between, x_ep, w_within, mean_active, optimize=True
    )
    rhs_inactive = design.T @ y / noise_var
    lhs = p_i * gram_active + (1.0 - p_i) * gram_inactive
    rhs = p_i * rhs_active + (1.0 - p_i) * rhs_inactive
    return np.linalg.solve(lhs, rhs)


def inactive_residual(dataset: Dataset, coeffs: np.ndarray) -> np.ndarray:
    """The whole non-responding residual series - coeffs @ design.T,
    built in the kernels.BLOCK voxel blocks em._Residuals uses."""
    out = np.empty(dataset.series.shape)
    for sl in kernels.voxel_blocks(out.shape[0]):
        np.matmul(coeffs[sl], dataset.design.T, out=out[sl])
        np.subtract(dataset.series[sl], out[sl], out=out[sl])
    return out


def update_beta_all(
    resid_inactive: np.ndarray,
    hrf: np.ndarray,
    w_within: np.ndarray,
    w_between: np.ndarray,
) -> np.ndarray:
    """Amplitudes for every voxel from the residuals of its current
    coeffs: one GEMV over the whole residual."""
    wt_h = w_within @ hrf
    row_wb = w_between.sum(axis=1)
    denom = float(row_wb.sum() * (hrf @ wt_h))
    if denom <= 0.0:
        raise DegenerateDataError("amplitude update: nonpositive normalizer")
    return resid_inactive @ np.kron(row_wb, wt_h) / denom


def update_b_all(
    dataset: Dataset,
    resp: np.ndarray,
    amplitude: np.ndarray,
    hrf: np.ndarray,
    w_within: np.ndarray,
    w_between: np.ndarray,
    noise_var: float,
) -> np.ndarray:
    """Coefficients for every voxel given their amplitudes, as the
    coefficient step of em._mean_step, with the series projected onto
    the design and its product with the responding precision in one
    product over all voxels."""
    d = dataset.dims
    q = d.n_covariates
    x_ep = dataset.design.reshape(d.n_epochs, d.n_times, q)
    wx = np.einsum("jk,kta,ts->jsa", w_between, x_ep, w_within).reshape(
        d.n_images, q)
    gram_active = dataset.design.T @ wx
    gram_inactive = dataset.design.T @ dataset.design / noise_var
    proj = dataset.series @ np.concatenate([wx, dataset.design], axis=1)
    mean_proj = np.tile(hrf, d.n_epochs) @ wx
    rhs_active = proj[:, :q] - amplitude[:, None] * mean_proj[None, :]
    rhs_inactive = proj[:, q:] / noise_var
    rhs = resp[:, None] * rhs_active + (1.0 - resp)[:, None] * rhs_inactive
    coeffs = np.empty((d.n_voxels, q))
    near_inactive = resp <= 0.5
    for near, weight, g_near, g_far in (
        (near_inactive, resp, gram_inactive, gram_active),
        (~near_inactive, 1.0 - resp, gram_active, gram_inactive),
    ):
        coeffs[near] = em._solve_pencil(rhs[near], weight[near], g_near, g_far)
    return coeffs


def shape_numerator(
    resp: np.ndarray,
    amplitude: np.ndarray,
    w_between: np.ndarray,
    resid_inactive: np.ndarray,
) -> np.ndarray:
    """update_h's ``numer``: one sum over every (voxel, epoch) row of the
    whole non-responding residual."""
    n_epochs = w_between.shape[0]
    diff = resid_inactive.reshape(resid_inactive.shape[0], n_epochs, -1)
    row_wb = w_between.sum(axis=1)
    return np.einsum("vj,vjt->t", (resp * amplitude)[:, None] * row_wb, diff)


def update_h_raw(
    resp: np.ndarray,
    amplitude: np.ndarray,
    w_between: np.ndarray,
    resid_inactive: np.ndarray,
) -> np.ndarray | None:
    """Stationarity solution for the shape, before renormalization, or
    None when the weighted amplitude mass is too small a share of the
    amplitudes' mass to identify a shape."""
    mass = float(np.sum(resp * amplitude**2))
    if not np.isfinite(mass) or mass <= em.MASS_EPS * float(np.sum(amplitude**2)):
        return None
    numer = shape_numerator(resp, amplitude, w_between, resid_inactive)
    return numer / (mass * float(w_between.sum(axis=1).sum()))


def mean_step_oracle(
    dataset: Dataset,
    resp: np.ndarray,
    params: MixtureParams,
    structure: ModelStructure,
) -> tuple[MixtureParams, np.ndarray]:
    """em._mean_step on whole non-responding residuals: the returned
    parameters and the per-voxel sums of squares of their residual."""
    p = float(np.mean(resp)) if structure.mixture else 1.0
    hrf = params.hrf
    w_within = inv_spd(params.within_cov)
    w_between = inv_spd(params.between_cov)
    amplitude = update_beta_all(
        inactive_residual(dataset, params.coeffs), hrf, w_within, w_between)
    coeffs = update_b_all(
        dataset, resp, amplitude, hrf, w_within, w_between, params.noise_var)
    resid_inactive = inactive_residual(dataset, coeffs)
    if structure.estimate_hrf:
        raw = update_h_raw(resp, amplitude, w_between, resid_inactive)
        norm = 0.0 if raw is None else float(np.linalg.norm(raw))
        if norm == 0.0:
            _intervene("shape update skipped: weighted amplitude mass is degenerate")
        else:
            hrf, flip = em._unit_shape(raw)
            amplitude = amplitude * norm
            amplitude = -amplitude if flip else amplitude
    ssq = np.einsum("vn,vn->v", resid_inactive, resid_inactive)
    return params.with_updates(
        active_prob=p, amplitude=amplitude, coeffs=coeffs, hrf=hrf), ssq


def assert_near(got, want, err_msg="", rel=1e-12):
    """|got - want| <= rel * max|want| in every entry: a result computed
    in voxel blocks against its whole-array oracle, whose BLAS kernels
    may round differently."""
    want = np.asarray(want)
    bound = rel * float(np.max(np.abs(want), initial=0.0))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=bound, err_msg=err_msg)


def preprocess_whole(dataset: Dataset, cfg) -> Dataset:
    """preprocess.preprocess_dataset with each step on the whole series."""
    series = dataset.series
    design = dataset.design
    if cfg.smooth_fwhm > 0.0:
        series = _smooth_dataset(dataset, cfg)
    if cfg.align_trials:
        shifts = shift_offsets_from_stimulus(dataset.stimulus_times, dataset.tr)
        series = trial_time_shift(series, shifts)
    if cfg.highpass_cutoff is not None:
        series = dct_highpass(series, dataset.tr, cfg.highpass_cutoff)
        design = dct_highpass(design.T, dataset.tr, cfg.highpass_cutoff).T
    if cfg.center:
        series = mean_center(series)
        design = center_columns(design)
    return replace(dataset, series=series, design=design)


def dense_t_statistics(
    dataset: Dataset, params: MixtureParams
) -> tuple[np.ndarray, int]:
    """Amplitude t-statistics of every voxel, and their degrees of
    freedom, by the dense route inference.t_statistics avoids: series,
    shape regressor and design whitened by the inverse square root of
    kron(between_cov, within_cov), from its eigendecomposition, then
    ordinary least squares by np.linalg.lstsq and
    t = amplitude / sqrt(s^2 / |whitened shape regressor|^2)."""
    d = dataset.dims
    values, vectors = np.linalg.eigh(
        np.kron(params.between_cov, params.within_cov))
    half = (vectors / np.sqrt(values)) @ vectors.T
    z = half @ np.column_stack(
        [np.tile(params.hrf, d.n_epochs), dataset.design])
    series_w = dataset.series @ half.T
    coef = np.linalg.lstsq(z, series_w.T, rcond=None)[0]
    resid = series_w.T - z @ coef
    df = d.n_images - d.n_covariates - 1
    s2 = np.sum(resid * resid, axis=0) / df
    return coef[0] / np.sqrt(s2 / (z[:, 0] @ z[:, 0])), df


def scipy_hrf_shape_raw(times: np.ndarray) -> np.ndarray:
    """The difference of gamma densities em.hrf_shape_raw evaluates, with
    its log-gamma normalizers computed by scipy.special.gammaln."""
    times = np.asarray(times, dtype=np.float64)
    out = np.zeros_like(times)
    pos = times > 0.0
    t = times[pos]
    out[pos] = (np.exp(5.0 * np.log(t) - t - gammaln(6.0))
                - np.exp(15.0 * np.log(t) - t - gammaln(16.0)) / 6.0)
    return out


def fitted_response(
    amplitude: float,
    hrf: np.ndarray,
    loadings: np.ndarray,
    score_row: np.ndarray,
) -> np.ndarray:
    """Fitted single-trial response curve of one (cluster, epoch) cell:
    amplitude * hrf + sum_k score_k * loading_k, with loadings
    (n_times, K) and score_row (K,)."""
    return amplitude * hrf + loadings @ score_row


def record_forks(monkeypatch) -> list[int]:
    """The pids of the helper processes that fits fork from now on."""
    forks = []
    fork = kernels._fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(kernels, "_fork", recording_fork)
    return forks


def seed_params(dataset, config=EmConfig(), structure=ModelStructure()):
    """em_fit's seeding of a mixture's main loop, from its start values."""
    return em._seed(dataset, *em._start(dataset), config, structure)


def sweep_covariances(resid, resp, within, between, sweeps):
    """``sweeps`` flip-flop sweeps of the Kronecker factors, an even
    number: each update_covariances call makes two."""
    assert sweeps % 2 == 0
    for _ in range(sweeps // 2):
        within, between = update_covariances(resid, resp, within, between)
    return within, between


# ------------------------------------------------------------ builders


def rand_spd(rng, n, scale=1.0):
    """Random well-conditioned SPD matrix."""
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T / n + 0.5 * np.eye(n))


def make_dims(n_times=4, n_epochs=3, n_voxels=6, n_covariates=2):
    return Dims(
        n_times=n_times,
        n_epochs=n_epochs,
        n_voxels=n_voxels,
        n_covariates=n_covariates,
    )


def cube_coords(n_voxels):
    """First n_voxels lattice points of a cube grid, C-scan order."""
    side = 1
    while side**3 < n_voxels:
        side += 1
    grid = np.stack(
        np.meshgrid(*([np.arange(side)] * 3), indexing="ij"), axis=-1
    )
    return np.ascontiguousarray(grid.reshape(-1, 3)[:n_voxels])


def make_dataset(dims, rng, tr=2.0):
    """Random valid dataset: white series, centered design, cube coords."""
    n = dims.n_images
    series = rng.standard_normal((dims.n_voxels, n))
    design = rng.standard_normal((n, dims.n_covariates))
    if dims.n_covariates:
        design = design - design.mean(axis=0, keepdims=True)
    stimulus_times = tr * dims.n_times * np.arange(dims.n_epochs, dtype=np.float64)
    return Dataset(
        dims=dims,
        series=series,
        design=design,
        coords=cube_coords(dims.n_voxels),
        stimulus_times=stimulus_times,
        tr=tr,
    )


def make_bundle(n_voxels, seed=0, n_times=14, n_epochs=10, n_covariates=3):
    """A scanner-like dataset without simulate: white series around a
    baseline with a linear drift, an uncentered design, stimulus onsets
    off the sampling grid, and the smallest cube holding the voxels as
    mask_shape."""
    rng = np.random.default_rng(seed)
    dims = make_dims(n_times, n_epochs, n_voxels, n_covariates)
    tr = 2.0
    drift = np.linspace(-1.0, 1.0, dims.n_images)
    series = rng.standard_normal((n_voxels, dims.n_images))
    series += 100.0 + rng.standard_normal((n_voxels, 1)) * drift
    coords = cube_coords(n_voxels)
    return Dataset(
        dims=dims,
        series=series,
        design=rng.standard_normal((dims.n_images, n_covariates)) + 1.0,
        coords=coords,
        stimulus_times=tr * n_times * np.arange(n_epochs)
        + rng.uniform(0.0, tr, n_epochs),
        tr=tr,
        mask_shape=(int(coords.max()) + 1,) * 3,
    )


def make_params(dims, rng, active_prob=0.4, rescaled=True):
    """Random valid mixture parameters at the given dimensions."""
    hrf = canonical_hrf(2.0 * (np.arange(dims.n_times) + 0.5))
    within = rand_spd(rng, dims.n_times)
    between = rand_spd(rng, dims.n_epochs)
    if rescaled:
        scale = float(np.trace(between)) / dims.n_epochs
        within = within * scale
        between = between / scale
    return MixtureParams(
        active_prob=active_prob,
        amplitude=rng.standard_normal(dims.n_voxels),
        coeffs=rng.standard_normal((dims.n_voxels, dims.n_covariates)),
        hrf=hrf,
        within_cov=within,
        between_cov=between,
        noise_var=float(rng.uniform(0.5, 2.0)),
    )


def central_diff(fun, x, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros(x.size)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (fun(up) - fun(dn)) / (2.0 * step)
    return grad


def pack_sym(mat):
    """Lower triangle of a symmetric matrix as a flat vector."""
    return mat[np.tril_indices(mat.shape[0])]


def unpack_sym(vec, n):
    """Inverse of pack_sym; off-diagonal entries land in both halves."""
    out = np.zeros((n, n))
    idx = np.tril_indices(n)
    out[idx] = vec
    return out + out.T - np.diag(np.diag(out))


def mstep_stationarity_gaps(dataset, resp, params, step=1e-6, cov_sweeps=100):
    """Max finite-difference gradient of Q after each conditional update.

    Each update is applied to `params` in the sweep order and the
    gradient of the expected complete-data log-likelihood is probed in
    that update's own block, holding everything it conditioned on
    fixed. Symmetric matrices are probed along the packed-triangle
    directions (an off-diagonal coordinate moves both mirror entries).
    Returns a dict keyed by update name.
    """
    d = dataset.dims
    gaps = {}

    amp = np.array(
        [
            update_beta(
                dataset.series[i],
                dataset.design,
                params.coeffs[i],
                params.hrf,
                params.within_cov,
                params.between_cov,
            )
            for i in range(d.n_voxels)
        ]
    )
    p_amp = params.with_updates(amplitude=amp)
    gaps["update_beta"] = np.max(
        np.abs(
            central_diff(
                lambda a: q_function(dataset, resp, p_amp.with_updates(amplitude=a)),
                amp,
                step,
            )
        )
    )

    if d.n_covariates:
        coeffs = np.stack(
            [
                update_b(
                    dataset.series[i],
                    dataset.design,
                    float(amp[i]),
                    float(resp[i]),
                    params.hrf,
                    params.within_cov,
                    params.between_cov,
                    params.noise_var,
                )
                for i in range(d.n_voxels)
            ]
        )
        p_b = p_amp.with_updates(coeffs=coeffs)
        gaps["update_b"] = np.max(
            np.abs(
                central_diff(
                    lambda c: q_function(
                        dataset,
                        resp,
                        p_b.with_updates(coeffs=c.reshape(d.n_voxels, d.n_covariates)),
                    ),
                    coeffs.ravel(),
                    step,
                )
            )
        )
    else:
        coeffs = np.zeros((d.n_voxels, 0))
        p_b = p_amp
        gaps["update_b"] = 0.0

    hrf, amp2 = update_h(resp, p_b, shape_numerator(
        resp, p_b.amplitude, inv_spd(p_b.between_cov),
        inactive_residual(dataset, p_b.coeffs)))
    p_h = p_b.with_updates(hrf=hrf, amplitude=amp2)
    gaps["update_h"] = np.max(
        np.abs(
            central_diff(
                lambda v: q_function(
                    dataset, resp, p_h.with_updates(hrf=v)
                ),
                hrf,
                step,
            )
        )
    )

    # sweep the factor pair to its joint fixed point; cov_sweeps caps one
    # round, and rounds repeat until the pair stops moving (tiny 2x2
    # instances can need several hundred alternations)
    resid = residual_matrices(dataset, p_h)
    within = params.within_cov
    between = params.between_cov
    for _ in range(50):
        new_w, new_b = sweep_covariances(resid, resp, within, between, cov_sweeps)
        delta = max(
            np.max(np.abs(new_w - within)) / max(1.0, np.max(np.abs(new_w))),
            np.max(np.abs(new_b - between)) / max(1.0, np.max(np.abs(new_b))),
        )
        within, between = new_w, new_b
        if delta < 1e-13:
            break
    p_cov = p_h.with_updates(within_cov=within, between_cov=between)
    grad_w = central_diff(
        lambda v: q_function(
            dataset,
            resp,
            p_cov.with_updates(within_cov=unpack_sym(v, d.n_times)),
        ),
        pack_sym(within),
        step,
    )
    grad_b = central_diff(
        lambda v: q_function(
            dataset,
            resp,
            p_cov.with_updates(between_cov=unpack_sym(v, d.n_epochs)),
        ),
        pack_sym(between),
        step,
    )
    gaps["update_covariances"] = max(
        np.max(np.abs(grad_w)), np.max(np.abs(grad_b))
    )

    noise = update_sigma2(resp, em._Residuals(dataset, p_b).ssq, d.n_images)
    p_s = p_cov.with_updates(noise_var=noise)
    gaps["update_sigma2"] = np.max(
        np.abs(
            central_diff(
                lambda v: q_function(
                    dataset, resp, p_s.with_updates(noise_var=float(v[0]))
                ),
                np.array([noise]),
                step,
            )
        )
    )
    return gaps


def generate_reference(config, truth, seed, design=None):
    """simulate.generate's draws the way numpy spells them: one
    default_rng(SeedSequence(seed, spawn_key=(v,))) per voxel v, the
    design's at v = n_voxels, and each voxel's noise made alone.
    Returns (series, labels, design, stimulus_times, shift_offsets)."""
    dims, tr = config.dims, config.tr

    def stream(index):
        return np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(index,)))

    shared = stream(dims.n_voxels)
    if design is None:
        design = random_walk_design(dims.n_images, dims.n_covariates, shared)
    epochs = np.arange(dims.n_epochs)
    stimulus_times = np.round(epochs * STIMULUS_INTERVAL / tr) * tr
    if config.phase == "jitter":
        offsets = shared.uniform(-0.5, 0.5, size=dims.n_epochs)
        stimulus_times = stimulus_times + offsets * tr
        sample_times = config.sample_times
        base_norm = float(np.linalg.norm(hrf_shape_raw(sample_times)))
        mean_shape = np.array([
            hrf_shape_raw(sample_times - offset * tr) / base_norm
            for offset in offsets
        ])
        shift_undo = -offsets
    else:
        mean_shape = np.tile(truth.hrf, (dims.n_epochs, 1))
        shift_undo = np.zeros(dims.n_epochs)

    l_within = matrix_sqrt(truth.within_cov)
    l_between = matrix_sqrt(truth.between_cov)
    noise_sd = float(np.sqrt(truth.noise_var))
    series = np.empty((dims.n_voxels, dims.n_images))
    labels = np.empty(dims.n_voxels, dtype=np.int64)
    for block in kernels.voxel_blocks(dims.n_voxels):
        # the covariate term's rounding is that of one GEMM per block
        covar_part = design @ truth.coeffs[block].T
        for v in range(dims.n_voxels)[block]:
            rng = stream(v)
            z = rng.random() < truth.active_prob
            labels[v] = int(z)
            if z:
                g = rng.standard_normal((dims.n_times, dims.n_epochs))
                structured = l_within @ g @ l_between
                mean = truth.amplitude[v] * mean_shape
                series[v] = (mean + structured.T).ravel()
            else:
                series[v] = noise_sd * rng.standard_normal(dims.n_images)
            series[v] += covar_part[:, v - block.start]
    return series, labels, design, stimulus_times, shift_undo
