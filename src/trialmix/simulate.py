"""Synthetic data generator used as the estimation oracle.

Data are drawn exactly from the two-component model so that parameter
recovery, calibration, and model-comparison behavior can be verified
against known truth. Voxel streams are split from one root seed, so any
voxel's draws are reproducible independently of the others.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import canonical_hrf, hrf_shape_raw
from .kernels import voxel_blocks
from .linalg import matrix_sqrt
from .types import (MAX_GRID_AXIS, Dataset, Dims, MixtureParams, SimTruth,
                    _check_spd, _gc_paused, validate_params)

__all__ = [
    "SimConfig",
    "ar1_cov",
    "random_walk_design",
    "default_scenario",
    "generate",
    "simulate_dataset",
]

# The scenario's fixed constants, which no run sets
STIMULUS_INTERVAL = 28.25  # s between epoch onsets
FIRST_SAMPLE = 5.0 / 6.0  # s from onset to an epoch's first sample
AMP_SPREAD = 0.25  # log-normal spread of the amplitudes
COEFF_SCALE = 0.3  # standard deviation of the covariate coefficients
DESIGN_JITTER = 1.0  # scan-to-scan noise parts of a design column
WITHIN_SCALE = 1.3  # scale of the within-epoch AR(1) factor


@dataclass(frozen=True)
class SimConfig:
    """The synthetic scenario's settings, the run config's simulate section.

    The defaults mirror the acquisition the model was designed around:
    14 samples per epoch at a 2 s interval and 10 epochs with 6 drifting
    covariates; the module constants fix the rest of the scenario.
    ``phase`` controls trial timing: "zero" samples every epoch on the
    nominal grid (data follow the model exactly), "jitter" adds a
    uniform offset per epoch that preprocessing must undo.
    ``n_voxels`` is at most MAX_GRID_AXIS**3, so the cube grid the
    voxels fill stays within the volume bound. The AR(1) covariance
    factors (``factors``) pass validate_params's positivity rule.
    """

    n_times: int = 14
    n_epochs: int = 10
    n_voxels: int = 2000
    n_covariates: int = 6
    tr: float = 2.0
    active_frac: float = 0.3
    snr: float = 3.8
    within_rho: float = 0.35
    between_rho: float = 0.25
    noise_var: float = 1.0
    phase: str = "zero"

    def __post_init__(self) -> None:
        for name in ("n_times", "n_epochs", "n_voxels", "n_covariates"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        self.dims  # range checks
        if self.n_voxels > MAX_GRID_AXIS**3:
            raise ValueError(
                f"n_voxels: the cube grid would exceed {MAX_GRID_AXIS} per axis"
            )
        if self.tr <= 0.0:
            raise ValueError("tr must be positive")
        # a tr near the float64 limit overflows the sample times; the
        # shape cannot underflow, as the first sample is FIRST_SAMPLE
        canonical_hrf(self.sample_times)
        if not (abs(self.within_rho) < 1.0 and abs(self.between_rho) < 1.0):
            raise ValueError("within_rho and between_rho must lie in (-1, 1)")
        if not (0.0 <= self.active_frac <= 1.0):
            raise ValueError("active_frac must lie in [0, 1]")
        if self.phase not in ("zero", "jitter"):
            raise ValueError('phase must be "zero" or "jitter"')
        if self.noise_var <= 0.0:
            raise ValueError("noise_var must be positive")
        # the factors default_scenario draws with, under validate_params's rule
        for name, factor in zip(("within_rho", "between_rho"), self.factors):
            _check_spd(factor, f"the AR(1) factor of {name}={getattr(self, name)}")

    @property
    def dims(self) -> Dims:
        return Dims(
            n_times=self.n_times,
            n_epochs=self.n_epochs,
            n_voxels=self.n_voxels,
            n_covariates=self.n_covariates,
        )

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The (within, between) AR(1) covariance factors."""
        return (ar1_cov(self.n_times, self.within_rho, WITHIN_SCALE),
                ar1_cov(self.n_epochs, self.between_rho))

    @property
    def sample_times(self) -> np.ndarray:
        """Post-stimulus times of the in-epoch samples, seconds."""
        return FIRST_SAMPLE + self.tr * np.arange(self.n_times)


def ar1_cov(dim: int, rho: float, scale: float = 1.0) -> np.ndarray:
    """First-order autoregressive covariance scale * rho^|i-j|."""
    if not (-1.0 < rho < 1.0):
        raise ValueError("rho must lie in (-1, 1)")
    idx = np.arange(dim)
    return scale * rho ** np.abs(idx[:, None] - idx[None, :])


def random_walk_design(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Realignment-style covariates, mean-centered with unit variance.

    Each column is a random-walk drift plus DESIGN_JITTER parts of
    scan-to-scan noise. The noise part keeps the columns from lying
    entirely in the low-frequency subspace; pure walks are so smooth
    that per-voxel nuisance fits absorb a noticeable share of the
    low-frequency noise spectrum and bias the covariance estimates.
    """
    if q == 0:
        return np.zeros((n, 0))
    steps = rng.standard_normal((n, q))
    walk = np.cumsum(steps, axis=0)
    sd = walk.std(axis=0, ddof=0)
    sd[sd == 0.0] = 1.0
    raw = walk / sd + DESIGN_JITTER * rng.standard_normal((n, q))
    raw = raw - raw.mean(axis=0, keepdims=True)
    sd = raw.std(axis=0, ddof=0)
    sd[sd == 0.0] = 1.0
    return raw / sd


def _mu_quad(params_h: np.ndarray, within: np.ndarray, between: np.ndarray) -> float:
    """mu' Sigma1^{-1} mu for the unit-norm shape regressor."""
    w_within = np.linalg.inv(within)
    w_between = np.linalg.inv(between)
    return float(w_between.sum() * (params_h @ w_within @ params_h))


def default_scenario(
    config: SimConfig = SimConfig(), seed: int = 0
) -> MixtureParams:
    """Ground-truth parameters for a scenario.

    Amplitudes are log-normal around snr / sqrt(mu' Sigma1^{-1} mu), so
    the typical responding voxel carries a t-test noncentrality near
    ``snr``; covariate coefficients are independent normals. Covariance
    factors are AR(1): between-epoch correlation between_rho (unit
    diagonal, so the trace convention holds), within-epoch correlation
    within_rho scaled by WITHIN_SCALE.
    """
    d = config.dims
    hrf = canonical_hrf(config.sample_times)
    within, between = config.factors
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    amp_center = config.snr / np.sqrt(_mu_quad(hrf, within, between))
    amplitude = amp_center * np.exp(AMP_SPREAD * rng.standard_normal(d.n_voxels))
    coeffs = COEFF_SCALE * rng.standard_normal((d.n_voxels, d.n_covariates))
    params = MixtureParams(
        active_prob=config.active_frac,
        amplitude=amplitude,
        coeffs=coeffs,
        hrf=hrf,
        within_cov=within,
        between_cov=between,
        noise_var=config.noise_var,
    )
    validate_params(params, d)
    return params


def _block_coords(n_voxels: int) -> tuple[np.ndarray, tuple[int, int, int]]:
    side = int(np.ceil(n_voxels ** (1.0 / 3.0)))
    while side**3 < n_voxels:
        side += 1
    grid = np.indices((side, side, side)).reshape(3, -1).T
    return np.ascontiguousarray(grid[:n_voxels]), (side, side, side)


@_gc_paused()
def generate(
    config: SimConfig,
    truth: MixtureParams,
    seed: int,
    design: np.ndarray | None = None,
) -> tuple[Dataset, SimTruth]:
    """Draw one dataset from the model at ``config``'s dims, TR, sample
    times and phase, with epochs STIMULUS_INTERVAL apart.

    Each voxel gets its own split random stream: membership first, then
    the structured (responding) or isotropic (non-responding) noise, so
    per-voxel reproducibility survives changes elsewhere. Responding
    noise is L_w G L_b for a standard normal (n_times, n_epochs) G and
    symmetric square roots of the covariance factors.

    The covariate term is one GEMM per kernels.voxel_blocks block, so
    the series bits depend only on n_voxels, not on the BLAS thread
    count.

    phase="jitter" samples each epoch's mean response at a uniformly
    offset grid, stores the offsets in the stimulus times, and records
    the undo shifts in the returned truth.
    """
    dims, tr = config.dims, config.tr
    validate_params(truth, dims)

    def stream(index: int) -> np.random.Generator:
        # child ``index`` of SeedSequence(seed), as spawn(n_voxels + 1)
        # makes it, built when needed instead of all V + 1 held at once
        return np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(index,)))

    shared = stream(dims.n_voxels)
    if design is None:
        design = random_walk_design(dims.n_images, dims.n_covariates, shared)
    design = np.asarray(design, dtype=np.float64)
    if design.shape != (dims.n_images, dims.n_covariates):
        raise ValueError("design shape does not match dims")

    epochs = np.arange(dims.n_epochs)
    if config.phase == "jitter":
        offsets = shared.uniform(-0.5, 0.5, size=dims.n_epochs)
        # onsets carry the jitter so alignment can derive the undo shifts
        stimulus_times = (
            np.round(epochs * STIMULUS_INTERVAL / tr) * tr + offsets * tr
        )
        sample_times = config.sample_times
        # every epoch's shape shares the on-grid normalization, so after
        # realignment the shapes coincide with truth.hrf
        base_norm = float(np.linalg.norm(hrf_shape_raw(sample_times)))
        mean_shape = np.empty((dims.n_epochs, dims.n_times))
        for j in range(dims.n_epochs):
            shifted = hrf_shape_raw(sample_times - offsets[j] * tr)
            mean_shape[j] = shifted / base_norm
        shift_undo = -offsets
    else:
        # onsets on the sampling grid: derived alignment shifts are zero
        stimulus_times = np.round(epochs * STIMULUS_INTERVAL / tr) * tr
        mean_shape = np.tile(truth.hrf, (dims.n_epochs, 1))
        shift_undo = np.zeros(dims.n_epochs)

    l_within = matrix_sqrt(truth.within_cov)
    l_between = matrix_sqrt(truth.between_cov)
    noise_sd = float(np.sqrt(truth.noise_var))
    series = np.empty((dims.n_voxels, dims.n_images))
    labels = np.empty(dims.n_voxels, dtype=np.int64)
    for block in voxel_blocks(dims.n_voxels):
        # the covariate term one block at a time, never a second (N, V) array
        covar_part = design @ truth.coeffs[block].T
        # a block's slice may stop past n_voxels
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
    coords, mask_shape = _block_coords(dims.n_voxels)
    dataset = Dataset(
        dims=dims,
        series=series,
        design=design,
        coords=coords,
        stimulus_times=np.asarray(stimulus_times, dtype=np.float64),
        tr=tr,
        mask_shape=mask_shape,
    )
    truth_out = SimTruth(
        params=truth, labels=labels, seed=seed, shift_offsets=shift_undo
    )
    return dataset, truth_out


def simulate_dataset(
    config: SimConfig = SimConfig(), seed: int = 0
) -> tuple[Dataset, SimTruth]:
    """Scenario parameters plus one generated dataset."""
    return generate(config, default_scenario(config, seed), seed)
