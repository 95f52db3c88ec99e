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
from .linalg import MAX_DIM, matrix_sqrt
from .types import (MAX_GRID_AXIS, Dataset, Dims, MixtureParams, SimTruth,
                    _gc_paused, validate_params)

__all__ = [
    "SimConfig",
    "ar1_cov",
    "random_walk_design",
    "default_scenario",
    "generate",
    "simulate_dataset",
]


@dataclass(frozen=True)
class SimConfig:
    """Shape and signal constants of the synthetic scenario.

    The defaults mirror the acquisition the model was designed around:
    14 samples per epoch at a 2 s interval, 10 epochs 28.25 s apart,
    6 drifting covariates, and first post-stimulus sample at 5/6 s.
    ``phase`` controls trial timing: "zero" samples every epoch on the
    nominal grid (data follow the model exactly), "jitter" adds a
    uniform offset per epoch that preprocessing must undo.
    ``amp_spread``, the log-normal spread of the amplitudes, lies in
    [0, 10], so exp(amp_spread * z) is finite for every normal draw z.
    ``n_voxels`` is at most MAX_GRID_AXIS**3, so the cube grid the
    voxels fill stays within the volume bound.
    """

    n_times: int = 14
    n_epochs: int = 10
    n_voxels: int = 2000
    n_covariates: int = 6
    tr: float = 2.0
    stimulus_interval: float = 28.25
    first_sample: float = 5.0 / 6.0
    active_frac: float = 0.3
    snr: float = 3.8
    amp_spread: float = 0.25
    coeff_scale: float = 0.3
    design_jitter: float = 1.0
    within_rho: float = 0.35
    within_scale: float = 1.3
    between_rho: float = 0.25
    noise_var: float = 1.0
    phase: str = "zero"

    def __post_init__(self) -> None:
        for name in ("n_times", "n_epochs", "n_voxels", "n_covariates"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        self.dims  # range checks
        if max(self.n_times, self.n_epochs) > MAX_DIM:
            raise ValueError(f"n_times and n_epochs must be at most {MAX_DIM}")
        if self.n_voxels > MAX_GRID_AXIS**3:
            raise ValueError(
                f"n_voxels: the cube grid would exceed {MAX_GRID_AXIS} per axis"
            )
        if not 0.0 <= self.amp_spread <= 10.0:
            raise ValueError("amp_spread must lie in [0, 10]")
        if self.tr <= 0.0 or self.first_sample < 0.0:
            raise ValueError("tr must be positive and first_sample nonnegative")
        canonical_hrf(self.sample_times)  # a shape that underflows to 0 fails
        if not (abs(self.within_rho) < 1.0 and abs(self.between_rho) < 1.0):
            raise ValueError("within_rho and between_rho must lie in (-1, 1)")
        if not (0.0 <= self.active_frac <= 1.0):
            raise ValueError("active_frac must lie in [0, 1]")
        if self.phase not in ("zero", "jitter"):
            raise ValueError('phase must be "zero" or "jitter"')
        if self.noise_var <= 0.0 or self.within_scale <= 0.0:
            raise ValueError("variances must be positive")

    @property
    def dims(self) -> Dims:
        return Dims(
            n_times=self.n_times,
            n_epochs=self.n_epochs,
            n_voxels=self.n_voxels,
            n_covariates=self.n_covariates,
        )

    @property
    def sample_times(self) -> np.ndarray:
        """Post-stimulus times of the in-epoch samples, seconds."""
        return self.first_sample + self.tr * np.arange(self.n_times)


def ar1_cov(dim: int, rho: float, scale: float = 1.0) -> np.ndarray:
    """First-order autoregressive covariance scale * rho^|i-j|."""
    if not (-1.0 < rho < 1.0):
        raise ValueError("rho must lie in (-1, 1)")
    idx = np.arange(dim)
    return scale * rho ** np.abs(idx[:, None] - idx[None, :])


def random_walk_design(
    n: int, q: int, rng: np.random.Generator, jitter: float = 1.0
) -> np.ndarray:
    """Realignment-style covariates, mean-centered with unit variance.

    Each column is a random-walk drift plus ``jitter`` parts of
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
    raw = walk / sd + jitter * rng.standard_normal((n, q))
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
    within_rho scaled by within_scale.
    """
    d = config.dims
    hrf = canonical_hrf(config.sample_times)
    within = ar1_cov(d.n_times, config.within_rho, config.within_scale)
    between = ar1_cov(d.n_epochs, config.between_rho, 1.0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    amp_center = config.snr / np.sqrt(_mu_quad(hrf.values, within, between))
    amplitude = amp_center * np.exp(
        config.amp_spread * rng.standard_normal(d.n_voxels)
    )
    coeffs = config.coeff_scale * rng.standard_normal((d.n_voxels, d.n_covariates))
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
    dims: Dims,
    truth: MixtureParams,
    seed: int,
    tr: float = 2.0,
    stimulus_interval: float = 28.25,
    sample_times: np.ndarray | None = None,
    design: np.ndarray | None = None,
    design_jitter: float = 1.0,
    phase: str = "zero",
) -> tuple[Dataset, SimTruth]:
    """Draw one dataset from the model.

    Each voxel gets its own split random stream: membership first, then
    the structured (responding) or isotropic (non-responding) noise, so
    per-voxel reproducibility survives changes elsewhere. Responding
    noise is L_w G L_b for a standard normal (n_times, n_epochs) G and
    symmetric square roots of the covariance factors.

    phase="jitter" samples each epoch's mean response at a uniformly
    offset grid, stores the offsets in the stimulus times, and records
    the undo shifts in the returned truth.
    """
    validate_params(truth, dims)
    if phase not in ("zero", "jitter"):
        raise ValueError('phase must be "zero" or "jitter"')
    root = np.random.SeedSequence(seed)
    streams = root.spawn(dims.n_voxels + 1)
    shared = np.random.default_rng(streams[-1])
    if design is None:
        design = random_walk_design(
            dims.n_images, dims.n_covariates, shared, jitter=design_jitter
        )
    design = np.asarray(design, dtype=np.float64)
    if design.shape != (dims.n_images, dims.n_covariates):
        raise ValueError("design shape does not match dims")

    epochs = np.arange(dims.n_epochs)
    if phase == "jitter":
        offsets = shared.uniform(-0.5, 0.5, size=dims.n_epochs)
        # onsets carry the jitter so alignment can derive the undo shifts
        stimulus_times = (
            np.round(epochs * stimulus_interval / tr) * tr + offsets * tr
        )
        if sample_times is None:
            sample_times = tr * (np.arange(dims.n_times) + 0.5)
        sample_times = np.asarray(sample_times, dtype=np.float64)
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
        stimulus_times = np.round(epochs * stimulus_interval / tr) * tr
        mean_shape = np.tile(truth.hrf.values, (dims.n_epochs, 1))
        shift_undo = np.zeros(dims.n_epochs)

    l_within = matrix_sqrt(truth.within_cov)
    l_between = matrix_sqrt(truth.between_cov)
    noise_sd = float(np.sqrt(truth.noise_var))
    series = np.empty((dims.n_voxels, dims.n_images))
    labels = np.empty(dims.n_voxels, dtype=np.int64)
    covar_part = design @ truth.coeffs.T
    for v in range(dims.n_voxels):
        rng = np.random.default_rng(streams[v])
        z = rng.random() < truth.active_prob
        labels[v] = int(z)
        if z:
            g = rng.standard_normal((dims.n_times, dims.n_epochs))
            structured = l_within @ g @ l_between
            mean = truth.amplitude[v] * mean_shape
            series[v] = (mean + structured.T).ravel()
        else:
            series[v] = noise_sd * rng.standard_normal(dims.n_images)
        series[v] += covar_part[:, v]
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
    truth = default_scenario(config, seed)
    return generate(
        config.dims,
        truth,
        seed,
        tr=config.tr,
        stimulus_interval=config.stimulus_interval,
        sample_times=config.sample_times,
        design_jitter=config.design_jitter,
        phase=config.phase,
    )
