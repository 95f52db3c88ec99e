"""Synthetic data generator used as the estimation oracle.

Data are drawn exactly from the two-component model so that parameter
recovery, calibration, and model-comparison behavior can be verified
against known truth. Voxel streams are split from one root seed, so any
voxel's draws are reproducible independently of the others.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .em import canonical_hrf, hrf_shape_raw
from .kernels import BLOCK, voxel_blocks
from .linalg import matrix_sqrt
from .types import (MAX_GRID_AXIS, Dataset, Dims, MixtureParams, SimTruth,
                    _check_spd, validate_params)

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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hash
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's multiply-xorshift hash, its constant advancing per call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _spawn_words(seed: int, n_streams: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(v,)).generate_state(4, np.uint64)``
    for every v in range(n_streams), as an (n_streams, 4) uint64 array.

    SeedSequence's pool mixing and output hash in uint32 arithmetic, each
    word a uint32 array over v: numpy builds one SeedSequence per v.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    # the seed's little-endian 32-bit words, zero-padded to the pool size
    # because a spawn key follows; then the spawn key v
    n_words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    entropy = [np.array([(seed >> 32 * i) & _MASK32], dtype=np.uint32)
               for i in range(n_words)]
    entropy.append(np.arange(n_streams, dtype=np.uint32))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    # every pool word into every other, then each word past the pool's
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hashout = _hasher(_INIT_B, _MULT_B)
    state = np.empty((n_streams, 2 * _POOL_SIZE), dtype="<u4")
    for i in range(2 * _POOL_SIZE):
        state[:, i] = hashout(pool[i % _POOL_SIZE])
    # consecutive uint32 outputs pair into little-endian uint64 words
    return state.view("<u8").astype(np.uint64)


def _seat(bitgen: np.random.PCG64, words: list[int]) -> None:
    """Set ``bitgen`` to the state PCG64 seeds from four SeedSequence words."""
    w0, w1, w2, w3 = words
    inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
    state = ((inc + ((w0 << 64) | w1)) * _PCG64_MULT + inc) & _MASK128
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}


def generate(
    config: SimConfig,
    truth: MixtureParams,
    seed: int,
    design: np.ndarray | None = None,
) -> tuple[Dataset, SimTruth]:
    """Draw one dataset from the model at ``config``'s dims, TR, sample
    times and phase, with epochs STIMULUS_INTERVAL apart.

    Voxel v draws from its own stream,
    ``default_rng(SeedSequence(seed, spawn_key=(v,)))``: membership
    first, then the structured (responding) or isotropic
    (non-responding) noise, so per-voxel reproducibility survives
    changes elsewhere. The design and the jitter offsets draw from the
    stream at index n_voxels. numpy would build two Python-level seeding
    objects per stream; instead every stream's four seed words come from
    one vectorized pass of SeedSequence's arithmetic (_spawn_words), and
    one reused PCG64 is set to each stream's state in turn. The draws,
    and so the bits, are the same.

    Responding noise is L_w G L_b for a standard normal
    (n_times, n_epochs) G and symmetric square roots of the covariance
    factors, one batched product per kernels.voxel_blocks block. The
    covariate term is one GEMM and one add per block, so the series
    bits depend only on n_voxels, not on the BLAS thread count.

    phase="jitter" samples each epoch's mean response at a uniformly
    offset grid, stores the offsets in the stimulus times, and records
    the undo shifts in the returned truth.
    """
    dims, tr = config.dims, config.tr
    validate_params(truth, dims)

    words = _spawn_words(seed, dims.n_voxels + 1)
    bitgen = np.random.PCG64(0)  # set to each stream's state before it draws
    rng = np.random.Generator(bitgen)
    _seat(bitgen, words[dims.n_voxels].tolist())
    if design is None:
        design = random_walk_design(dims.n_images, dims.n_covariates, rng)
    design = np.asarray(design, dtype=np.float64)
    if design.shape != (dims.n_images, dims.n_covariates):
        raise ValueError("design shape does not match dims")

    epochs = np.arange(dims.n_epochs)
    if config.phase == "jitter":
        offsets = rng.uniform(-0.5, 0.5, size=dims.n_epochs)
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
    labels = np.zeros(dims.n_voxels, dtype=np.int64)
    normals = np.empty((BLOCK, dims.n_times, dims.n_epochs))
    for block in voxel_blocks(dims.n_voxels):
        # a block's slice may stop past n_voxels
        voxels = range(dims.n_voxels)[block]
        active, idle = [], []
        for v, voxel_words in zip(voxels,
                                  words[voxels.start:voxels.stop].tolist()):
            _seat(bitgen, voxel_words)
            if rng.random() < truth.active_prob:
                rng.standard_normal(out=normals[len(active)])
                active.append(v)
            else:
                rng.standard_normal(out=series[v])
                idle.append(v)
        series[idle] *= noise_sd
        if active:
            labels[active] = 1
            structured = l_within @ normals[:len(active)] @ l_between
            mean = truth.amplitude[active][:, None, None] * mean_shape
            series[active] = (
                mean + structured.transpose(0, 2, 1)
            ).reshape(len(active), -1)
        # the covariate term one block at a time, never a second (N, V) array
        series[block] += (design @ truth.coeffs[block].T).T
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
