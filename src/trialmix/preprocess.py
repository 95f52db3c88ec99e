"""Time-series and volume preprocessing.

Pipeline order is mask -> smooth -> trial alignment -> high-pass ->
mean-centering. The high-pass removes slow drift by projecting out
low-order cosine basis functions; trial alignment resamples each epoch
onto a common post-stimulus grid with a Fourier phase shift.

preprocess_dataset holds one output array the size of the series.
Alignment, the high-pass and centering act on each voxel's series
alone, so they run on one block of voxels at a time and write it into
that array; only the (n_images, n_covariates) design is filtered whole.
The blocks are kernels.voxel_blocks, fixed 256-voxel blocks in a fixed
order, and they define the bits: the high-pass GEMMs round as products
of a block, not of the whole series, and the same at any BLAS thread
count.

_smooth_axes imports scipy.ndimage inside the function: only smoothing
needs it, and loading it at the top would slow the start-up of every
command.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .types import Dataset, DegenerateDataError, Dims

__all__ = [
    "PreprocConfig",
    "mean_center",
    "center_columns",
    "dct_basis",
    "dct_highpass",
    "trial_time_shift",
    "shift_offsets_from_stimulus",
    "gaussian_smooth_3d",
    "apply_mask",
    "preprocess_dataset",
]

FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


@dataclass(frozen=True)
class PreprocConfig:
    """Switches and constants for the preprocessing pipeline."""

    smooth_fwhm: float = 0.0
    voxel_size: tuple[float, float, float] = (1.0, 1.0, 1.0)
    align_trials: bool = True
    highpass_cutoff: float | None = 128.0
    center: bool = True

    def __post_init__(self) -> None:
        if self.smooth_fwhm < 0.0:
            raise ValueError("smooth_fwhm must be nonnegative")
        if any(v <= 0.0 for v in self.voxel_size):
            raise ValueError("voxel_size entries must be positive")
        if self.highpass_cutoff is not None and self.highpass_cutoff <= 0.0:
            raise ValueError("highpass_cutoff must be positive")


def mean_center(series: np.ndarray) -> np.ndarray:
    """Subtract the temporal mean (last axis)."""
    series = np.asarray(series, dtype=np.float64)
    return series - series.mean(axis=-1, keepdims=True)


def center_columns(design: np.ndarray) -> np.ndarray:
    """Subtract column means of a design matrix."""
    design = np.asarray(design, dtype=np.float64)
    return design - design.mean(axis=0, keepdims=True)


def dct_basis(n: int, n_funcs: int) -> np.ndarray:
    """Cosine drift basis, shape (n, n_funcs), order k = 1..n_funcs.

    Column k-1 samples cos(pi * k * (2t + 1) / (2n)). The constant (k = 0)
    function is excluded; remove means separately.
    """
    if n_funcs >= n:
        raise ValueError(f"cannot remove {n_funcs} basis functions from {n} samples")
    t = np.arange(n, dtype=np.float64)
    k = np.arange(1, n_funcs + 1, dtype=np.float64)
    return np.cos(np.pi * np.outer(2.0 * t + 1.0, k) / (2.0 * n))


def dct_highpass(series: np.ndarray, tr: float, cutoff: float) -> np.ndarray:
    """Remove slow drift below the cutoff period (seconds).

    Projects out the cosine basis functions with period longer than
    ``cutoff``; the number removed is floor(2 * n * tr / cutoff). Works on
    a single series or a (batch, n) array. The projection is idempotent
    and leaves constant series untouched.
    """
    if cutoff <= 2.0 * tr:
        raise ValueError(
            f"high-pass cutoff {cutoff} s must exceed twice the sampling "
            f"interval ({2.0 * tr} s)"
        )
    series = np.asarray(series, dtype=np.float64)
    n = series.shape[-1]
    basis = dct_basis(n, int(np.floor(2.0 * n * tr / cutoff)))
    # basis columns are exactly orthogonal with squared norm n/2
    coef = series @ basis * (2.0 / n)
    return series - coef @ basis.T


def trial_time_shift(series: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Resample each epoch at t - shift via a Fourier phase shift.

    ``series`` has length n_epochs * n_times (epoch-major; batch leading
    axes allowed); ``shifts`` gives one fractional offset per epoch in
    sampling-interval units. Frequency f of an epoch's DFT is multiplied
    by exp(-2i*pi*f*shift/n_times). For even-length epochs the Nyquist
    bin has no real-valued pure-phase image and is scaled by
    cos(pi*shift), which attenuates that component; fractional shifts are
    exactly invertible for odd epoch lengths.
    """
    series = np.asarray(series, dtype=np.float64)
    shifts = np.asarray(shifts, dtype=np.float64)
    if shifts.ndim != 1:
        raise ValueError("shifts must be a vector with one entry per epoch")
    if not np.all(np.isfinite(shifts)):
        raise ValueError("shifts must be finite")
    n_epochs = shifts.shape[0]
    n = series.shape[-1]
    if n % n_epochs != 0:
        raise ValueError(
            f"series length {n} is not a multiple of {n_epochs} epochs"
        )
    n_times = n // n_epochs
    shaped = series.reshape(series.shape[:-1] + (n_epochs, n_times))
    spec = np.fft.rfft(shaped, axis=-1)
    freqs = np.arange(spec.shape[-1], dtype=np.float64)
    phase = np.exp(-2j * np.pi * np.einsum("f,e->ef", freqs, shifts) / n_times)
    if n_times % 2 == 0:
        # mirror-symmetric treatment of the Nyquist bin keeps output real
        phase[:, -1] = np.cos(np.pi * shifts)
    spec = spec * phase
    out = np.fft.irfft(spec, n=n_times, axis=-1)
    return out.reshape(series.shape)


def shift_offsets_from_stimulus(stimulus_times: np.ndarray, tr: float) -> np.ndarray:
    """Per-epoch alignment shifts derived from stimulus onsets modulo TR.

    A stimulus arriving a fraction u of a TR after a grid point delays the
    response by u on the sampling grid; resampling at t - (-u) realigns
    it, so the returned shifts are -u wrapped to (-1/2, 1/2].
    """
    frac = np.mod(np.asarray(stimulus_times, dtype=np.float64) / tr, 1.0)
    frac = np.where(frac > 0.5, frac - 1.0, frac)
    return -frac


def _axis_kernel(sigma: float, max_radius: int) -> np.ndarray:
    if sigma <= 0.0:
        return np.array([1.0])
    # a tap past the grid's extent meets no voxel, and every smoothing
    # divides by the smoothed support, so the normalization cancels
    radius = int(min(np.ceil(4.0 * sigma), max_radius))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kern = np.exp(-0.5 * (x / sigma) ** 2)
    return kern / kern.sum()


def _smooth_axes(
    arr: np.ndarray, fwhm: float, voxel_size: tuple[float, float, float]
) -> np.ndarray:
    """Correlate the first three axes with their sampled Gaussians.

    Every line is filtered on its own, so a stack of volumes along a
    fourth axis gives the same bits as smoothing each volume alone.
    """
    from scipy import ndimage

    for axis in range(3):
        kern = _axis_kernel(fwhm * FWHM_TO_SIGMA / voxel_size[axis],
                            arr.shape[axis] - 1)
        arr = ndimage.correlate1d(arr, kern, axis=axis, mode="constant", cval=0.0)
    return arr


def gaussian_smooth_3d(
    volume: np.ndarray,
    fwhm: float,
    voxel_size: tuple[float, float, float] = (1.0, 1.0, 1.0),
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Separable Gaussian smoothing with mask-aware renormalization.

    ``volume`` is (X, Y, Z) or a stack (X, Y, Z, ...) of volumes that
    share the (X, Y, Z) ``mask``; each gets the bits it gets alone.
    The kernel along each axis is a sampled Gaussian with sigma =
    fwhm / (2 sqrt(2 ln 2)) / voxel_size, truncated at 4 sigma and
    normalized to sum 1. At every voxel the weighted average is
    renormalized over in-volume, in-mask support: masked voxels
    contribute to neither the numerator nor the normalizer. Voxels
    outside the mask are returned as 0.
    """
    volume = np.asarray(volume, dtype=np.float64)
    if volume.ndim < 3:
        raise ValueError("volume must be 3-D or a stack of 3-D volumes")
    if fwhm < 0.0:
        raise ValueError("fwhm must be nonnegative")
    grid = volume.shape[:3]
    if mask is None:
        mask = np.ones(grid, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != grid:
            raise ValueError("mask shape must match the volume grid")
    stack = volume.reshape(grid + (-1,))
    num = _smooth_axes(np.where(mask[..., None], stack, 0.0), fwhm, voxel_size)
    den = _smooth_axes(mask.astype(np.float64), fwhm, voxel_size)
    inside = mask & (den > 0.0)
    out = np.zeros_like(stack)
    out[inside] = num[inside] / den[inside][:, None]
    return out.reshape(volume.shape)


def apply_mask(
    volumes: np.ndarray,
    mask: np.ndarray,
    tr: float,
    stimulus_times: np.ndarray,
    design: np.ndarray | None = None,
) -> Dataset:
    """Extract masked voxel series from a (X, Y, Z, N) volume stack.

    Voxels appear in C-scan order of their coordinates. ``design``
    defaults to an empty (N, 0) matrix.
    """
    volumes = np.asarray(volumes, dtype=np.float64)
    if volumes.ndim != 4:
        raise ValueError("volumes must be 4-D (x, y, z, time)")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != volumes.shape[:3]:
        raise ValueError("mask shape must match the volume grid")
    n_total = volumes.shape[3]
    stimulus_times = np.asarray(stimulus_times, dtype=np.float64)
    n_epochs = stimulus_times.shape[0]
    if n_total % n_epochs != 0:
        raise ValueError(
            f"{n_total} samples do not divide into {n_epochs} epochs"
        )
    coords = np.argwhere(mask)
    if coords.shape[0] == 0:
        raise ValueError("mask selects no voxels")
    series = volumes[mask]
    if design is None:
        design = np.zeros((n_total, 0))
    design = np.asarray(design, dtype=np.float64)
    dims = Dims(
        n_times=n_total // n_epochs,
        n_epochs=n_epochs,
        n_voxels=coords.shape[0],
        n_covariates=design.shape[1],
    )
    return Dataset(
        dims=dims,
        series=np.ascontiguousarray(series),
        design=design,
        coords=np.ascontiguousarray(coords),
        stimulus_times=stimulus_times,
        tr=float(tr),
        mask_shape=tuple(int(s) for s in mask.shape),
    )


def _smooth_dataset(ds: Dataset, cfg: PreprocConfig) -> np.ndarray:
    """gaussian_smooth_3d of every image under the dataset's mask, one
    epoch (n_times images) per call, in one new (n_voxels, n_images)
    array."""
    if ds.mask_shape is None:
        raise ValueError("smoothing requires mask_shape on the dataset")
    mask = np.zeros(ds.mask_shape, dtype=bool)
    idx = tuple(ds.coords.T)
    mask[idx] = True
    out = np.empty_like(ds.series)
    # every epoch fills the same voxels, so the rest stays 0
    stack = np.zeros(mask.shape + (ds.dims.n_times,))
    for start in range(0, ds.dims.n_images, ds.dims.n_times):
        chunk = slice(start, start + ds.dims.n_times)
        stack[idx] = ds.series[:, chunk]
        out[:, chunk] = gaussian_smooth_3d(
            stack, cfg.smooth_fwhm, cfg.voxel_size, mask
        )[idx]
    return out


def preprocess_dataset(ds: Dataset, cfg: PreprocConfig) -> Dataset:
    """Run the enabled pipeline steps and return a new dataset.

    Applies, in order: Gaussian smoothing (when smooth_fwhm > 0), trial
    alignment from the stimulus times, high-pass filtering of both the
    series and the design (when a cutoff is set), and mean-centering of
    both. A result that overflowed raises DegenerateDataError.

    The series gets one new (n_voxels, n_images) array: smoothing writes
    it, and the later steps read each block of voxels from it (or from
    the input) and write the block back, so they add only the block's
    temporaries.
    """
    if cfg.smooth_fwhm > 0.0:
        series = out = _smooth_dataset(ds, cfg)
    else:
        series, out = ds.series, np.empty_like(ds.series)
    design = ds.design
    shifts = shift_offsets_from_stimulus(ds.stimulus_times, ds.tr)
    if cfg.highpass_cutoff is not None:
        design = dct_highpass(design.T, ds.tr, cfg.highpass_cutoff).T
    if cfg.center:
        design = center_columns(design)
    for sl in kernels.voxel_blocks(ds.dims.n_voxels):
        block = series[sl]
        if cfg.align_trials:
            block = trial_time_shift(block, shifts)
        if cfg.highpass_cutoff is not None:
            block = dct_highpass(block, ds.tr, cfg.highpass_cutoff)
        if cfg.center:
            block = mean_center(block)
        out[sl] = block
    try:
        return replace(ds, series=out, design=design)
    except ValueError as e:  # finite input whose processing overflowed
        raise DegenerateDataError(f"preprocess: {e}") from None
