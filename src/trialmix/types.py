"""Core value types shared across the package.

Arrays are float64 throughout. Voxel series are stored epoch-major: the
response vector of one voxel has length ``n_epochs * n_times`` and its
first ``n_times`` entries belong to the first epoch.
"""
from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DegenerateDataError",
    "Dims",
    "Hrf",
    "Dataset",
    "MixtureParams",
    "FitResult",
    "ActivationMap",
    "SimTruth",
    "validate_params",
]

HRF_NORM_TOL = 1e-10
SYM_TOL = 1e-12
TRACE_TOL = 1e-8
# the volume grid's largest axis: it bounds a map's cells (2**24) and
# its slice images
MAX_GRID_AXIS = 256


@contextlib.contextmanager
def _gc_paused():
    """Run a block, or a decorated function, with the cyclic GC paused.

    Bundle and parameter JSON hold one short list per voxel row, and a
    simulated bundle spawns one random stream per voxel. At V=20k,
    building and dropping them with the collector on set off a full
    collection (20-30 ms, finding nothing) in every command; they hold
    no cycles, and the short-lived ones are gone before the collector
    resumes.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class DegenerateDataError(ValueError):
    """Raised when the data cannot support the requested estimate."""


@dataclass(frozen=True)
class Dims:
    """Problem dimensions.

    n_times: samples per epoch, n_epochs: epochs per voxel,
    n_voxels: voxels, n_covariates: nuisance design columns.
    """

    n_times: int
    n_epochs: int
    n_voxels: int
    n_covariates: int

    def __post_init__(self) -> None:
        if self.n_times < 2 or self.n_epochs < 1 or self.n_voxels < 1:
            raise ValueError(
                f"invalid dimensions: n_times={self.n_times}, "
                f"n_epochs={self.n_epochs}, n_voxels={self.n_voxels}"
            )
        if self.n_covariates < 0 or self.n_covariates >= self.n_images:
            raise ValueError(
                f"n_covariates={self.n_covariates} must lie in [0, {self.n_images})"
            )

    @property
    def n_images(self) -> int:
        """Total samples per voxel (epochs times samples per epoch)."""
        return self.n_times * self.n_epochs


@dataclass(frozen=True)
class Hrf:
    """Unit-norm response shape sampled at the post-stimulus times.

    ``flipped`` records whether the sign convention (entry of maximum
    absolute value is positive) required a flip of the raw estimate.
    """

    values: np.ndarray
    flipped: bool = False

    @classmethod
    def from_raw(cls, raw: np.ndarray) -> "Hrf":
        """Normalize a raw shape estimate to unit norm and fixed sign."""
        vec = np.asarray(raw, dtype=np.float64)
        nrm = float(np.linalg.norm(vec))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise DegenerateDataError("response shape must be nonzero and finite")
        vec = vec / nrm
        peak = vec[int(np.argmax(np.abs(vec)))]
        flipped = bool(peak < 0.0)
        if flipped:
            vec = -vec
        return cls(values=vec, flipped=flipped)

    def validate(self) -> None:
        vec = self.values
        if vec.ndim != 1:
            raise ValueError("response shape must be a vector")
        if not abs(np.linalg.norm(vec) - 1.0) <= HRF_NORM_TOL:  # NaN fails
            raise ValueError("response shape is not finite and unit norm")
        peak = vec[int(np.argmax(np.abs(vec)))]
        if peak < 0.0:
            raise ValueError("sign convention violated: dominant entry negative")


@dataclass(frozen=True)
class Dataset:
    """Masked voxel time series with their design and geometry.

    series: (n_voxels, n_images) response vectors, epoch-major.
    design: (n_images, n_covariates) nuisance covariates.
    coords: (n_voxels, 3) integer voxel coordinates.
    stimulus_times: (n_epochs,) stimulus onsets in seconds.
    tr: sampling interval in seconds.
    mask_shape: shape of the volume grid the coordinates index into; without
        it the grid is the coordinates' extent. Each axis is at most
        MAX_GRID_AXIS.

    Valid by construction: __post_init__ (so also dataclasses.replace)
    raises ValueError on a broken invariant. The package never mutates
    the arrays; centered design columns are em_fit's own condition.
    """

    dims: Dims
    series: np.ndarray
    design: np.ndarray
    coords: np.ndarray
    stimulus_times: np.ndarray
    tr: float
    mask_shape: tuple[int, int, int] | None = None

    def epoch_view(self) -> np.ndarray:
        """Series reshaped to (n_voxels, n_epochs, n_times) without copying."""
        d = self.dims
        return self.series.reshape(d.n_voxels, d.n_epochs, d.n_times)

    def __post_init__(self) -> None:
        d = self.dims
        if self.series.shape != (d.n_voxels, d.n_images):
            raise ValueError(
                f"series shape {self.series.shape} does not match dims "
                f"({d.n_voxels}, {d.n_images})"
            )
        if self.design.shape != (d.n_images, d.n_covariates):
            raise ValueError(
                f"design shape {self.design.shape} does not match dims "
                f"({d.n_images}, {d.n_covariates})"
            )
        if not np.all(np.isfinite(self.series)):
            raise ValueError("series contains non-finite values")
        if not np.all(np.isfinite(self.design)):
            raise ValueError("design contains non-finite values")
        if self.coords.shape != (d.n_voxels, 3):
            raise ValueError("coords must be (n_voxels, 3)")
        if np.any(self.coords < 0) or len(self.mask_shape or (0,) * 3) != 3:
            raise ValueError("coords must be nonnegative and mask_shape 3-D")
        if self.mask_shape is not None and np.any(self.coords >= self.mask_shape):
            raise ValueError("coords lie outside mask_shape")
        grid = self.mask_shape or self.coords.max(axis=0) + 1
        if max(grid) > MAX_GRID_AXIS:
            raise ValueError(
                f"volume grid {tuple(int(n) for n in grid)} exceeds "
                f"{MAX_GRID_AXIS} per axis"
            )
        # any lexicographic row order puts equal rows next to each other;
        # np.unique(axis=0) sorts the rows as void records, 7x slower
        rows = self.coords[np.lexsort(self.coords.T)]
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            raise ValueError("voxel coordinates are not unique")
        if self.stimulus_times.shape != (d.n_epochs,):
            raise ValueError("stimulus_times must have one entry per epoch")
        if not 0.0 < self.tr < np.inf:
            raise ValueError("tr must be positive and finite")


@dataclass(frozen=True)
class MixtureParams:
    """Parameters of the two-component model.

    active_prob: mixing proportion of the responding component.
    amplitude: (n_voxels,) per-voxel response amplitudes.
    coeffs: (n_voxels, n_covariates) per-voxel covariate coefficients.
    hrf: shared unit-norm response shape.
    within_cov: (n_times, n_times) within-epoch covariance factor.
    between_cov: (n_epochs, n_epochs) between-epoch covariance factor.
    noise_var: isotropic variance of the non-responding component.

    The responding component's covariance is the Kronecker product
    between_cov (x) within_cov over epoch-major response vectors.
    """

    active_prob: float
    amplitude: np.ndarray
    coeffs: np.ndarray
    hrf: Hrf
    within_cov: np.ndarray
    between_cov: np.ndarray
    noise_var: float

    def with_updates(self, **changes) -> "MixtureParams":
        return replace(self, **changes)

    def global_vector(self) -> np.ndarray:
        """Global parameters used by the convergence criterion."""
        return np.concatenate(
            [
                [self.active_prob],
                self.hrf.values,
                self.within_cov.ravel(),
                self.between_cov.ravel(),
                [self.noise_var],
            ]
        )


def _check_spd(mat: np.ndarray, label: str) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{label} must be square")
    if np.max(np.abs(mat - mat.T)) > SYM_TOL * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"{label} is not symmetric")
    if np.linalg.eigvalsh(mat)[0] <= 0.0:
        raise ValueError(f"{label} is not positive definite")


def validate_params(
    params: MixtureParams,
    dims: Dims | None = None,
    trace_convention: bool = True,
) -> None:
    """Assert every invariant of a parameter set.

    trace_convention: enforce trace(between_cov) = n_epochs. Only applies
    when both covariance factors are free; constrained fits that freeze a
    factor at identity carry the scale in the free factor.
    """
    if not (0.0 <= params.active_prob <= 1.0):
        raise ValueError(f"active_prob={params.active_prob} outside [0, 1]")
    if not 0.0 < params.noise_var < np.inf:
        raise ValueError("noise_var must be positive and finite")
    params.hrf.validate()
    _check_spd(params.within_cov, "within_cov")
    _check_spd(params.between_cov, "between_cov")
    n_epochs = params.between_cov.shape[0]
    if trace_convention:
        tr_between = float(np.trace(params.between_cov))
        if abs(tr_between - n_epochs) > TRACE_TOL * n_epochs:
            raise ValueError(
                f"trace(between_cov)={tr_between} violates the scale convention"
            )
    if params.amplitude.ndim != 1 or params.coeffs.ndim != 2:
        raise ValueError("amplitude must be 1-D and coeffs 2-D")
    if params.amplitude.shape[0] != params.coeffs.shape[0]:
        raise ValueError("amplitude and coeffs disagree on voxel count")
    if not np.all(np.isfinite(params.amplitude)) or not np.all(
        np.isfinite(params.coeffs)
    ):
        raise ValueError("per-voxel coefficients contain non-finite values")
    if dims is not None:
        if params.hrf.values.shape != (dims.n_times,):
            raise ValueError("response shape length does not match n_times")
        if params.within_cov.shape != (dims.n_times, dims.n_times):
            raise ValueError("within_cov does not match n_times")
        if params.between_cov.shape != (dims.n_epochs, dims.n_epochs):
            raise ValueError("between_cov does not match n_epochs")
        if params.amplitude.shape != (dims.n_voxels,):
            raise ValueError("amplitude does not match n_voxels")
        if params.coeffs.shape != (dims.n_voxels, dims.n_covariates):
            raise ValueError("coeffs do not match dims")


@dataclass(frozen=True)
class FitResult:
    """Output of the EM engine."""

    params: MixtureParams
    resp: np.ndarray
    loglik_trace: np.ndarray
    iterations: int
    converged: bool

    def validate(self) -> None:
        if np.any(self.resp < 0.0) or np.any(self.resp > 1.0):
            raise ValueError("responsibilities outside [0, 1]")
        if not np.all(np.isfinite(self.resp)):
            raise ValueError("responsibilities contain non-finite values")
        trace = np.asarray(self.loglik_trace)
        if not np.all(np.isfinite(trace)):
            raise ValueError("log-likelihood trace is not finite")
        if trace.size >= 2:
            slack = 1e-8 * np.maximum(1.0, np.abs(trace[:-1]))
            drops = trace[1:] - trace[:-1] + slack
            if np.any(drops < 0.0):
                raise ValueError("log-likelihood trace decreased beyond slack")


@dataclass(frozen=True)
class ActivationMap:
    """Per-voxel test results aligned with a dataset's voxel order.

    cluster label 0 means unassigned (not rejected, or component smaller
    than the minimum size).
    """

    t_stat: np.ndarray
    pvals: np.ndarray
    reject: np.ndarray
    cluster: np.ndarray
    df: int


@dataclass(frozen=True)
class SimTruth:
    """Ground truth attached to a synthetic dataset."""

    params: MixtureParams
    labels: np.ndarray
    seed: int
    shift_offsets: np.ndarray | None = None
