"""Core value types shared across the package.

Arrays are float64 throughout. Voxel series are stored epoch-major: the
response vector of one voxel has length ``n_epochs * n_times`` and its
first ``n_times`` entries belong to the first epoch.

Every parameter is a plain array or number; validate_params states
their invariants, among them the one positivity rule for a covariance
factor (_spd_floor).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DegenerateDataError",
    "Dims",
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
# A covariance factor is positive definite when its smallest eigenvalue
# exceeds SPD_FLOOR times its mean eigenvalue. Fits stay above it:
# regularize_spd keeps an estimated factor's condition number at most
# 1e12, the trace rescale keeps eigenvalue ratios, and the spherical and
# identity factors are multiples of I.
SPD_FLOOR = 1e-12
# the volume grid's largest axis: it bounds a map's cells (2**24) and
# its slice images
MAX_GRID_AXIS = 256
# the largest covariance factor side, n_times or n_epochs
MAX_FACTOR_DIM = 64


class DegenerateDataError(ValueError):
    """Raised when the data cannot support the requested estimate."""


def _intervene(message: str) -> None:
    """Report a numerical intervention (a skipped update, a ridge, a
    fallback) as a RuntimeWarning at the caller of the function that
    made it; the package raises every warning here."""
    warnings.warn(message, RuntimeWarning, stacklevel=3)


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
        if max(self.n_times, self.n_epochs) > MAX_FACTOR_DIM:
            raise ValueError(f"n_times and n_epochs must be at most {MAX_FACTOR_DIM}")
        if self.n_covariates < 0 or self.n_covariates >= self.n_images:
            raise ValueError(
                f"n_covariates={self.n_covariates} must lie in [0, {self.n_images})"
            )

    @property
    def n_images(self) -> int:
        """Total samples per voxel (epochs times samples per epoch)."""
        return self.n_times * self.n_epochs


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

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        """The volume grid: mask_shape, or else the coordinates' extent."""
        grid = self.mask_shape or self.coords.max(axis=0) + 1
        return tuple(int(n) for n in grid)

    def grid_mask(self) -> np.ndarray:
        """Boolean volume of grid_shape, True at the voxels' coordinates."""
        mask = np.zeros(self.grid_shape, dtype=bool)
        mask[tuple(self.coords.T)] = True
        return mask

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
        if max(self.grid_shape) > MAX_GRID_AXIS:
            raise ValueError(
                f"volume grid {self.grid_shape} exceeds {MAX_GRID_AXIS} per axis"
            )
        # any lexicographic row order puts equal rows next to each other;
        # np.unique(axis=0) sorts the rows as void records, 7x slower
        rows = self.coords[np.lexsort(self.coords.T)]
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            raise ValueError("voxel coordinates are not unique")
        if self.stimulus_times.shape != (d.n_epochs,):
            raise ValueError("stimulus_times must have one entry per epoch")
        if not np.all(np.isfinite(self.stimulus_times)):
            raise ValueError("stimulus_times contains non-finite values")
        if not 0.0 < self.tr < np.inf:
            raise ValueError("tr must be positive and finite")


@dataclass(frozen=True)
class MixtureParams:
    """Parameters of the two-component model.

    active_prob: mixing proportion of the responding component.
    amplitude: (n_voxels,) per-voxel response amplitudes.
    coeffs: (n_voxels, n_covariates) per-voxel covariate coefficients.
    hrf: (n_times,) shared response shape, unit norm with its entry of
        largest magnitude positive.
    within_cov: (n_times, n_times) within-epoch covariance factor.
    between_cov: (n_epochs, n_epochs) between-epoch covariance factor.
    noise_var: isotropic variance of the non-responding component.

    The responding component's covariance is the Kronecker product
    between_cov (x) within_cov over epoch-major response vectors.
    """

    active_prob: float
    amplitude: np.ndarray
    coeffs: np.ndarray
    hrf: np.ndarray
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
                self.hrf,
                self.within_cov.ravel(),
                self.between_cov.ravel(),
                [self.noise_var],
            ]
        )


def _check_symmetric(mat: np.ndarray, label: str) -> None:
    """The package's one symmetry rule, relative to the largest entry."""
    if np.max(np.abs(mat - mat.T)) > SYM_TOL * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"{label} is not symmetric")


def _spd_floor(mat: np.ndarray) -> float:
    """The bound a positive definite factor's smallest eigenvalue exceeds."""
    return SPD_FLOOR * max(float(np.trace(mat)), 0.0) / mat.shape[0]


def _check_spd(mat: np.ndarray, label: str) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{label} must be square")
    _check_symmetric(mat, label)
    if np.linalg.eigvalsh(mat)[0] <= _spd_floor(mat):
        raise ValueError(f"{label} is not positive definite")


def validate_params(
    params: MixtureParams,
    dims: Dims,
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
    hrf = params.hrf
    if hrf.shape != (dims.n_times,):
        raise ValueError("response shape length does not match n_times")
    if not abs(np.linalg.norm(hrf) - 1.0) <= HRF_NORM_TOL:  # NaN fails
        raise ValueError("response shape is not finite and unit norm")
    if hrf[int(np.argmax(np.abs(hrf)))] < 0.0:
        raise ValueError("sign convention violated: dominant entry negative")
    _check_spd(params.within_cov, "within_cov")
    _check_spd(params.between_cov, "between_cov")
    n_epochs = params.between_cov.shape[0]
    if trace_convention:
        tr_between = float(np.trace(params.between_cov))
        if abs(tr_between - n_epochs) > TRACE_TOL * n_epochs:
            raise ValueError(
                f"trace(between_cov)={tr_between} violates the scale convention"
            )
    if params.within_cov.shape != (dims.n_times, dims.n_times):
        raise ValueError("within_cov does not match n_times")
    if params.between_cov.shape != (dims.n_epochs, dims.n_epochs):
        raise ValueError("between_cov does not match n_epochs")
    if params.amplitude.shape != (dims.n_voxels,):
        raise ValueError("amplitude does not match n_voxels")
    if params.coeffs.shape != (dims.n_voxels, dims.n_covariates):
        raise ValueError("coeffs do not match dims")
    if not np.all(np.isfinite(params.amplitude)) or not np.all(
        np.isfinite(params.coeffs)
    ):
        raise ValueError("per-voxel coefficients contain non-finite values")


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
