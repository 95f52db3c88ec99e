"""Activation inference: amplitude t-tests under the fitted responding
precision, adaptive FDR, and spatial clustering of the rejected voxels.

InferenceConfig declares the stage's settings and defaults once;
activation_map takes it whole, and its steps take plain values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import quad_forms_kron, voxel_blocks
from .linalg import inv_spd, kron_apply
from .types import (ActivationMap, Dataset, DegenerateDataError, FitResult,
                    MixtureParams, _intervene)

__all__ = [
    "InferenceConfig",
    "t_statistics",
    "t_sf",
    "FdrResult",
    "fdr_adaptive",
    "cluster_active",
    "activation_map",
]


def _gls_design(
    dataset: Dataset, params: MixtureParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The responding component's generalized-least-squares design: the
    inverse factors w_within and w_between, Z = [m, design] with
    m = 1_E (x) hrf, PZ under P = w_between (x) w_within, and the Gram
    matrix Z'PZ. The fit's mean block and the amplitude t-test share it;
    a shape regressor with no precision norm raises DegenerateDataError.
    """
    w_within = inv_spd(params.within_cov)
    w_between = inv_spd(params.between_cov)
    z = np.concatenate(
        [np.tile(params.hrf, dataset.dims.n_epochs)[:, None], dataset.design],
        axis=1)
    pz = kron_apply(w_between, z, w_within)
    gram = z.T @ pz
    if gram[0, 0] <= 0.0:
        raise DegenerateDataError("shape regressor has zero precision norm")
    return w_within, w_between, z, pz, gram


def t_statistics(dataset: Dataset, params: MixtureParams) -> tuple[np.ndarray, int]:
    """Amplitude t-statistics of every voxel, and their degrees of freedom.

    Amplitude and covariates are re-fitted by generalized least squares
    under the responding precision P (_gls_design) on df = n - q - 1
    degrees of freedom, one block of kernels.BLOCK voxels at a time: the
    coefficients c solve (Z'PZ) c = Z'Py, and s^2 = r'Pr / df for the
    residual r = y - Zc. Then t = c_0 / sqrt(s^2 / m'Pm): this standard
    error leaves out the covariates, which s^2 [inv(Z'PZ)]_00 would
    count. An exact fit gives +-inf by the amplitude's sign, or 0 for a
    zero amplitude (a flat voxel carries no evidence of a response).
    """
    d = dataset.dims
    df = d.n_images - d.n_covariates - 1
    if df < 1:
        raise DegenerateDataError(
            f"nonpositive degrees of freedom: n={d.n_images}, q={d.n_covariates}")
    w_within, w_between, z, pz, gram = _gls_design(dataset, params)
    t = np.empty(d.n_voxels)
    n_exact = 0
    for sl in voxel_blocks(d.n_voxels):
        series = dataset.series[sl]
        coef = np.linalg.solve(gram, (series @ pz).T)
        resid = series - (z @ coef).T
        s2 = quad_forms_kron(
            resid.reshape(-1, d.n_epochs, d.n_times), w_within, w_between) / df
        amp = coef[0]
        t_blk = np.where(amp < 0.0, -np.inf, np.inf)
        t_blk[amp == 0.0] = 0.0
        good = s2 > 0.0
        t_blk[good] = amp[good] / np.sqrt(s2[good] / gram[0, 0])
        t[sl] = t_blk
        n_exact += int(np.sum(~good))
    if n_exact:
        _intervene(
            f"{n_exact} voxel(s) fit exactly; t set to +-inf, "
            "or 0 where the amplitude is 0"
        )
    return t, df


# an entry's continued fraction stops once its last factor lies this
# close to 1; at 1e-16, below the factors' roundoff, some never stopped
CF_TOL = 1e-15
CF_MAX_TERMS = 1000
_CF_TINY = 1e-300
# entries per pass of t_sf: its temporaries over all 50,000 voxels of a
# fit at once set the fit's peak
SCREEN_CHUNK = 4096


def _off_zero(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _CF_TINY, _CF_TINY, v)


def _beta_cf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction of the regularized incomplete beta function,
    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * cf, by the modified Lentz
    method; it converges fast for x < (a + 1) / (a + b + 2).

    Entries leave the iteration as their factor reaches CF_TOL;
    FloatingPointError if some entry has not after CF_MAX_TERMS terms.
    """
    out = np.empty_like(x)
    live = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 / _off_zero(1.0 - (a + b) * x / (a + 1.0))
    h = d.copy()
    for m in range(1, CF_MAX_TERMS + 1):
        for coef in (m * (b - m) / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1.0))):
            num = coef * x
            d = 1.0 / _off_zero(1.0 + num * d)
            c = _off_zero(1.0 + num / c)
            delta = c * d
            h *= delta
        done = np.abs(delta - 1.0) < CF_TOL
        out[live[done]] = h[done]
        live, x, c, d, h = (v[~done] for v in (live, x, c, d, h))
        if not live.size:
            return out
    raise FloatingPointError(
        f"t_sf: incomplete beta continued fraction for a={a}, b={b} did not "
        f"converge in {CF_MAX_TERMS} terms"
    )


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a >= b > 0. For a >= 100, lgamma(a) - lgamma(a + b)
    would cancel to an absolute error of 1e-16 lgamma(a), so it comes from
    Stirling's series, truncated past the z^-7 term (remainder < 1e-21)."""
    if a < 100.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def stirling_rest(z: float) -> float:  # lgamma(z) - Stirling's formula
        w = 1.0 / (z * z)
        return (1.0 / 12 - w * (1.0 / 360 - w * (1.0 / 1260 - w / 1680))) / z

    return (math.lgamma(b) - b * math.log(a) - (a + b - 0.5) * math.log1p(b / a)
            + b + stirling_rest(a) - stirling_rest(a + b))


def _beta_inc(a: float, b: float, x: np.ndarray, y: np.ndarray,
              log_x: np.ndarray, log_y: np.ndarray) -> np.ndarray:
    """I_x(a, b) at x in [0, 1], given y = 1 - x and both logarithms
    (which may be -inf) computed without cancellation: the continued
    fraction in x where it converges fast, else 1 - I_y(b, a)."""
    log_beta = _log_beta(max(a, b), min(a, b))
    direct = x <= (a + 1.0) / (a + b + 2.0)
    out = np.empty_like(x)
    front = np.exp(a * log_x + b * log_y - log_beta)
    out[direct] = front[direct] * _beta_cf(a, b, x[direct]) / a
    flip = ~direct
    out[flip] = 1.0 - front[flip] * _beta_cf(b, a, y[flip]) / b
    return out


def t_sf(t: np.ndarray | float, df: int) -> np.ndarray | float:
    """Upper-tail probability of the t distribution.

    Evaluated through the regularized incomplete beta function in the
    half-argument form that keeps relative accuracy in the far tail:
    for t >= 0, sf = I_x(df/2, 1/2) / 2 with x = df / (df + t^2), by its
    continued fraction (DiDonato & Morris, ACM TOMS 18:360, 1992). x and
    1 - x come from g = min(|t|, sqrt(df)) / max(|t|, sqrt(df)), so
    neither overflows nor cancels, and log x stays finite where t^2
    would overflow. NaN stays NaN. Entries are taken SCREEN_CHUNK at a
    time, so the temporaries stay a chunk's size whatever the input's.
    """
    if df < 1:
        raise ValueError("df must be at least 1")
    t_arr = np.asarray(t, dtype=np.float64)
    out = np.empty(t_arr.shape)
    flat_t, flat_out = t_arr.reshape(-1), out.reshape(-1)
    for start in range(0, flat_t.size, SCREEN_CHUNK):
        chunk = slice(start, start + SCREEN_CHUNK)
        flat_out[chunk] = _t_sf_flat(flat_t[chunk], df)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


def _t_sf_flat(t_arr: np.ndarray, df: int) -> np.ndarray:
    """t_sf of a vector, all at once."""
    out = np.full(t_arr.shape, np.nan)
    out[np.isposinf(t_arr)] = 0.0
    out[np.isneginf(t_arr)] = 1.0
    finite = np.isfinite(t_arr)
    ts = t_arr[finite]
    s = np.abs(ts)
    root = math.sqrt(df)
    far = s > root
    with np.errstate(divide="ignore"):  # log 0 at t = 0
        g = np.where(far, root / np.where(far, s, 1.0), s / root)
        g2 = g * g
        near_one = 1.0 / (1.0 + g2)
        near_zero = g2 / (1.0 + g2)
        log_near_one = -np.log1p(g2)
        log_near_zero = 2.0 * np.log(g) + log_near_one
    x = np.where(far, near_zero, near_one)
    y = np.where(far, near_one, near_zero)
    log_x = np.where(far, log_near_zero, log_near_one)
    log_y = np.where(far, log_near_one, log_near_zero)
    half_tail = 0.5 * _beta_inc(0.5 * df, 0.5, x, y, log_x, log_y)
    out[finite] = np.where(ts >= 0.0, half_tail, 1.0 - half_tail)
    return out


@dataclass(frozen=True)
class FdrResult:
    """Outcome of the adaptive false-discovery-rate procedure."""

    reject: np.ndarray
    threshold: float
    m0_hat: int
    n_rejected: int


def fdr_adaptive(pvals: np.ndarray, q: float) -> FdrResult:
    """Adaptive step-up procedure with a slope-based null-count estimate.

    Sorts the p-values, forms the slopes S_k = (1 - p_(k)) / (m + 1 - k),
    and at the first k where the slope decreases estimates the null count
    as min(m, ceil(1/S_k + 1)); if the slopes never decrease the estimate
    is m. The step-up pass then rejects the largest k with
    p_(k) <= k * q / m0_hat, and everything tied below that value.
    """
    pvals = np.asarray(pvals, dtype=np.float64)
    if pvals.ndim != 1:
        raise ValueError("p-values must form a vector")
    if np.any(~np.isfinite(pvals)) or np.any(pvals < 0.0) or np.any(pvals > 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    m = pvals.size
    order = np.sort(pvals)
    ks = np.arange(1, m + 1, dtype=np.float64)
    slopes = (1.0 - order) / (m + 1.0 - ks)
    m0 = m
    if m >= 2:
        drops = np.nonzero(slopes[1:] < slopes[:-1])[0]
        if drops.size:
            k_idx = int(drops[0]) + 1
            s_k = slopes[k_idx]
            if s_k > 0.0:
                m0 = int(min(m, int(np.ceil(1.0 / s_k + 1.0))))
    cutoffs = ks * q / m0
    passing = np.nonzero(order <= cutoffs)[0]
    if passing.size == 0:
        return FdrResult(
            reject=np.zeros(m, dtype=bool), threshold=0.0, m0_hat=m0, n_rejected=0
        )
    threshold = float(order[passing[-1]])
    reject = pvals <= threshold
    return FdrResult(
        reject=reject,
        threshold=threshold,
        m0_hat=m0,
        n_rejected=int(np.sum(reject)),
    )


# the lattice offsets of a voxel's 13 neighbors that come after it in
# raster order (with their negatives, all 26), and the voxel's own, which
# joins repeated coordinates
_FORWARD = np.array(list(np.ndindex(3, 3, 3)))[13:] - 1


def _components(coords: np.ndarray) -> np.ndarray:
    """26-connected component of each voxel, numbered 0, 1, ... by the
    raster order of each component's first voxel, as
    scipy.ndimage.label numbers them.

    A union-find over the voxels: every round links the root of each
    neighbor pair's larger index to the smaller one, and pointer jumping
    then flattens the trees. Each round at least halves the roots that
    still have a neighbor elsewhere, so the work grows with the number
    of voxels and not with a cluster's diameter.
    """
    # raster keys in a grid with a margin of one, so no offset wraps
    shifted = coords - coords.min(axis=0) + 1
    extent = shifted.max(axis=0) + 2
    strides = np.array([extent[1] * extent[2], extent[2], 1])
    keys = shifted @ strides
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    heads, tails = [], []
    for step in _FORWARD @ strides:
        pos = np.minimum(np.searchsorted(keys, keys + step), keys.size - 1)
        hit = keys[pos] == keys + step
        heads.append(np.nonzero(hit)[0])
        tails.append(pos[hit])
    head = np.concatenate(heads)
    tail = np.concatenate(tails)
    parent = np.arange(keys.size)
    while True:
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        root_h, root_t = parent[head], parent[tail]
        apart = root_h != root_t
        if not apart.any():
            break
        root_h, root_t = root_h[apart], root_t[apart]
        np.minimum.at(parent, np.maximum(root_h, root_t),
                      np.minimum(root_h, root_t))
    # a root is its component's first voxel in raster order
    _, label = np.unique(parent, return_inverse=True)
    out = np.empty_like(label)
    out[order] = label
    return out


def cluster_active(coords: np.ndarray, min_size: int) -> np.ndarray:
    """Group voxel coordinates into spatial clusters.

    Groups 26-connected components (all lattice neighbors including
    diagonals) and relabels them 1, 2, ... by descending size, ties in
    the raster order of their first voxels; components smaller than
    min_size get label 0.
    """
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError("coords must be (n, 3)")
    if coords.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    raw = _components(coords.astype(np.int64))
    counts = np.bincount(raw)
    keep = np.nonzero(counts >= max(min_size, 1))[0]
    keep = keep[np.argsort(-counts[keep], kind="stable")]
    relabel = np.zeros(counts.size, dtype=np.int64)
    relabel[keep] = np.arange(1, keep.size + 1)
    return relabel[raw]


@dataclass(frozen=True)
class InferenceConfig:
    """activation_map's FDR level q, uncorrected screen (None: none) and
    cluster size floor."""

    q: float = 0.05
    screen_alpha: float | None = 1e-3
    min_cluster: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.screen_alpha is not None and not 0.0 < self.screen_alpha < 1.0:
            raise ValueError("screen_alpha must lie in (0, 1)")
        if self.min_cluster < 1:
            raise ValueError("min_cluster must be at least 1")


def activation_map(
    dataset: Dataset, fit: FitResult, config: InferenceConfig = InferenceConfig()
) -> tuple[ActivationMap, FdrResult]:
    """Full inference pass over a fitted dataset.

    Tests every voxel's amplitude under the fitted covariance factors
    (t_statistics), optionally screens at an uncorrected level before the
    adaptive FDR pass (config.screen_alpha=None adjusts all voxels),
    and clusters the rejected voxels. A screen that nothing passes
    gives an FdrResult with threshold 0.0 and m0_hat 0.
    """
    t, df = t_statistics(dataset, fit.params)
    pvals = np.asarray(t_sf(t, df))
    m = dataset.dims.n_voxels
    if config.screen_alpha is None:
        screened = np.arange(m)
    else:
        screened = np.nonzero(pvals < config.screen_alpha)[0]
    sub = fdr_adaptive(pvals[screened], config.q)
    reject = np.zeros(m, dtype=bool)
    reject[screened[sub.reject]] = True
    fdr = FdrResult(reject=reject.copy(), threshold=sub.threshold,
                    m0_hat=sub.m0_hat, n_rejected=int(np.sum(reject)))
    cluster = np.zeros(m, dtype=np.int64)
    idx = np.nonzero(reject)[0]
    cluster[idx] = cluster_active(dataset.coords[idx], config.min_cluster)
    amap = ActivationMap(t_stat=t, pvals=pvals, reject=reject, cluster=cluster, df=df)
    return amap, fdr
