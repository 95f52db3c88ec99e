"""The package's numpy code for four routines it once took from scipy,
checked against scipy.

The package runs on numpy alone; scipy is a test-only dependency, and
here it is the oracle: t_sf against the regularized incomplete beta
function of scipy.special, cluster_active against scipy.ndimage.label,
the smoothing's correlation against scipy.ndimage.correlate1d bit for
bit, and inv_spd against scipy.linalg's Cholesky solve.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import linalg, ndimage, special

from helpers import rand_spd
from trialmix.inference import cluster_active, t_sf
from trialmix.linalg import SingularMatrixError, inv_spd
from trialmix.preprocess import (FWHM_TO_SIGMA, _axis_kernel, _correlate_symmetric,
                                 _smooth_axes)


def scipy_t_sf(t: np.ndarray, df: int) -> np.ndarray:
    """Upper t tail from scipy.special: I_x(df/2, 1/2) / 2 for t >= 0,
    x = df / (df + t^2), as the complement I_{1-x}(1/2, df/2) where x
    is near 1 and would round."""
    with np.errstate(over="ignore", invalid="ignore"):
        t2 = t * t
        x = df / (df + t2)
        y = t2 / (df + t2)
    half = np.where(x < 0.5, 0.5 * special.betainc(0.5 * df, 0.5, x),
                    0.5 * special.betaincc(0.5, 0.5 * df, y))
    return np.where(t >= 0.0, half, 1.0 - half)


# t where the upper tail is about 1e-300; at df = 1 that t (3e299)
# overflows t^2 in the oracle, whose reach ends near p = 3e-151
FAR_T = {1: 1e150, 2: 7.07e149, 5: 1.568e60, 133: 2025.0, 1000: 54.29}


@pytest.mark.parametrize("df", sorted(FAR_T))
def test_t_sf_matches_scipy(df):
    tail = np.geomspace(1e-6, FAR_T[df], 400)
    t = np.concatenate([-tail[::-1], [0.0], tail, np.linspace(-10.0, 10.0, 201)])
    want = scipy_t_sf(t, df)
    if df > 1:
        assert 1e-301 < want[-202] < 1.1e-300
    np.testing.assert_allclose(t_sf(t, df), want, rtol=1e-12, atol=0.0)
    edges = np.array([0.0, np.inf, -np.inf, np.nan])
    np.testing.assert_array_equal(t_sf(edges, df), [0.5, 0.0, 1.0, np.nan])
    np.testing.assert_array_equal(t_sf(edges, df), scipy_t_sf(edges, df))
    assert np.isnan(t_sf(np.nan, df))


def test_t_sf_cauchy_far_tail():
    # past the oracle's reach at df = 1: sf(t) = arctan(1/t) / pi, down
    # to p = 1e-300
    t = np.geomspace(1e3, 3.18e299, 200)
    np.testing.assert_allclose(t_sf(t, 1), np.arctan(1.0 / t) / np.pi,
                               rtol=1e-12, atol=0.0)


def ndimage_clusters(coords: np.ndarray, min_size: int) -> np.ndarray:
    """cluster_active by scipy.ndimage.label on the coordinates' grid."""
    origin = coords.min(axis=0)
    grid = np.zeros(tuple(coords.max(axis=0) - origin + 1), dtype=bool)
    cells = tuple((coords - origin).T)
    grid[cells] = True
    labeled, _ = ndimage.label(grid, structure=np.ones((3, 3, 3), dtype=int))
    raw = labeled[cells]
    counts = np.bincount(raw)
    counts[0] = 0
    keep = np.nonzero(counts >= min_size)[0]
    keep = keep[np.argsort(-counts[keep], kind="stable")]
    relabel = np.zeros(counts.size, dtype=np.int64)
    relabel[keep] = np.arange(1, keep.size + 1)
    return relabel[raw]


def _snake() -> np.ndarray:
    # one voxel wide, turning back at every other row: joined only by
    # following its whole length
    mask = np.zeros((9, 9, 2), dtype=bool)
    mask[::2, :, 0] = True
    mask[1::4, -1, 0] = True
    mask[3::4, 0, 0] = True
    return mask


@settings(max_examples=300)
@given(mask=arrays(bool, st.tuples(*[st.integers(1, 9)] * 3)),
       min_size=st.integers(1, 6), shift=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
@example(mask=_snake(), min_size=1, shift=0, seed=0)
@example(mask=np.ones((1, 1, 1), dtype=bool), min_size=1, shift=3, seed=0)
@example(mask=np.ones((1, 1, 1), dtype=bool), min_size=2, shift=0, seed=0)
def test_cluster_active_matches_ndimage_label(mask, min_size, shift, seed):
    coords = np.argwhere(mask) + shift
    if coords.shape[0] == 0:
        assert cluster_active(coords, min_size).size == 0
        return
    # the labels follow the voxels, whatever their row order
    coords = coords[np.random.default_rng(seed).permutation(coords.shape[0])]
    np.testing.assert_array_equal(cluster_active(coords, min_size),
                                  ndimage_clusters(coords, min_size))


def test_snake_is_one_cluster():
    coords = np.argwhere(_snake())
    np.testing.assert_array_equal(cluster_active(coords, 1), 1)


@pytest.mark.parametrize("shape", [(7, 5, 4), (1, 9, 3), (6, 6, 6, 3)])
def test_smoothing_matches_ndimage_bits(shape):
    rng = np.random.default_rng(len(shape))
    arr = rng.standard_normal(shape) * (rng.random(shape) < 0.7)
    for axis in range(3):
        for sigma in (0.0, 0.4, 0.85, 1.7, 50.0):
            kern = _axis_kernel(sigma, shape[axis] - 1)
            want = ndimage.correlate1d(arr, kern, axis=axis, mode="constant",
                                       cval=0.0)
            assert _correlate_symmetric(arr, kern, axis).tobytes() == want.tobytes()
    want = arr
    for axis, size in enumerate((1.0, 2.0, 1.5)):
        kern = _axis_kernel(2.0 * FWHM_TO_SIGMA / size, shape[axis] - 1)
        want = ndimage.correlate1d(want, kern, axis=axis, mode="constant")
    assert _smooth_axes(arr, 2.0, (1.0, 2.0, 1.5)).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 10, 14])
def test_inv_spd_matches_cholesky_solve(n):
    rng = np.random.default_rng(n)
    for scale in (1e-6, 1.0, 1e6):
        mat = rand_spd(rng, n, scale)
        want = linalg.cho_solve(linalg.cho_factor(mat, lower=True), np.eye(n))
        assert np.abs(inv_spd(mat) - want).max() <= 1e-12 * np.abs(want).max()
    indefinite = np.diag(np.r_[np.ones(n - 1), -1e-3])
    with pytest.raises(SingularMatrixError):
        inv_spd(indefinite)
